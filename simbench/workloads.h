#ifndef SIMBENCH_WORKLOADS_H_
#define SIMBENCH_WORKLOADS_H_

// The three workloads. Each builds its inputs from the run seed, sets the
// system up (timed several times; the median is setup_s), drives it through
// the public front doors for the configured seconds, checks every answer,
// and fills the report.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/selector.h"
#include "report.h"
#include "stats.h"

namespace simbench {

/// Set-up repetitions per grid run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// The corpus is one fixed data set, as the paper's IMDB table is: the run
/// seed draws the queries, their edits, the cell order and the traffic.
inline constexpr uint64_t kCorpusSeed = 42;

/// The §VIII-A word-occurrence corpus: the synthetic record corpus split
/// into words, one record per word occurrence (MakeBenchEnv's recipe, without
/// the index build so corpus generation stays out of setup_s).
std::vector<std::string> MakeWords(size_t num_words);

/// Total bytes of the record strings.
uint64_t InputBytes(const std::vector<std::string>& records);

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sets setup_s to the median of the set-up repetitions and records them.
void SetSetup(const std::vector<double>& reps, Report* report);

/// Sum of every component of a Figure 5 size breakdown.
uint64_t SizeTotal(const simsel::IndexSizeReport& sizes);

/// Writes the run's spans to <out_dir>/<workload>.spans.jsonl, one JSON
/// object per line. False on I/O failure.
bool WriteSpans(const SpanLog& log, const Report& report);

/// A JSON object literal from (key, pre-rendered value) pairs.
std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields);
std::string JsonString(const std::string& s);

void RunGridMem(Report* report);
void RunGridDisk(Report* report);
void RunServeRw(Report* report);

}  // namespace simbench

#endif  // SIMBENCH_WORKLOADS_H_
