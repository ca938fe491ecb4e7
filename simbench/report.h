#ifndef SIMBENCH_REPORT_H_
#define SIMBENCH_REPORT_H_

// The benchmark's outputs: the metric catalogue (names and units, the same
// lists BENCHMARK.json declares), the per-run report every workload fills,
// the one-line JSON result, and the run artifact written under the build
// directory.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace simbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (--trace 0), for every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by traced runs (--trace 1). A layer a workload never calls
/// reports 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// What the command was asked to do.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run artifact and span dump (created if missing).
  std::string out_dir = ".bench_build/results";
};

/// Everything one run produces. Workloads set metric values by name; the
/// result line picks the end-to-end or per-layer set by RunConfig::trace.
class Report {
 public:
  explicit Report(const RunConfig& config) : config_(config) {}

  const RunConfig& config() const { return config_; }

  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Counts one attempted operation; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void AddAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records an exactness or protocol violation: the run is then not
  /// correct and the command exits non-zero. The first few are kept.
  void Violation(const std::string& what) {
    correct_ = false;
    if (notes_.size() < 8) notes_.push_back(what);
  }

  /// A named, pre-rendered JSON value for the artifact ("sizes", "cells"...).
  void Section(const std::string& key, std::string json) {
    sections_.emplace_back(key, std::move(json));
  }
  /// A line of the human-readable report printed before the result line.
  void Line(std::string text) { lines_.push_back(std::move(text)); }

  bool correct() const { return correct_ && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& lines() const { return lines_; }

  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;
  /// Writes <out_dir>/<workload>.json (overwritten each run). False on I/O
  /// failure.
  bool WriteArtifact() const;

 private:
  RunConfig config_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> notes_;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> sections_;
  std::vector<std::string> lines_;
};

/// A double rendered with every significant digit (%.17g); "0" for NaN/inf.
std::string Num(double v);

/// Creates `dir` and its parents; false on failure.
bool MakeDirs(const std::string& dir);

}  // namespace simbench

#endif  // SIMBENCH_REPORT_H_
