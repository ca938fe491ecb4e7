#ifndef SIMBENCH_STATS_H_
#define SIMBENCH_STATS_H_

// Sample statistics and span bookkeeping shared by every workload: exact
// nearest-rank percentiles with the "at least ten samples beyond" support
// rule, each op's best run over repeated passes, and an in-memory span log
// whose self times subtract the part of a span's interval its children
// cover.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline int64_t NanosSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

/// Number of samples strictly above the nearest-rank q-quantile of n
/// samples: n - ceil(q * n).
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool PercentileSupported(size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= 10;
}

/// Smallest sample count for which the q-quantile is supported.
inline size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (!PercentileSupported(n, q)) ++n;
  return n;
}

/// Nearest-rank quantile of an ascending vector; 0 when empty.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Summary {
  size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// True when at least ten samples lie beyond p99 (n >= 1000).
  bool p99_supported = false;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = QuantileSorted(samples, 0.5);
  s.p99 = QuantileSorted(samples, 0.99);
  s.p99_supported = PercentileSupported(samples.size(), 0.99);
  return s;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Each op's fastest run, from samples taken in whole passes over `ops`
/// ops: sample i is op i % ops.
inline std::vector<double> BestPerOp(const std::vector<double>& samples,
                                     size_t ops) {
  std::vector<double> best(ops, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < samples.size(); ++i) {
    best[i % ops] = std::min(best[i % ops], samples[i]);
  }
  return best;
}

/// One recorded span: a layer call made by the benchmark, timed at its
/// boundary. Spans of one request share `request`; `parent` indexes the
/// enclosing span in the same log (-1 for a root).
struct Span {
  uint64_t request = 0;
  int32_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Append-only span log kept in memory for the whole run and written out
/// when the run ends. Single-threaded.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  int32_t Open(uint64_t request, const char* name, int32_t parent = -1) {
    Span s;
    s.request = request;
    s.parent = parent;
    s.name = name;
    s.start_ns = NanosSince(epoch_, Clock::now());
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NanosSince(epoch_, Clock::now());
  }
  /// Records an already-timed span.
  int32_t Add(uint64_t request, const char* name, int32_t parent,
              Clock::time_point start, Clock::time_point end) {
    Span s;
    s.request = request;
    s.parent = parent;
    s.name = name;
    s.start_ns = NanosSince(epoch_, start);
    s.end_ns = NanosSince(epoch_, end);
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  double DurationMicros(int32_t index) const {
    const Span& s = spans_[static_cast<size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of every span, in nanoseconds: its duration minus the length
/// of the union of its children's intervals clipped to its own interval.
/// Children may overlap (parallel work) or stick out of the parent; neither
/// is double-subtracted.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace simbench

#endif  // SIMBENCH_STATS_H_
