// Self-tests of the benchmark's own machinery: the percentile support rule,
// the best run per op, span self-time subtraction, the exactness oracle,
// and the result line.
// Run: simbench_selftest (exit 0 when every check passes).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "report.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void PercentileRule() {
  using simbench::PercentileSupported;
  using simbench::SamplesBeyond;
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(!PercentileSupported(999, 0.99));
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(PercentileSupported(20, 0.5));
  EXPECT(!PercentileSupported(19, 0.5));
  EXPECT(simbench::MinSamplesFor(0.99) == 1000);
  EXPECT(simbench::MinSamplesFor(0.999) == 10000);

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  simbench::Summary s = simbench::Summarize(v);
  EXPECT(s.n == 1000);
  EXPECT(s.p50 == 500);
  EXPECT(s.p99 == 990);
  EXPECT(s.p99_supported);
  EXPECT(std::fabs(s.mean - 500.5) < 1e-9);
  v.pop_back();
  EXPECT(!simbench::Summarize(v).p99_supported);
  EXPECT(simbench::Median({3, 1, 2}) == 2);
  EXPECT(simbench::Median({4, 1, 2, 3}) == 2.5);
}

void BestRunPerOp() {
  // Three ops over two passes; a slow pass raises no op's best run.
  const std::vector<double> best =
      simbench::BestPerOp({5, 7, 9, 4, 70, 90}, 3);
  EXPECT(best.size() == 3);
  EXPECT(best[0] == 4);
  EXPECT(best[1] == 7);
  EXPECT(best[2] == 9);
}

void SelfTimeSubtraction() {
  using simbench::Span;
  std::vector<Span> spans;
  auto add = [&](int32_t parent, int64_t start, int64_t end) {
    Span s;
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    spans.push_back(s);
    return static_cast<int32_t>(spans.size() - 1);
  };
  const int32_t root = add(-1, 0, 100);
  const int32_t a = add(root, 10, 30);
  add(root, 20, 50);   // overlaps a: the union [10, 50] counts once
  add(root, 90, 120);  // sticks out of root: only [90, 100] is subtracted
  add(a, 12, 18);      // grandchild: subtracted from a, not from root
  const std::vector<int64_t> self = simbench::SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);

  // A leaf's self time is its duration; a parent fully covered is zero.
  std::vector<Span> covered;
  Span p;
  p.start_ns = 0;
  p.end_ns = 10;
  covered.push_back(p);
  Span c = p;
  c.parent = 0;
  covered.push_back(c);
  const std::vector<int64_t> s2 = simbench::SelfTimes(covered);
  EXPECT(s2[0] == 0);
  EXPECT(s2[1] == 10);
}

void OracleFlagsScoreBits() {
  using simsel::Match;
  const std::vector<Match> want = {{1, 0.5}, {7, 0.75}};
  EXPECT(simbench::DiffMatches(want, want).empty());

  std::vector<Match> bumped = want;
  bumped[1].score = std::nextafter(bumped[1].score, 1.0);  // one ulp
  const std::string diff = simbench::DiffMatches(want, bumped);
  EXPECT(!diff.empty());
  EXPECT(diff.find("score bits") != std::string::npos);

  std::vector<Match> zero = {{3, 0.0}};
  std::vector<Match> neg_zero = {{3, -0.0}};
  EXPECT(!simbench::DiffMatches(zero, neg_zero).empty());

  std::vector<Match> other_id = want;
  other_id[0].id = 2;
  EXPECT(!simbench::DiffMatches(want, other_id).empty());
  EXPECT(!simbench::DiffMatches(want, {want[0]}).empty());

  // A flagged mismatch makes the run incorrect (non-zero exit).
  simbench::RunConfig cfg;
  cfg.workload = "grid-mem";
  simbench::Report report(cfg);
  report.Attempt(true);
  EXPECT(report.correct());
  report.Attempt(false);
  report.Violation(diff);
  EXPECT(!report.correct());
  EXPECT(report.failed() == 1);
}

void ResultLine() {
  simbench::RunConfig cfg;
  cfg.workload = "grid-mem";
  simbench::Report report(cfg);
  EXPECT(!report.correct());  // nothing attempted
  report.Attempt(true);
  report.Set("query_p50_us", 12.345678901234);
  const std::string line = report.ResultLine();
  EXPECT(line.rfind("{\"correct\":true,\"attempted\":1,\"failed\":0,"
                    "\"metrics\":{",
                    0) == 0);
  EXPECT(line.find("\"query_p50_us\":{\"value\":12.345678901234") !=
         std::string::npos);
  for (const simbench::MetricDef& d : simbench::EndToEndMetrics()) {
    EXPECT(line.find(std::string("\"") + d.name + "\"") != std::string::npos);
  }
  cfg.trace = true;
  simbench::Report traced(cfg);
  traced.Attempt(true);
  const std::string tline = traced.ResultLine();
  for (const simbench::MetricDef& d : simbench::PerLayerMetrics()) {
    EXPECT(tline.find(std::string("\"") + d.name + "\"") != std::string::npos);
  }
  EXPECT(tline.find("\"setup_s\"") == std::string::npos);
}

}  // namespace

int main() {
  PercentileRule();
  BestRunPerOp();
  SelfTimeSubtraction();
  OracleFlagsScoreBits();
  ResultLine();
  if (failures == 0) std::printf("simbench self-tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
