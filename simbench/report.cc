#include "report.h"

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>

#include "obs/export.h"

namespace simbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"query_p50_us", "us"},
      {"query_p99_us", "us"},
      {"queries_per_s", "1/s"},
      {"mem_bytes_per_input_byte", "B/B"},
      {"disk_bytes_per_input_byte", "B/B"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"text.tokenize_us", "us"},
      {"core.prepare_us", "us"},
      {"core.select_us.SF", "us"},
      {"core.select_us.iNRA", "us"},
      {"core.select_us.Hybrid", "us"},
      {"core.select_us.iTA", "us"},
      {"core.select_us.sort-by-id", "us"},
      {"core.span_loop_us", "us"},
      {"core.candidate_inserts", "count"},
      {"core.candidate_scan_steps", "count"},
      {"core.candidate_prune_ratio", "ratio"},
      {"core.delta_size_mean", "count"},
      {"core.rebuilds_per_1k_inserts", "count"},
      {"core.insert_p50_us", "us"},
      {"core.insert_p99_us", "us"},
      {"index.window_seek_us", "us"},
      {"index.seek_probes", "count"},
      {"index.window_postings", "count"},
      {"index.elements_read", "count"},
      {"index.pruning_power", "ratio"},
      {"index.read_over_window", "ratio"},
      {"simd.decode_ns_per_posting", "ns/posting"},
      {"simd.scalar_over_dispatched", "ratio"},
      {"storage.read_block_us", "us"},
      {"storage.seq_pages", "count"},
      {"storage.rand_pages", "count"},
      {"storage.pool_hit_ratio", "ratio"},
      {"storage.pool_misses", "count"},
      {"sketch.plan_us", "us"},
      {"sketch.engaged_ratio", "ratio"},
      {"sketch.admitted", "count"},
      {"sketch.fp_ratio", "ratio"},
      {"serve.scatter_us", "us"},
      {"serve.merge_us", "us"},
      {"serve.shard_us", "us"},
      {"serve.cache_lookup_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.server_p99_us", "us"},
      {"serve.wire_queue_us", "us"},
      {"serve.shed_ratio", "ratio"},
      {"load.open_p50_us", "us"},
      {"load.open_p99_us", "us"},
      {"load.send_lag_p99_us", "us"},
      {"trace.e2e_us", "us"},
      {"trace.layer_sum_us", "us"},
      {"trace.remainder_us", "us"},
      {"trace.overhead_us", "us"},
  };
  return defs;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool MakeDirs(const std::string& dir) {
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::string Report::ResultLine() const {
  simsel::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Uint(attempted_);
  w.Key("failed");
  w.Uint(failed_);
  w.Key("metrics");
  w.BeginObject();
  for (const MetricDef& def :
       config_.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    w.Key(def.name);
    w.BeginObject();
    w.Key("value");
    w.Raw(Num(Get(def.name)));
    w.Key("unit");
    w.String(def.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

bool Report::WriteArtifact() const {
  if (!MakeDirs(config_.out_dir)) return false;
  simsel::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(config_.workload);
  w.Key("seed");
  w.Uint(config_.seed);
  w.Key("seconds");
  w.Raw(Num(config_.seconds));
  w.Key("trace");
  w.Bool(config_.trace);
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Uint(attempted_);
  w.Key("failed");
  w.Uint(failed_);
  w.Key("failed_fraction");
  w.Raw(Num(attempted_ == 0 ? 0.0
                            : static_cast<double>(failed_) /
                                  static_cast<double>(attempted_)));
  w.Key("violations");
  w.BeginArray();
  for (const std::string& n : notes_) w.String(n);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, value] : values_) {
    w.Key(name);
    w.Raw(Num(value));
  }
  w.EndObject();
  for (const auto& [key, json] : sections_) {
    w.Key(key);
    w.Raw(json);
  }
  w.EndObject();
  const std::string suffix = config_.trace ? ".traced.json" : ".json";
  return simsel::obs::WriteTextFile(
      config_.out_dir + "/" + config_.workload + suffix, w.str() + "\n");
}

}  // namespace simbench
