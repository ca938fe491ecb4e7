#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <map>

#include "obs/log.h"

namespace simsel::obs {

namespace {

// `name` or `name{labels}`.
std::string Series(const MetricsSnapshot::Key& key) {
  if (key.labels.empty()) return key.name;
  return key.name + "{" + key.labels + "}";
}

// `name{labels,extra}` — merges histogram-internal labels such as le=.
std::string SeriesWith(const MetricsSnapshot::Key& key,
                       const std::string& extra) {
  std::string labels = key.labels;
  if (!labels.empty()) labels += ",";
  labels += extra;
  return key.name + "{" + labels + "}";
}

// Exposition-format HELP text per family. Free text after the name; kept
// one-line and escape-free by construction. Unknown families (tests,
// embedders) get a generic line — the format requires presence, not prose.
const char* MetricHelp(const std::string& name) {
  static const std::map<std::string, const char*> kHelp = {
      {"simsel_queries_total", "Executed queries per algorithm"},
      {"simsel_query_latency_usec", "Query wall-clock latency per algorithm"},
      {"simsel_query_terminations_total",
       "Queries tripped by a QueryControl, by reason"},
      {"simsel_query_failures_total", "Queries that surfaced a non-OK Status"},
      {"simsel_lists_opened_total", "Inverted-list cursors opened"},
      {"simsel_postings_read_total", "Postings read by cursors"},
      {"simsel_postings_skipped_total", "Postings bypassed via skip index"},
      {"simsel_page_reads_seq_total", "Sequential page reads (simulated I/O)"},
      {"simsel_page_reads_rand_total", "Random page reads (simulated I/O)"},
      {"simsel_hash_probes_total", "Random-access membership probes"},
      {"simsel_candidates_inserted_total", "Candidate-set insertions"},
      {"simsel_candidates_pruned_total", "Candidate-set prunes"},
      {"simsel_candidate_scan_steps_total", "Candidate-set scan steps"},
      {"simsel_rows_scanned_total", "Base-table rows scanned"},
      {"simsel_results_total", "Matches returned by executed queries"},
      {"simsel_cursor_read_faults_total",
       "Posting reads that failed transiently"},
      {"simsel_buffer_pool_hits_total", "Buffer-pool page hits"},
      {"simsel_buffer_pool_misses_total", "Buffer-pool page misses"},
      {"simsel_buffer_pool_evictions_total", "Buffer-pool evictions"},
      {"simsel_buffer_pool_resident_pages", "Pages resident in buffer pools"},
      {"simsel_thread_pool_tasks_total", "Thread-pool tasks executed"},
      {"simsel_thread_pool_queue_depth", "Thread-pool tasks queued"},
      {"simsel_thread_pool_task_usec", "Thread-pool task run time"},
      {"simsel_result_cache_hits_total", "Result-cache lookup hits"},
      {"simsel_result_cache_misses_total", "Result-cache lookup misses"},
      {"simsel_result_cache_insertions_total", "Results inserted in the cache"},
      {"simsel_result_cache_evictions_total", "Result-cache LRU evictions"},
      {"simsel_result_cache_invalidations_total",
       "Stale result-cache entries erased"},
      {"simsel_result_cache_bytes", "Bytes resident in the result cache"},
      {"simsel_dynamic_records_added_total",
       "Records appended to a dynamic selector's delta"},
      {"simsel_dynamic_rebuilds_total",
       "Online delta-fold rebuilds completed"},
      {"simsel_serve_stage_latency_usec",
       "Serving-stage latency (cache_lookup/scatter/merge)"},
      {"simsel_shard_latency_usec", "Per-shard execution latency"},
      {"simsel_slow_queries_total",
       "Queries captured by the slow-query log, by reason"},
      {"simsel_server_requests_total",
       "Server requests by outcome (ok/partial/shed/error)"},
      {"simsel_server_inserts_total", "Inserts acknowledged by the server"},
      {"simsel_server_queue_depth",
       "Admitted requests in the server (queued or executing)"},
      {"simsel_server_active_connections", "Open client connections"},
      {"simsel_server_request_usec",
       "Admitted request latency, arrival to response"},
  };
  auto it = kHelp.find(name);
  return it != kHelp.end() ? it->second : "simsel metric";
}

void TypeLine(std::string* out, const std::string& name, const char* type,
              std::string* last_family) {
  if (name == *last_family) return;
  *last_family = name;
  out->append("# HELP ");
  out->append(name);
  out->push_back(' ');
  out->append(MetricHelp(name));
  out->push_back('\n');
  out->append("# TYPE ");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
}

void Sample(std::string* out, const std::string& series, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %llu\n",
                static_cast<unsigned long long>(value));
  out->append(series);
  out->append(buf);
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string family;
  for (const auto& [key, value] : snapshot.counters) {
    TypeLine(&out, key.name, "counter", &family);
    Sample(&out, Series(key), value);
  }
  for (const auto& [key, value] : snapshot.gauges) {
    TypeLine(&out, key.name, "gauge", &family);
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(value));
    out.append(Series(key));
    out.append(buf);
  }
  for (const auto& [key, hist] : snapshot.histograms) {
    TypeLine(&out, key.name, "histogram", &family);
    MetricsSnapshot::Key bucket_key = key;
    bucket_key.name = key.name + "_bucket";
    uint64_t cum = 0;
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (hist.buckets[i] == 0) continue;
      cum += hist.buckets[i];
      char le[40];
      std::snprintf(le, sizeof(le), "le=\"%llu\"",
                    static_cast<unsigned long long>(
                        Histogram::BucketUpperBound(static_cast<int>(i))));
      Sample(&out, SeriesWith(bucket_key, le), cum);
    }
    Sample(&out, SeriesWith(bucket_key, "le=\"+Inf\""), hist.count);
    Sample(&out, Series({key.name + "_sum", key.labels}), hist.sum);
    Sample(&out, Series({key.name + "_count", key.labels}), hist.count);
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [key, value] : snapshot.counters) {
    w.Key(Series(key));
    w.Uint(value);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [key, value] : snapshot.gauges) {
    w.Key(Series(key));
    w.Int(value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [key, hist] : snapshot.histograms) {
    w.Key(Series(key));
    w.BeginObject();
    w.Key("count");
    w.Uint(hist.count);
    w.Key("sum");
    w.Uint(hist.sum);
    w.Key("mean");
    w.Double(hist.Mean());
    w.Key("max");
    w.Uint(hist.max);
    w.Key("p50");
    w.Uint(hist.Quantile(0.50));
    w.Key("p90");
    w.Uint(hist.Quantile(0.90));
    w.Key("p99");
    w.Uint(hist.Quantile(0.99));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::Comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) out_.push_back(',');
    need_comma_.back() = true;
  }
}

void JsonWriter::Open(char c) {
  Comma();
  out_.push_back(c);
  need_comma_.push_back(false);
}

void JsonWriter::Close(char c) {
  need_comma_.pop_back();
  out_.push_back(c);
}

void JsonWriter::Key(std::string_view key) {
  Comma();
  out_.push_back('"');
  out_.append(Escape(key));
  out_.append("\":");
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Comma();
  out_.push_back('"');
  out_.append(Escape(value));
  out_.push_back('"');
}

void JsonWriter::Uint(uint64_t value) {
  Comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out_.append(buf);
}

void JsonWriter::Int(int64_t value) {
  Comma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_.append(buf);
}

void JsonWriter::Double(double value) {
  Comma();
  if (!std::isfinite(value)) {
    out_.append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_.append(buf);
}

void JsonWriter::Bool(bool value) {
  Comma();
  out_.append(value ? "true" : "false");
}

void JsonWriter::Raw(std::string_view json) {
  Comma();
  out_.append(json);
}

bool WriteTextFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    SIMSEL_LOG(kError) << "cannot open " << path << " for writing";
    return false;
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool closed = std::fclose(f) == 0;
  bool ok = written == content.size() && closed;
  if (!ok) SIMSEL_LOG(kError) << "short write to " << path;
  return ok;
}

}  // namespace simsel::obs
