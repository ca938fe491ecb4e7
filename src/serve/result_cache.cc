#include "serve/result_cache.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace simsel::serve {

namespace {

/// Accounting charge per entry beyond key and matches: list/map node
/// bookkeeping plus the stored counters. An estimate — the budget models
/// memory, it does not meter the allocator.
constexpr size_t kEntryOverhead = 96 + sizeof(AccessCounters);

void AppendBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  AppendBytes(out, &value, sizeof(value));
}

size_t PickShards(const ResultCacheOptions& options) {
  size_t shards = options.num_shards;
  if (shards == 0) {
    shards = std::max<size_t>(
        1, std::min<size_t>(16, options.capacity_bytes / (4u << 20)));
  }
  // Round down to a power of two so the Fibonacci mix can mask.
  while ((shards & (shards - 1)) != 0) shards &= shards - 1;
  return shards;
}

}  // namespace

ResultCache::ResultCache(ResultCacheOptions options)
    : capacity_bytes_(options.capacity_bytes) {
  SIMSEL_CHECK_MSG(capacity_bytes_ >= 1, "cache capacity must be >= 1 byte");
  size_t num_shards = PickShards(options);
  shard_mask_ = num_shards - 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = capacity_bytes_ / num_shards;
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  hits_metric_ = reg.GetCounter("simsel_result_cache_hits_total");
  misses_metric_ = reg.GetCounter("simsel_result_cache_misses_total");
  patches_metric_ = reg.GetCounter("simsel_result_cache_patches_total");
  insertions_metric_ = reg.GetCounter("simsel_result_cache_insertions_total");
  evictions_metric_ = reg.GetCounter("simsel_result_cache_evictions_total");
  invalidations_metric_ =
      reg.GetCounter("simsel_result_cache_invalidations_total");
  bytes_metric_ = reg.GetGauge("simsel_result_cache_bytes");
}

ResultCache::~ResultCache() {
  // Reconcile the process-wide gauge: this instance's resident bytes leave
  // the process with it. Per shard under its lock, the same discipline as
  // Insert/Erase/Clear.
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->bytes != 0) {
      bytes_metric_->Add(-static_cast<int64_t>(shard->bytes));
    }
  }
}

size_t ResultCache::EntryBytes(const std::string& key, size_t num_matches) {
  return kEntryOverhead + key.size() + num_matches * sizeof(Match);
}

std::string ResultCache::MakeKey(const PreparedQuery& q, double clamped_tau,
                                 AlgorithmKind kind,
                                 const SelectOptions& options, bool disk_mode,
                                 std::string_view measure_name) {
  std::string key;
  key.reserve(32 + measure_name.size() +
              q.tokens.size() * (sizeof(TokenId) + sizeof(uint32_t)));
  key.push_back(static_cast<char>(kind));
  uint8_t flags = 0;
  flags |= options.length_bounding ? 1u << 0 : 0;
  flags |= options.use_skip_index ? 1u << 1 : 0;
  flags |= options.order_preservation ? 1u << 2 : 0;
  flags |= options.magnitude_bound ? 1u << 3 : 0;
  flags |= options.f_cutoff ? 1u << 4 : 0;
  flags |= options.lazy_candidate_scan ? 1u << 5 : 0;
  flags |= disk_mode ? 1u << 6 : 0;
  flags |= options.prefilter ? 1u << 7 : 0;
  key.push_back(static_cast<char>(flags));
  key.append(measure_name);
  key.push_back('\0');
  // Bit patterns, not values: -0.0 vs 0.0 never matters here, but distinct
  // lengths from distinct unknown-token mass must never alias.
  uint64_t tau_bits, len_bits;
  static_assert(sizeof(tau_bits) == sizeof(clamped_tau), "double is 64-bit");
  std::memcpy(&tau_bits, &clamped_tau, sizeof(tau_bits));
  std::memcpy(&len_bits, &q.length, sizeof(len_bits));
  AppendPod(&key, tau_bits);
  AppendPod(&key, len_bits);
  AppendPod(&key, q.multiset_size);
  AppendPod(&key, static_cast<uint32_t>(q.unknown_tokens));
  AppendPod(&key, static_cast<uint32_t>(q.tokens.size()));
  for (size_t i = 0; i < q.tokens.size(); ++i) {
    AppendPod(&key, q.tokens[i]);
    AppendPod(&key, q.tfs[i]);
  }
  return key;
}

bool ResultCache::LookupQuery(const PreparedQuery& q, double clamped_tau,
                              AlgorithmKind kind, const SelectOptions& options,
                              bool disk_mode, std::string_view measure_name,
                              CacheStamp at, std::string* key,
                              QueryResult* out, uint64_t* cut) {
  static obs::Histogram* const latency =
      obs::MetricsRegistry::Global().GetHistogram(
          "simsel_serve_stage_latency_usec",
          obs::LabelPair("stage", "cache_lookup"));
  WallTimer timer;
  obs::TraceScope span(options.trace, "cache_lookup");
  *key = MakeKey(q, clamped_tau, kind, options, disk_mode, measure_name);
  CachedResult cached;
  const bool hit = Lookup(*key, at, &cached);
  latency->Observe(static_cast<uint64_t>(timer.ElapsedMicros()));
  if (hit) {
    out->matches = std::move(cached.matches);
    out->counters = cached.counters;
    *cut = cached.cut;
  }
  return hit;
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& key) {
  // Fibonacci mix over the string hash so clustered hashes spread.
  size_t h = std::hash<std::string>{}(key);
  return *shards_[((h * 0x9E3779B97F4A7C15ull) >> 32) & shard_mask_];
}

void ResultCache::Erase(Shard* shard, std::list<Entry>::iterator it) {
  shard->bytes -= it->bytes;
  bytes_metric_->Add(-static_cast<int64_t>(it->bytes));
  shard->map.erase(std::string_view(it->key));
  shard->lru.erase(it);
}

bool ResultCache::Lookup(const std::string& key, CacheStamp at,
                         CachedResult* out) {
  Shard& shard = ShardFor(key);
  bool invalidated = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto found = shard.map.find(std::string_view(key));
    if (found != shard.map.end()) {
      auto it = found->second;
      if (it->generation == at.generation && it->result.cut <= at.cut) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        *out = it->result;
        hits_.fetch_add(1, std::memory_order_relaxed);
        hits_metric_->Increment();
        if (out->cut < at.cut) {
          patches_.fetch_add(1, std::memory_order_relaxed);
          patches_metric_->Increment();
        }
        return true;
      }
      if (it->generation < at.generation) {
        // Scored under statistics a rebuild has since replaced.
        Erase(&shard, it);
        invalidated = true;
      }
    }
  }
  if (invalidated) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    invalidations_metric_->Increment();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  misses_metric_->Increment();
  return false;
}

void ResultCache::Insert(const std::string& key, CacheStamp at,
                         const std::vector<Match>& matches,
                         const AccessCounters& counters) {
  const size_t bytes = EntryBytes(key, matches.size());
  Shard& shard = ShardFor(key);
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (bytes > shard.capacity) return;  // would evict the whole shard
    auto found = shard.map.find(std::string_view(key));
    if (found == shard.map.end()) {
      shard.lru.push_front(Entry{key, 0, 0, {}});
      shard.map.emplace(std::string_view(shard.lru.front().key),
                        shard.lru.begin());
    } else {
      auto it = found->second;
      if (it->generation > at.generation ||
          (it->generation == at.generation && it->result.cut >= at.cut)) {
        return;
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it);
    }
    // Re-stamp in place at the front. The gauge mirror must move under the
    // same shard lock as shard.bytes: outside it, a racing Clear() can sweep
    // the shard before the Add lands, leaving the process-wide gauge
    // permanently off the resident truth.
    Entry& entry = shard.lru.front();
    entry.generation = at.generation;
    entry.result.matches = matches;
    entry.result.counters = counters;
    entry.result.cut = at.cut;
    shard.bytes = shard.bytes - entry.bytes + bytes;
    bytes_metric_->Add(static_cast<int64_t>(bytes) -
                       static_cast<int64_t>(entry.bytes));
    entry.bytes = bytes;
    // The entry sits at the front and fits the shard alone, so the tail
    // never reaches it.
    while (shard.bytes > shard.capacity) {
      Erase(&shard, std::prev(shard.lru.end()));
      ++evicted;
    }
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  insertions_metric_->Increment();
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    evictions_metric_->Increment(evicted);
  }
}

void ResultCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Decrement the gauge under the same lock that zeroes the shard (see
    // Insert): deferring a captured total past the unlock lets concurrent
    // insert/evict traffic observe — and a destructor snapshot bake in — a
    // gauge that disagrees with the resident bytes.
    if (shard->bytes != 0) {
      bytes_metric_->Add(-static_cast<int64_t>(shard->bytes));
    }
    shard->map.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

size_t ResultCache::size_bytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->bytes;
  }
  return bytes;
}

size_t ResultCache::entries() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->lru.size();
  }
  return n;
}

}  // namespace simsel::serve
