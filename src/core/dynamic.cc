#include "core/dynamic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/internal.h"
#include "obs/metrics_registry.h"

namespace simsel {
namespace dynamic_internal {

/// One appended record under the frozen statistics.
struct DeltaRecord {
  std::vector<TokenId> tokens;  // known tokens, distinct, ascending TokenId
  float frozen_length = 0.0f;   // with unknown-token mass included
  /// MinHash signature over `tokens` under the main index's sketch family
  /// (empty when the main index carries no sketches): lets the prefilter
  /// tier screen delta records with the same admission rule as persisted
  /// sets, so the tier stays available while records stream in.
  std::vector<uint64_t> sketch;
  std::string text;
};

/// The delta segment: an append-only record log plus a per-token inverted
/// index over it, written by one externally-serialized writer and read
/// lock-free by any number of concurrent readers.
///
/// Publication protocol: the writer materializes the record in its chunk
/// slot and links its posting entries first, then publishes everything with
/// one release store of the record count. A reader acquires the count once
/// (its snapshot cut `n`) and touches only records and posting entries with
/// position < n — all of which the acquire made visible. Posting lists
/// store positions in ascending order, so a reader walks each list until it
/// sees a position >= n and stops; entries beyond its cut are never read.
class DeltaIndex {
 public:
  static constexpr size_t kChunkBits = 8;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // records
  static constexpr size_t kMaxChunks = size_t{1} << 14;  // 4.2M records cap
  static constexpr size_t kNodeCap = 16;  // positions per posting node

  explicit DeltaIndex(size_t num_tokens)
      : num_tokens_(num_tokens),
        chunks_(new std::atomic<RecordChunk*>[kMaxChunks]),
        tokens_(num_tokens > 0 ? new TokenList[num_tokens] : nullptr) {
    for (size_t i = 0; i < kMaxChunks; ++i) {
      chunks_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  ~DeltaIndex() {
    for (size_t i = 0; i < kMaxChunks; ++i) {
      delete chunks_[i].load(std::memory_order_relaxed);
    }
    for (size_t t = 0; t < num_tokens_; ++t) {
      PostingNode* node = tokens_[t].head.load(std::memory_order_relaxed);
      while (node != nullptr) {
        PostingNode* next = node->next.load(std::memory_order_relaxed);
        delete node;
        node = next;
      }
    }
  }

  DeltaIndex(const DeltaIndex&) = delete;
  DeltaIndex& operator=(const DeltaIndex&) = delete;

  /// Writer side (callers serialize on the selector's append mutex).
  /// Returns the record's position.
  uint32_t Append(DeltaRecord rec) {
    uint32_t pos = count_.load(std::memory_order_relaxed);
    SIMSEL_CHECK_MSG(pos < kChunkSize * kMaxChunks, "delta segment full");
    size_t chunk_index = pos >> kChunkBits;
    RecordChunk* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new RecordChunk();
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
    DeltaRecord& slot = chunk->records[pos & (kChunkSize - 1)];
    slot = std::move(rec);
    for (TokenId t : slot.tokens) AppendPosting(t, pos);
    // The one publication point: everything written above becomes visible
    // to readers that acquire a count > pos.
    count_.store(pos + 1, std::memory_order_release);
    return pos;
  }

  /// Reader side: the snapshot cut. Pair with positions < the value.
  uint32_t count() const { return count_.load(std::memory_order_acquire); }

  /// Record at `pos`; requires pos < a previously acquired count.
  const DeltaRecord& record(uint32_t pos) const {
    RecordChunk* chunk =
        chunks_[pos >> kChunkBits].load(std::memory_order_acquire);
    SIMSEL_CHECK(chunk != nullptr);
    return chunk->records[pos & (kChunkSize - 1)];
  }

  /// Visits the positions of records containing `token`, restricted to
  /// from <= pos < limit, in ascending order. Returns the number visited.
  /// A node whose last position lies below `from` is skipped whole.
  template <typename Fn>
  size_t ForEachPosting(TokenId token, uint32_t from, uint32_t limit,
                        Fn&& fn) const {
    if (token >= num_tokens_ || from >= limit) return 0;
    const TokenList& list = tokens_[token];
    uint32_t total = list.size.load(std::memory_order_acquire);
    PostingNode* node = list.head.load(std::memory_order_acquire);
    size_t visited = 0;
    for (uint32_t i = 0; node != nullptr && i < total; ) {
      uint32_t in_node = static_cast<uint32_t>(
          std::min<uint64_t>(kNodeCap, total - i));
      for (uint32_t k = node->pos[in_node - 1] < from ? in_node : 0;
           k < in_node; ++k) {
        uint32_t pos = node->pos[k];
        if (pos >= limit) return visited;  // ascending: nothing more <limit
        if (pos < from) continue;
        fn(pos);
        ++visited;
      }
      i += in_node;
      node = node->next.load(std::memory_order_acquire);
    }
    return visited;
  }

 private:
  struct RecordChunk {
    DeltaRecord records[kChunkSize];
  };
  struct PostingNode {
    uint32_t pos[kNodeCap];
    std::atomic<PostingNode*> next{nullptr};
  };
  struct TokenList {
    std::atomic<uint32_t> size{0};
    std::atomic<PostingNode*> head{nullptr};
    PostingNode* tail = nullptr;  // writer-only
  };

  void AppendPosting(TokenId token, uint32_t pos) {
    SIMSEL_CHECK(token < num_tokens_);
    TokenList& list = tokens_[token];
    uint32_t n = list.size.load(std::memory_order_relaxed);
    uint32_t offset = n % kNodeCap;
    if (offset == 0) {
      PostingNode* node = new PostingNode();
      node->pos[0] = pos;
      if (list.tail == nullptr) {
        list.head.store(node, std::memory_order_release);
      } else {
        list.tail->next.store(node, std::memory_order_release);
      }
      list.tail = node;
    } else {
      list.tail->pos[offset] = pos;
    }
    list.size.store(n + 1, std::memory_order_release);
  }

  size_t num_tokens_;
  std::unique_ptr<std::atomic<RecordChunk*>[]> chunks_;
  std::unique_ptr<TokenList[]> tokens_;
  std::atomic<uint32_t> count_{0};
};

/// One immutable generation of the selector: swapped atomically by Rebuild,
/// freed through the EpochManager once the last pinned reader exits.
struct State {
  /// The main part; in disk mode each of its segments owns its store.
  std::shared_ptr<SimilaritySelector> main;
  /// version() of this generation with an empty delta; the live version is
  /// base_version + delta count.
  uint64_t base_version = 0;
  /// 0 at construction, +1 per Rebuild swap (Snapshot::generation).
  uint64_t generation = 0;
  std::unique_ptr<DeltaIndex> delta;
};

namespace {

/// Tokenizes `text` against `main`'s frozen statistics. The known-token
/// length mass is accumulated in ascending-TokenId order — exactly
/// IdfMeasure's set_len_ summation — so an all-known delta record's
/// frozen_length is bit-identical to the set length the same record would
/// get inside a main segment with these statistics (the PR 8 score-parity
/// fix; the old code summed in token-string order). Unknown-token mass is
/// added after the known mass, in tokenizer order.
DeltaRecord Analyze(const std::string& text, const SimilaritySelector& main) {
  const IdfMeasure& measure = main.measure();
  const Dictionary& dict = main.collection().dictionary();
  DeltaRecord rec;
  size_t unknown = 0;
  for (const TokenCount& tc : main.tokenizer().TokenizeCounted(text)) {
    auto id = dict.Find(tc.token);
    if (id.has_value()) {
      rec.tokens.push_back(*id);
    } else {
      // Unknown under the frozen statistics: rarest possible weight, no
      // list to match through, but it still normalizes the length.
      ++unknown;
    }
  }
  std::sort(rec.tokens.begin(), rec.tokens.end());
  double len_sq = 0.0;
  for (TokenId token : rec.tokens) {
    double idf = measure.idf(token);
    len_sq += idf * idf;
  }
  for (size_t i = 0; i < unknown; ++i) {
    len_sq += measure.default_idf() * measure.default_idf();
  }
  rec.frozen_length = static_cast<float>(std::sqrt(len_sq));
  if (main.prefilter() != nullptr) {
    const sketch::Prefilter& pf = *main.prefilter();
    rec.sketch.resize(pf.params().k);
    sketch::ComputeSignature(rec.tokens.data(), rec.tokens.size(), pf.seeds(),
                             rec.sketch.data());
  }
  return rec;
}

/// The delta part of a snapshot query over the records at positions
/// [from, count): gathers candidate positions from the query tokens' posting
/// lists, screens them with the sketch tier when it is on, and scores each
/// survivor with the main measure's canonical scorer, so a delta record
/// scores bit-identically to the same record in a main segment. Record pos
/// has id main-size + pos, above every main id, so its matches append to
/// `result` in id order. The control is polled per token list and per
/// candidate batch, as in the kernels; a trip keeps the matches already
/// scored (exact) and sets `result->termination`.
void SelectDelta(const DeltaIndex& delta, uint32_t from, uint32_t count,
                 const SimilaritySelector& main, const PreparedQuery& q,
                 double tau, const SelectOptions& options,
                 QueryResult* result) {
  AccessCounters& counters = result->counters;
  internal::ControlPoller poller(options.control, counters);
  std::vector<uint32_t> candidates;
  uint64_t postings = 0;
  for (TokenId token : q.tokens) {
    if (poller.ShouldStop()) break;
    size_t visited = delta.ForEachPosting(
        token, from, count,
        [&candidates](uint32_t pos) { candidates.push_back(pos); });
    postings += visited;
    counters.elements_read += visited;
    counters.elements_total += visited;
  }
  // Delta postings are read without a ListCursor, so this pass charges the
  // cursor-owned postings total itself.
  static obs::Counter* postings_read =
      obs::MetricsRegistry::Global().GetCounter("simsel_postings_read_total");
  if (postings > 0) postings_read->Increment(postings);

  if (poller.termination() == Termination::kCompleted) {
    // A record whose sketch proves it cannot reach τ at the configured error
    // bound is pruned before scoring; records appended without a sketch
    // (main index built sketchless) are always scored.
    sketch::DeltaScreen screen;
    if (options.prefilter && main.prefilter() != nullptr) {
      screen = main.prefilter()->MakeDeltaScreen(q, tau);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    const SetId first_id = static_cast<SetId>(main.collection().size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (c % 64 == 0 && poller.ShouldStop()) break;
      const uint32_t pos = candidates[c];
      const DeltaRecord& rec = delta.record(pos);
      if (screen.active() && !rec.sketch.empty()) {
        ++counters.hash_probes;
        if (!screen.Admits(rec.sketch.data(), rec.frozen_length,
                           rec.tokens.size())) {
          ++counters.candidate_prunes;
          continue;
        }
      }
      ++counters.rows_scanned;
      double score = main.measure().ScoreTokens(
          q, rec.tokens.data(), rec.tokens.size(), rec.frozen_length);
      if (score >= tau) {
        result->matches.push_back(Match{static_cast<SetId>(first_id + pos),
                                        score});
      }
    }
  }
  result->termination = poller.termination();
  counters.results = result->matches.size();
}

struct DynamicMetrics {
  obs::Counter* records_added;
  obs::Counter* rebuilds;
};

const DynamicMetrics& Metrics() {
  static const DynamicMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return DynamicMetrics{
        reg.GetCounter("simsel_dynamic_records_added_total"),
        reg.GetCounter("simsel_dynamic_rebuilds_total")};
  }();
  return m;
}

}  // namespace
}  // namespace dynamic_internal

using dynamic_internal::DeltaIndex;
using dynamic_internal::DeltaRecord;
using dynamic_internal::State;

DynamicSelector::DynamicSelector(const std::vector<std::string>& initial,
                                 const BuildOptions& options)
    : build_options_(options) {
  state_.store(BuildState(initial, /*base_version=*/0),
               std::memory_order_seq_cst);
}

void DynamicSelector::set_thread_pool(ThreadPool* pool) {
  pool_ = pool;
  state_.load(std::memory_order_seq_cst)->main->set_thread_pool(pool);
}

DynamicSelector::~DynamicSelector() {
  WaitForRebuild();
  delete state_.load(std::memory_order_seq_cst);
  // epochs_'s destructor frees any retired state still draining.
}

State* DynamicSelector::BuildState(const std::vector<std::string>& texts,
                                   uint64_t base_version) const {
  auto* state = new State();
  state->main = std::make_shared<SimilaritySelector>(
      SimilaritySelector::Build(texts, build_options_));
  state->main->set_thread_pool(pool_);
  state->base_version = base_version;
  state->delta = std::make_unique<DeltaIndex>(
      state->main->collection().dictionary().size());
  return state;
}

DynamicSelector::Snapshot::Snapshot(EpochManager::Guard guard,
                                    const State* state, uint32_t delta_count)
    : guard_(std::move(guard)), state_(state), delta_count_(delta_count) {}

DynamicSelector::Snapshot DynamicSelector::snapshot() const {
  // Pin first, then load: the epoch protocol (common/epoch.h) guarantees a
  // Rebuild either sees this pin and keeps the old state alive, or this
  // load sees the new state.
  EpochManager::Guard guard(epochs_);
  const State* state = state_.load(std::memory_order_seq_cst);
  uint32_t delta_count = state->delta->count();
  return Snapshot(std::move(guard), state, delta_count);
}

uint64_t DynamicSelector::Snapshot::version() const {
  return state_->base_version + delta_count_;
}

uint64_t DynamicSelector::Snapshot::generation() const {
  return state_->generation;
}

size_t DynamicSelector::Snapshot::size() const {
  return state_->main->collection().size() + delta_count_;
}

size_t DynamicSelector::Snapshot::delta_size() const { return delta_count_; }

const SimilaritySelector& DynamicSelector::Snapshot::main() const {
  return *state_->main;
}

PreparedQuery DynamicSelector::Snapshot::Prepare(
    std::string_view query) const {
  return state_->main->Prepare(query);
}

QueryResult DynamicSelector::Snapshot::Select(
    std::string_view query, double tau, AlgorithmKind kind,
    const SelectOptions& options) const {
  return SelectPrepared(state_->main->Prepare(query), tau, kind, options);
}

QueryResult DynamicSelector::Snapshot::SelectPrepared(
    const PreparedQuery& q, double tau, AlgorithmKind kind,
    const SelectOptions& options) const {
  WallTimer timer;
  const double clamped = internal::ClampTau(tau);
  const SimilaritySelector& main = *state_->main;
  // The main part, unmetered: the delta part joins it before the one flush.
  const obs::QueryTrace* run_trace = nullptr;
  QueryResult result =
      main.SelectUnmetered(q, clamped, kind, options, &run_trace);
  // The delta part runs only after a complete, OK main part: a failed
  // result's matches are cleared, and a tripped partial must not look
  // fuller than its termination admits.
  if (result.complete() && delta_count_ > 0) {
    dynamic_internal::SelectDelta(*state_->delta, 0, delta_count_, main, q,
                                  clamped, options, &result);
  }
  result.snapshot_version = version();
  internal::RecordQueryMetrics(kind, result,
                               static_cast<uint64_t>(timer.ElapsedMicros()),
                               run_trace);
  return result;
}

void DynamicSelector::Snapshot::PatchDelta(const PreparedQuery& q,
                                           double clamped_tau, uint32_t from,
                                           const SelectOptions& options,
                                           QueryResult* result) const {
  SIMSEL_CHECK(from <= delta_count_);
  dynamic_internal::SelectDelta(*state_->delta, from, delta_count_,
                                *state_->main, q, clamped_tau, options,
                                result);
  result->snapshot_version = version();
}

SetId DynamicSelector::AddRecord(std::string text) {
  std::lock_guard<std::mutex> lock(append_mu_);
  // The swap also runs under append_mu_, so the state is stable here.
  State* state = state_.load(std::memory_order_relaxed);
  DeltaRecord rec = dynamic_internal::Analyze(text, *state->main);
  rec.text = std::move(text);
  uint32_t pos = state->delta->Append(std::move(rec));
  SetId id = static_cast<SetId>(state->main->collection().size() + pos);
  // Release *after* the delta publish: an observer that reads the new
  // version and then queries is guaranteed to see the record.
  version_.fetch_add(1, std::memory_order_release);
  dynamic_internal::Metrics().records_added->Increment();
  return id;
}

size_t DynamicSelector::size() const { return snapshot().size(); }

size_t DynamicSelector::delta_size() const { return snapshot().delta_size(); }

std::string DynamicSelector::Snapshot::text(SetId id) const {
  SIMSEL_CHECK(id < size());
  const Collection& main = state_->main->collection();
  if (id < main.size()) return main.text(id);
  return state_->delta->record(static_cast<uint32_t>(id - main.size())).text;
}

std::string DynamicSelector::text(SetId id) const {
  return snapshot().text(id);
}

QueryResult DynamicSelector::Select(std::string_view query, double tau,
                                    AlgorithmKind kind,
                                    const SelectOptions& options) const {
  return snapshot().Select(query, tau, kind, options);
}

void DynamicSelector::Rebuild() {
  {
    std::unique_lock<std::mutex> lock(rebuild_mu_);
    rebuild_cv_.wait(lock, [this] { return !rebuild_running_; });
    rebuild_running_ = true;
  }
  DoRebuild();
  {
    // Notify under the mutex: a waiter (possibly ~DynamicSelector) may
    // destroy the condvar as soon as it observes !rebuild_running_, which
    // it can only do after this lock is released — i.e. after notify_all
    // has returned.
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    rebuild_running_ = false;
    rebuild_cv_.notify_all();
  }
}

bool DynamicSelector::StartRebuild(ThreadPool* pool) {
  SIMSEL_CHECK(pool != nullptr);
  {
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    if (rebuild_running_) return false;
    rebuild_running_ = true;
  }
  pool->Submit([this] {
    DoRebuild();
    // Notify under the mutex — see Rebuild() for the destruction race this
    // prevents.
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    rebuild_running_ = false;
    rebuild_cv_.notify_all();
  });
  return true;
}

void DynamicSelector::WaitForRebuild() const {
  std::unique_lock<std::mutex> lock(rebuild_mu_);
  rebuild_cv_.wait(lock, [this] { return !rebuild_running_; });
}

bool DynamicSelector::rebuild_in_progress() const {
  std::lock_guard<std::mutex> lock(rebuild_mu_);
  return rebuild_running_;
}

void DynamicSelector::DoRebuild() {
  // Phase 1 — snapshot every text at a delta cut d0. Brief: two pass-through
  // copies under the append lock.
  std::vector<std::string> texts;
  uint32_t fold_count = 0;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    const State* state = state_.load(std::memory_order_relaxed);
    fold_count = state->delta->count();
    const Collection& collection = state->main->collection();
    texts.reserve(collection.size() + fold_count);
    for (SetId i = 0; i < collection.size(); ++i) {
      texts.push_back(collection.text(i));
    }
    for (uint32_t pos = 0; pos < fold_count; ++pos) {
      texts.push_back(state->delta->record(pos).text);
    }
  }

  // Phase 2 — build the replacement main segment with no lock held: appends
  // and queries proceed against the old state for the whole build.
  State* next = BuildState(texts, /*base_version=*/0);

  // Phase 3 — swap. Under the append lock no new record can interleave, so
  // the records appended during the build ([fold_count, live_count)) are
  // carried into the new delta, re-analyzed against the new frozen
  // statistics (their token ids referred to the old dictionary).
  State* old = nullptr;
  {
    std::lock_guard<std::mutex> lock(append_mu_);
    old = state_.load(std::memory_order_relaxed);
    uint32_t live_count = old->delta->count();
    for (uint32_t pos = fold_count; pos < live_count; ++pos) {
      const DeltaRecord& carried = old->delta->record(pos);
      DeltaRecord rec = dynamic_internal::Analyze(carried.text, *next->main);
      rec.text = carried.text;
      next->delta->Append(std::move(rec));
    }
    // Version arithmetic keeps the counter strictly monotone across the
    // swap: the rebuild itself counts as one content change, records
    // folded into the main stop counting as delta, carried records keep
    // counting. old = base + live_count  →  new = old + 1.
    next->base_version = old->base_version + fold_count + 1;
    next->generation = old->generation + 1;
    state_.store(next, std::memory_order_seq_cst);
    version_.store(next->base_version + (live_count - fold_count),
                   std::memory_order_release);
  }

  // Phase 4 — the old generation drains under epoch protection: in-flight
  // queries pinned to it finish on the old segment, and the memory is freed
  // only after the last pin exits.
  epochs_.Retire([old] { delete old; });
  dynamic_internal::Metrics().rebuilds->Increment();
}

}  // namespace simsel
