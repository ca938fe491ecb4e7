#include "sketch/prefilter.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/internal.h"
#include "index/inverted_index.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace simsel::sketch {

namespace {

// Handles resolved once; all hot-path updates are relaxed atomics.
struct PrefilterMetrics {
  obs::Counter* engaged;
  obs::Counter* fallthrough;
  obs::Counter* admitted;
  obs::Counter* fp;
  obs::Histogram* route_usec;
  obs::Histogram* probe_usec;
  obs::Histogram* verify_usec;
};

const PrefilterMetrics& Metrics() {
  static const PrefilterMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto stage = [&reg](const char* name) {
      return reg.GetHistogram("simsel_prefilter_stage_latency_usec",
                              obs::LabelPair("stage", name));
    };
    return PrefilterMetrics{
        reg.GetCounter("simsel_prefilter_engaged_total"),
        reg.GetCounter("simsel_prefilter_fallthrough_total"),
        reg.GetCounter("simsel_prefilter_admitted_total"),
        reg.GetCounter("simsel_prefilter_fp_total"),
        stage("route"), stage("probe"), stage("verify")};
  }();
  return m;
}

// Smallest count of (descending-weight) query tokens whose mass reaches
// `required`; 0 when even the full query cannot. `prefix` is the prefix-sum
// array of the weights sorted descending.
uint32_t MinIntersection(const std::vector<double>& prefix, double required) {
  const auto it = std::lower_bound(prefix.begin(), prefix.end(), required);
  if (it == prefix.end()) return 0;
  return static_cast<uint32_t>(it - prefix.begin()) + 1;
}

// Jaccard lower bound over any answer sharing >= m tokens with a query of
// q_size distinct tokens against a set of at most set_size tokens.
double JaccardLowerBound(uint32_t m, size_t q_size, uint32_t set_size) {
  const double denom = static_cast<double>(q_size) + set_size - m;
  return denom <= 0.0 ? 1.0 : m / denom;
}

// Largest collision count c such that a true answer (per-band collision
// probability >= p) still lands in at least c of `bands` bands with
// probability >= 1 - delta: the binomial lower tail P(X <= c-1) stays
// within delta. Requiring c > 1 matches filters banding noise — whose hit
// counts concentrate near b * p_noise — before the signature screen.
uint32_t MinCollisions(uint32_t bands, double p, double delta) {
  if (p <= 0.0 || p >= 1.0) return 1;
  uint32_t c = 1;
  double pmf = std::pow(1.0 - p, bands);  // P(X = i), starting at i = 0
  double tail = pmf;                      // P(X <= i)
  for (uint32_t i = 0; c < 8 && i + 1 <= bands; ++i) {
    pmf *= (static_cast<double>(bands - i) / (i + 1)) * (p / (1.0 - p));
    tail += pmf;  // now P(X <= i + 1)
    if (tail > delta) break;
    c = i + 2;  // requiring c collisions misses with P(X <= c-1) <= delta
  }
  return c;
}

}  // namespace

bool DeltaScreen::Admits(const uint64_t* sig, float length,
                         size_t set_size) const {
  if (!active_) return true;
  // Theorem 1 window and the impossible-intersection tests are
  // deterministic rejections; only the final signature comparison spends
  // the per-record δ budget.
  if (length < win_lo_ || length > win_hi_) return false;
  const double required =
      tau_ * length * q_length_ * (1.0 - internal::kPruneSlack);
  if (required > total_) return false;
  const uint32_t m = MinIntersection(prefix_, required);
  if (m == 0) return true;  // requirement vacuous; nothing to reject on
  if (m > q_size_ || m > set_size) return false;
  const double j_min = JaccardLowerBound(m, q_size_, set_size);
  if (j_min <= epsilon_) return true;  // slack swallows the bound
  const uint32_t k = static_cast<uint32_t>(qsig_.size());
  return SignatureAdmits(qsig_.data(), sig, k, (j_min - epsilon_) * k - 1e-9);
}

void SortBandTable(BandEntry* entries, size_t n,
                   std::vector<BandEntry>* scratch) {
  if (n < 2) return;
  // Keys are hashes, so bit_width(n) top bits spread the entries about one
  // per bucket; the cap keeps the histogram (256 KiB) in L2.
  const int bits = std::min(16, static_cast<int>(std::bit_width(n - 1)));
  const int shift = 64 - bits;
  const size_t num_buckets = size_t{1} << bits;
  // next[d] starts as bucket d's first slot and ends past its last.
  std::vector<uint32_t> next(num_buckets + 1, 0);
  for (size_t i = 0; i < n; ++i) ++next[(entries[i].key >> shift) + 1];
  for (size_t d = 1; d <= num_buckets; ++d) next[d] += next[d - 1];
  scratch->resize(n);
  BandEntry* out = scratch->data();
  for (size_t i = 0; i < n; ++i) {
    out[next[entries[i].key >> shift]++] = entries[i];
  }
  std::copy(out, out + n, entries);
  // The scatter was stable, so each bucket holds its entries in input
  // order; ordering it by (key, row) completes the sort.
  constexpr size_t kInsertionSortMax = 32;
  for (size_t d = 0, lo = 0; d < num_buckets; ++d) {
    BandEntry* first = entries + lo;
    BandEntry* last = entries + next[d];
    lo = next[d];
    if (last - first > static_cast<ptrdiff_t>(kInsertionSortMax)) {
      std::sort(first, last);
      continue;
    }
    for (BandEntry* i = first + 1; i < last; ++i) {
      const BandEntry e = *i;
      BandEntry* j = i;
      for (; j > first && e < *(j - 1); --j) *j = *(j - 1);
      *j = e;
    }
  }
}

std::unique_ptr<Prefilter> Prefilter::Build(const IdfMeasure& measure,
                                            const SketchParams& params,
                                            const uint64_t* signatures,
                                            SetId begin, SetId end,
                                            ThreadPool* pool,
                                            uint32_t partitions,
                                            uint32_t buckets) {
  if (!params.valid() || signatures == nullptr || end <= begin) return nullptr;
  std::unique_ptr<Prefilter> pf(new Prefilter());
  pf->measure_ = &measure;
  pf->params_ = params;
  pf->sigs_ = signatures;
  pf->begin_ = begin;
  pf->num_sets_ = end - begin;
  pf->seeds_ = ComponentSeeds(params);
  pf->epsilon_ = AdmissionEpsilon(params);
  pf->j_engage_ = EngageThreshold(params);
  pf->router_ = PartitionRouter::Build(measure, begin, end, partitions, buckets);

  // Pass 1, row-major: every band key of a signature row while the row is
  // in cache, each written to its band's table in row order.
  const size_t n = pf->num_sets_;
  const uint32_t bands = params.bands;
  pf->bands_.reset(new BandEntry[static_cast<size_t>(bands) * n]);
  BandEntry* tables = pf->bands_.get();
  ParallelFor(pool, n, [&](size_t row) {
    const uint64_t* sig = signatures + row * params.k;
    const float len = measure.set_length(begin + static_cast<SetId>(row));
    for (uint32_t b = 0; b < bands; ++b) {
      tables[b * n + row] = {BandKey(sig, b, params.rows),
                             static_cast<uint32_t>(row), len};
    }
  });
  // Pass 2: sort each band, one contiguous slice of bands per worker so a
  // worker reuses its scratch.
  const size_t slices =
      pool == nullptr ? 1 : std::min<size_t>(pool->num_threads(), bands);
  ParallelFor(pool, slices, [&](size_t w) {
    std::vector<BandEntry> scratch;
    for (size_t b = w * bands / slices; b < (w + 1) * bands / slices; ++b) {
      SortBandTable(tables + b * n, n, &scratch);
    }
  });
  return pf;
}

// Working state shared by PlanFor and TrySelect: everything the two-phase
// engage gate derives, kept off the Plan struct so the hot path reuses the
// prefix-sum buffer for per-candidate admission.
struct Prefilter::Gate {
  Plan plan;
  internal::LengthWindow win;
  std::vector<double> prefix;  // descending weights, prefix-summed
  PartitionRouter::Route route;
  double total = 0.0;
  double tau = 0.0;
};

void Prefilter::RunGate(const PreparedQuery& q, double tau, Gate* gate) const {
  Plan& plan = gate->plan;
  plan.j_engage = j_engage_;
  plan.epsilon = epsilon_;
  gate->tau = internal::ClampTau(tau);
  if (q.tokens.empty() || q.length <= 0.0) return;  // fall through

  // Phase A: query-local bounds only (no routing work yet).
  gate->win = internal::ComputeLengthWindow(q, gate->tau, /*enabled=*/true);
  gate->prefix.assign(q.weights.begin(), q.weights.end());
  std::sort(gate->prefix.begin(), gate->prefix.end(), std::greater<double>());
  double running = 0.0;
  for (double& w : gate->prefix) {
    running += w;
    w = running;
  }
  gate->total = running;
  const double required =
      gate->tau * gate->win.lo * q.length * (1.0 - internal::kPruneSlack);
  if (gate->total < required) {
    // Even a full-overlap set falls short of τ: provably no answers.
    plan.engaged = plan.empty = true;
    return;
  }
  plan.m_min = MinIntersection(gate->prefix, required);
  if (plan.m_min == 0) plan.m_min = 1;  // an answer shares >= 1 token
  const uint32_t size_below = router_.MaxSetSizeBelow(gate->win.hi);
  if (size_below == 0 || plan.m_min > size_below) {
    plan.engaged = plan.empty = true;  // window empty or intersection impossible
    return;
  }
  plan.max_set_size = size_below;
  plan.j_min = JaccardLowerBound(plan.m_min, q.tokens.size(), size_below);

  // Routing can shrink the set-size bound to at best m_min tokens, which
  // caps the achievable bound at m_min / |q|. Below the gate even that
  // best case falls through, so skip the routing work outright.
  if (JaccardLowerBound(plan.m_min, q.tokens.size(), plan.m_min) < j_engage_) {
    return;
  }

  // Phase B: partition routing, then re-check with the tightened size
  // bound. Run it even when Phase A's bound falls short of the gate:
  // Phase A's set-size bound is corpus-global over the window, and the few
  // partitions that actually admit a τ-match usually carry a much smaller
  // maximum — routing costs O(|q| + partitions · buckets) and frequently
  // rescues the engagement.
  gate->route = router_.RouteQuery(q, gate->tau, gate->win.lo, gate->win.hi);
  const PartitionRouter::Route& route = gate->route;
  plan.total_partitions = route.total;
  plan.admitted_partitions = route.admitted;
  if (!route.any) {
    plan.engaged = plan.empty = true;  // every partition excluded soundly
    return;
  }
  // A partition straddling win.hi can carry its max size from a set beyond
  // the window, so the two bounds are independently valid: take the min.
  plan.max_set_size = std::min(size_below, route.max_set_size);
  plan.j_min = JaccardLowerBound(plan.m_min, q.tokens.size(), plan.max_set_size);
  plan.engaged = plan.j_min >= j_engage_;
}

Prefilter::Plan Prefilter::PlanFor(const PreparedQuery& q, double tau) const {
  Gate gate;
  RunGate(q, tau, &gate);
  return gate.plan;
}

bool Prefilter::TrySelect(const PreparedQuery& q, double tau,
                          const SelectOptions& options,
                          QueryResult* result) const {
  obs::TraceScope tier_span(options.trace, "prefilter");
  Gate gate;
  {
    WallTimer route_timer;
    obs::TraceScope span(options.trace, "route");
    RunGate(q, tau, &gate);
    Metrics().route_usec->Observe(
        static_cast<uint64_t>(route_timer.ElapsedMicros()));
  }
  if (!gate.plan.engaged) {
    Metrics().fallthrough->Increment();
    return false;
  }
  Metrics().engaged->Increment();
  if (gate.plan.empty) {
    result->counters.results = 0;
    return true;  // engaged with a proof of emptiness
  }

  internal::ControlPoller poller(options.control, result->counters);
  const uint32_t k = params_.k;
  const uint32_t rows = params_.rows;
  std::vector<uint64_t> qsig(k);
  std::vector<uint32_t> candidates;
  bool tripped = false;
  {
    WallTimer probe_timer;
    obs::TraceScope span(options.trace, "probe");
    ComputeSignature(q.tokens.data(), q.tokens.size(), seeds_, qsig.data());
    // A true answer collides with the query in any one band with probability
    // at least j_min^rows, so across b bands its hit count is at least
    // Bin(b, j_min^rows). The engage gate guarantees one hit within δ at
    // j_engage over the full table; when the plan proves a higher j_min the
    // same budget buys slack, spent one of two ways: require several hits
    // (filters banding noise ahead of the signature screen) or, when only
    // one hit is affordable, probe ceil(ln δ / ln(1 - j_min^rows)) bands
    // instead of all of them.
    uint32_t probe_bands = params_.bands;
    const double p_band = std::pow(std::min(gate.plan.j_min, 1.0),
                                   static_cast<double>(rows));
    const uint32_t min_collisions =
        MinCollisions(params_.bands, p_band, params_.miss_bound);
    if (min_collisions == 1) {
      if (p_band >= 1.0) {
        probe_bands = 1;
      } else if (p_band > 0.0) {
        const double needed =
            std::ceil(std::log(params_.miss_bound) / std::log1p(-p_band));
        if (needed >= 1.0 && needed < probe_bands) {
          probe_bands = static_cast<uint32_t>(needed);
        }
      }
    }
    for (uint32_t b = 0; b < probe_bands; ++b) {
      if (poller.ShouldStop()) {
        tripped = true;
        break;
      }
      ++result->counters.hash_probes;
      const uint64_t key = BandKey(qsig.data(), b, rows);
      const BandEntry* table =
          bands_.get() + static_cast<size_t>(b) * num_sets_;
      const BandEntry* table_end = table + num_sets_;
      const BandEntry* it =
          std::lower_bound(table, table_end, BandEntry{key, 0, 0.0f});
      for (; it != table_end && it->key == key; ++it) {
        ++result->counters.candidate_scan_steps;
        // Screen by the deterministic length window and partition mask
        // before dedup: the length rides in the table entry, so the bulk
        // of the banding noise never reaches the sort.
        if (!gate.win.Contains(it->len) ||
            gate.route.mask[router_.PartitionOf(it->len)] == 0) {
          ++result->counters.candidate_prunes;
          continue;
        }
        candidates.push_back(it->row);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    // Dedup, keeping only rows that collided in >= min_collisions bands.
    // Screens are per-set deterministic, so a row's hits all survive to
    // here or none do — the count is an honest sample of Bin(b, j).
    size_t out = 0;
    for (size_t i = 0; i < candidates.size();) {
      size_t j = i;
      while (j < candidates.size() && candidates[j] == candidates[i]) ++j;
      if (j - i >= min_collisions) {
        candidates[out++] = candidates[i];
      } else {
        ++result->counters.candidate_prunes;
      }
      i = j;
    }
    candidates.resize(out);
    result->counters.candidate_inserts += candidates.size();
    span.SetItems(candidates.size());
    Metrics().probe_usec->Observe(
        static_cast<uint64_t>(probe_timer.ElapsedMicros()));
  }

  const Collection& collection = measure_->collection();
  uint64_t admitted = 0;
  uint64_t false_positives = 0;
  {
    WallTimer verify_timer;
    obs::TraceScope span(options.trace, "verify");
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((i & 63) == 0 && poller.ShouldStop()) {
        tripped = true;
        break;
      }
      // Window and partition-mask screening already happened at probe time,
      // so every surviving candidate is length-admissible.
      const SetId id = begin_ + candidates[i];
      const float len = measure_->set_length(id);
      const size_t set_size = collection.set(id).tokens.size();
      // Tighten m to this candidate's own length: an answer of length `len`
      // needs intersection mass >= τ·len·len(q).
      const double required =
          gate.tau * len * q.length * (1.0 - internal::kPruneSlack);
      const uint32_t m = MinIntersection(gate.prefix, required);
      if (m == 0 || m > q.tokens.size() || m > set_size) {
        ++result->counters.candidate_prunes;  // intersection impossible
        continue;
      }
      const double j_min = JaccardLowerBound(m, q.tokens.size(),
                                             static_cast<uint32_t>(set_size));
      ++result->counters.hash_probes;
      const uint64_t* sig = sigs_ + static_cast<size_t>(candidates[i]) * k;
      if (!SignatureAdmits(qsig.data(), sig, k,
                           (j_min - epsilon_) * k - 1e-9)) {
        ++result->counters.candidate_prunes;
        continue;
      }
      ++admitted;
      ++result->counters.rows_scanned;
      const double score = measure_->Score(q, id);
      if (score >= gate.tau) {
        result->matches.push_back(Match{id, score});
      } else {
        ++false_positives;
      }
    }
    span.SetItems(result->matches.size());
    Metrics().verify_usec->Observe(
        static_cast<uint64_t>(verify_timer.ElapsedMicros()));
  }
  Metrics().admitted->Increment(admitted);
  Metrics().fp->Increment(false_positives);
  if (tripped) result->termination = poller.termination();
  // Candidates are scanned in ascending row order and ids are begin_ + row,
  // so the canonical ascending-id order holds; sort anyway for uniformity.
  internal::SortMatches(&result->matches);
  result->counters.results = result->matches.size();
  return true;
}

DeltaScreen Prefilter::MakeDeltaScreen(const PreparedQuery& q,
                                       double tau) const {
  DeltaScreen screen;
  if (q.tokens.empty() || q.length <= 0.0) return screen;
  screen.tau_ = internal::ClampTau(tau);
  const internal::LengthWindow win =
      internal::ComputeLengthWindow(q, screen.tau_, /*enabled=*/true);
  screen.win_lo_ = win.lo;
  screen.win_hi_ = win.hi;
  screen.prefix_.assign(q.weights.begin(), q.weights.end());
  std::sort(screen.prefix_.begin(), screen.prefix_.end(),
            std::greater<double>());
  double running = 0.0;
  for (double& w : screen.prefix_) {
    running += w;
    w = running;
  }
  screen.total_ = running;
  screen.q_length_ = q.length;
  screen.q_size_ = q.tokens.size();
  screen.epsilon_ = epsilon_;
  screen.qsig_.resize(params_.k);
  ComputeSignature(q.tokens.data(), q.tokens.size(), seeds_,
                   screen.qsig_.data());
  screen.active_ = true;
  return screen;
}

std::unique_ptr<Prefilter> AttachPrefilter(const IdfMeasure& measure,
                                           const InvertedIndex& index) {
  if (!index.has_sketches()) return nullptr;
  const SetId begin = index.sketch_begin();
  std::unique_ptr<ThreadPool> pool =
      MakeBuildPool(index.options(), index.total_postings());
  return Prefilter::Build(measure, index.sketch_params(),
                          index.sketch_signatures(), begin,
                          begin + static_cast<SetId>(index.sketch_num_sets()),
                          pool.get());
}

size_t Prefilter::DerivedBytes() const {
  return seeds_.size() * sizeof(uint64_t) + router_.SizeBytes() +
         static_cast<size_t>(params_.bands) * num_sets_ * sizeof(BandEntry);
}

}  // namespace simsel::sketch
