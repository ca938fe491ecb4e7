#include "core/self_join.h"

#include <algorithm>
#include <mutex>
#include <numeric>

namespace simsel {

SelfJoinResult SelfJoin(const SimilaritySelector& selector, double tau,
                        const SelfJoinOptions& options) {
  SelfJoinResult result;
  const size_t n = selector.collection().size();

  auto probe = [&](SetId a) {
    PreparedQuery q = selector.Prepare(selector.collection().text(a));
    QueryResult r =
        selector.SelectPrepared(q, tau, options.algorithm, options.select);
    std::vector<JoinPair> out;
    for (const Match& m : r.matches) {
      if (m.id > a) out.push_back(JoinPair{a, m.id, m.score});
    }
    return std::make_pair(std::move(out), r.counters);
  };

  std::mutex mu;
  ParallelFor(options.pool, n, [&](size_t a) {
    auto [pairs, counters] = probe(static_cast<SetId>(a));
    std::lock_guard<std::mutex> lock(mu);
    result.pairs.insert(result.pairs.end(), pairs.begin(), pairs.end());
    result.counters.Merge(counters);
  });

  std::sort(result.pairs.begin(), result.pairs.end(),
            [](const JoinPair& x, const JoinPair& y) {
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return result;
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

std::vector<std::vector<SetId>> ClusterPairs(
    size_t num_records, const std::vector<JoinPair>& pairs) {
  UnionFind uf(num_records);
  for (const JoinPair& p : pairs) uf.Union(p.a, p.b);

  // Group members by root; roots are the smallest member of each cluster,
  // so ordering by root orders clusters by smallest member.
  std::vector<std::vector<SetId>> by_root(num_records);
  for (SetId i = 0; i < num_records; ++i) {
    by_root[uf.Find(i)].push_back(i);
  }
  std::vector<std::vector<SetId>> clusters;
  for (std::vector<SetId>& members : by_root) {
    if (members.size() >= 2) clusters.push_back(std::move(members));
  }
  return clusters;
}

}  // namespace simsel
