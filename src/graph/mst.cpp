#include "graph/mst.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "graph/union_find.hpp"

namespace fpr {

namespace {

std::vector<EdgeId> kruskal_impl(const Graph& g, std::vector<EdgeId> pool) {
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::stable_sort(pool.begin(), pool.end(), [&](EdgeId a, EdgeId b) {
    const Weight wa = g.edge_weight(a);
    const Weight wb = g.edge_weight(b);
    return wa != wb ? wa < wb : a < b;
  });

  // Compact node ids so the union-find is sized to the subgraph, not |V|.
  std::unordered_map<NodeId, std::int32_t> compact;
  compact.reserve(pool.size() * 2);
  auto id_of = [&](NodeId v) {
    auto [it, inserted] = compact.emplace(v, static_cast<std::int32_t>(compact.size()));
    return it->second;
  };
  std::vector<std::pair<std::int32_t, std::int32_t>> ends;
  ends.reserve(pool.size());
  for (const EdgeId e : pool) {
    const Graph::Edge ed = g.edge(e);
    const std::int32_t a = id_of(ed.u);
    ends.emplace_back(a, id_of(ed.v));
  }

  UnionFind uf(static_cast<std::int32_t>(compact.size()));
  std::vector<EdgeId> mst;
  mst.reserve(compact.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (uf.unite(ends[i].first, ends[i].second)) mst.push_back(pool[i]);
  }
  return mst;
}

}  // namespace

std::vector<EdgeId> kruskal_mst_subgraph(const Graph& g, std::span<const EdgeId> edges) {
  std::vector<EdgeId> pool;
  pool.reserve(edges.size());
  for (const EdgeId e : edges) {
    if (g.edge_usable(e)) pool.push_back(e);
  }
  return kruskal_impl(g, std::move(pool));
}

std::vector<EdgeId> kruskal_mst(const Graph& g) {
  std::vector<EdgeId> pool;
  pool.reserve(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge_usable(e)) pool.push_back(e);
  }
  return kruskal_impl(g, std::move(pool));
}

Weight edge_set_cost(const Graph& g, std::span<const EdgeId> edges) {
  Weight sum = 0;
  for (const EdgeId e : edges) sum += g.edge_weight(e);
  return sum;
}

}  // namespace fpr
