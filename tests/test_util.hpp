#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "check/generate.hpp"
#include "graph/graph.hpp"
#include "graph/grid.hpp"
#include "graph/mst.hpp"
#include "netlist/netlist.hpp"

namespace fpr::testing {

/// The one seed-derivation scheme shared by every suite: a per-suite FNV
/// salt mixed with the case index through splitmix64. Replaces the ad-hoc
/// `seed * 7 + 13`-style formulas that used to be copy-pasted per suite —
/// two suites iterating the same indices no longer correlate, and a seed
/// printed in a failure message names its suite unambiguously.
constexpr std::uint64_t seeded_rng(std::string_view suite, std::uint64_t index) {
  return check::mix64(check::salt64(suite), index);
}

/// Random connected weighted graph: a random spanning tree plus extra
/// random edges, integral weights in [1, max_weight]. Deterministic per
/// seed.
inline Graph random_connected_graph(NodeId nodes, EdgeId extra_edges, unsigned seed,
                                    int max_weight = 10) {
  std::mt19937_64 rng(seed);
  Graph g(nodes);
  std::uniform_int_distribution<int> weight_dist(1, max_weight);
  // Random spanning tree: attach each node i > 0 to a uniform predecessor.
  for (NodeId i = 1; i < nodes; ++i) {
    std::uniform_int_distribution<NodeId> pred(0, i - 1);
    g.add_edge(i, pred(rng), weight_dist(rng));
  }
  std::uniform_int_distribution<NodeId> any(0, nodes - 1);
  EdgeId added = 0;
  while (added < extra_edges) {
    const NodeId u = any(rng);
    const NodeId v = any(rng);
    if (u == v) continue;
    g.add_edge(u, v, weight_dist(rng));
    ++added;
  }
  return g;
}

/// k distinct random node ids in [0, nodes).
inline std::vector<NodeId> random_net(NodeId nodes, int pins, std::mt19937_64& rng) {
  std::vector<NodeId> net;
  std::uniform_int_distribution<NodeId> any(0, nodes - 1);
  while (static_cast<int>(net.size()) < pins) {
    const NodeId v = any(rng);
    bool fresh = true;
    for (const NodeId u : net) fresh = fresh && (u != v);
    if (fresh) net.push_back(v);
  }
  return net;
}

/// Brute-force graph minimal Steiner tree for tiny instances: the optimal
/// tree spans N plus some Steiner set S and is an MST of the subgraph
/// induced by N + S, so minimizing MST cost over all S is exact.
/// O(2^(V-|N|)) — keep V small.
inline Weight brute_force_gmst_cost(const Graph& g, const std::vector<NodeId>& net) {
  std::vector<NodeId> others;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.node_active(v) && std::find(net.begin(), net.end(), v) == net.end()) {
      others.push_back(v);
    }
  }
  Weight best = kInfiniteWeight;
  const std::uint64_t limit = 1ull << others.size();
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    std::vector<char> in_set(static_cast<std::size_t>(g.node_count()), 0);
    for (const NodeId t : net) in_set[static_cast<std::size_t>(t)] = 1;
    std::size_t node_total = net.size();
    for (std::size_t i = 0; i < others.size(); ++i) {
      if (mask & (1ull << i)) {
        in_set[static_cast<std::size_t>(others[i])] = 1;
        ++node_total;
      }
    }
    // MST of the induced subgraph; must span every chosen node.
    std::vector<EdgeId> pool;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (g.edge_usable(e) && in_set[static_cast<std::size_t>(g.edge(e).u)] &&
          in_set[static_cast<std::size_t>(g.edge(e).v)]) {
        pool.push_back(e);
      }
    }
    const auto mst = kruskal_mst_subgraph(g, pool);
    if (mst.size() + 1 != node_total) continue;  // induced subgraph disconnected
    best = std::min(best, edge_set_cost(g, mst));
  }
  return best;
}

/// A 2n x 2n circuit whose short nets cluster in the four quadrants of the
/// array: two- and three-pin nets along each quadrant's diagonals, so early
/// nets leave congestion for later ones to route around.
inline Circuit quadrant_circuit(int n) {
  Circuit c;
  c.name = "quadrants";
  c.rows = c.cols = 2 * n;
  for (int q = 0; q < 4; ++q) {
    const int bx = (q % 2) * n;
    const int by = (q / 2) * n;
    for (int i = 0; i + 1 < n; ++i) {
      c.nets.push_back({{bx + i, by + i}, {{bx + i + 1, by + i}, {bx + i, by + i + 1}}});
      c.nets.push_back({{bx + n - 1 - i, by + i}, {{bx + n - 1 - i, by + i + 1}}});
    }
  }
  return c;
}

}  // namespace fpr::testing
