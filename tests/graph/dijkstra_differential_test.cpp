// Differential pinning of the CSR/arena Dijkstra engine against the frozen
// pre-change engine (graph/dijkstra_reference.hpp): over random graphs and
// grid graphs, with node/edge removals, restores and weight mutations
// interleaved, dist/parent/parent_edge must be BIT-identical for both
// unbounded and radius-bounded runs.
//
// The `settled` flags are pinned up to the one documented semantic upgrade:
// when a bounded run exhausts the component, the old engine could still
// label it stopped-early (if a superseded heap entry above the limit
// survived to the top of its lazy-deletion queue) while the new engine
// reports it complete. In that case the old settled set must cover every
// reached node, so the two answers agree on every query.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "graph/budget.hpp"
#include "graph/dijkstra.hpp"
#include "graph/dijkstra_reference.hpp"
#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

/// Bitwise comparison via memcmp — EXPECT_EQ on double vectors would accept
/// -0.0 vs 0.0 and other value-equal-but-different encodings.
template <typename T>
void expect_bits_equal(const std::vector<T>& got, const std::vector<T>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0) << what;
  }
}

void expect_same_tree(const ShortestPathTree& got, const ShortestPathTree& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.inactive_targets, want.inactive_targets);
  expect_bits_equal(got.dist, want.dist, "dist");
  expect_bits_equal(got.parent, want.parent, "parent");
  expect_bits_equal(got.parent_edge, want.parent_edge, "parent_edge");

  if (want.complete()) {
    EXPECT_TRUE(got.complete());
  } else if (!got.complete()) {
    expect_bits_equal(got.settled, want.settled, "settled");
  } else {
    // Exhaustion upgrade: the new engine drained its heap, so the old
    // engine must have settled every node it ever reached — both trees
    // then answer every knows()/distance() query identically.
    for (NodeId v = 0; v < static_cast<NodeId>(want.dist.size()); ++v) {
      if (want.reached(v)) {
        EXPECT_TRUE(want.settled[static_cast<std::size_t>(v)] != 0)
            << "old engine stopped early without exhausting node " << v;
      }
    }
  }
}

/// One random mutation, mirrored on nothing — both engines read the same
/// graph, so mutations just need to hit every code path that feeds the
/// flat traversal-weight array. Weight 0 and dyadic quarter weights reach
/// the frontier queue's edge cases: equal-distance ties across many ids,
/// and keys that land below the last extracted one (a zero-weight edge to
/// a lower node id).
void mutate(Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> op(0, 7);
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  std::uniform_int_distribution<EdgeId> edge(0, g.edge_count() - 1);
  std::uniform_int_distribution<int> w(1, 10);
  std::uniform_int_distribution<int> quarters(0, 10);
  switch (op(rng)) {
    case 0: g.remove_edge(edge(rng)); break;
    case 1: g.restore_edge(edge(rng)); break;
    case 2: g.remove_node(node(rng)); break;
    case 3: g.restore_node(node(rng)); break;
    case 4: g.set_edge_weight(edge(rng), w(rng)); break;
    case 5: g.add_edge_weight(edge(rng), 1); break;
    case 6: g.set_edge_weight(edge(rng), 0); break;
    case 7: g.set_edge_weight(edge(rng), quarters(rng) * 0.25); break;
  }
}

void compare_runs(const Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  const NodeId source = node(rng);

  expect_same_tree(dijkstra(g, source), reference::dijkstra(g, source));

  // Scoped run with a random target set (possibly containing the source,
  // duplicates, and inactive nodes — all contract-relevant cases).
  std::uniform_int_distribution<int> tcount(1, 5);
  std::vector<NodeId> targets;
  for (int i = tcount(rng); i > 0; --i) targets.push_back(node(rng));
  if (tcount(rng) > 3) targets.push_back(targets.front());  // duplicate
  expect_same_tree(dijkstra_within(g, source, targets),
                   reference::dijkstra_within(g, source, targets));
}

class DijkstraDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DijkstraDifferentialTest, RandomGraphWithInterleavedMutations) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(testing::seeded_rng("dijkstra_differential/scoped", seed));
  std::uniform_int_distribution<NodeId> size(5, 80);
  const NodeId n = size(rng);
  std::uniform_int_distribution<EdgeId> extra(0, n * 2);
  Graph g = testing::random_connected_graph(n, extra(rng), seed);

  compare_runs(g, rng);
  for (int round = 0; round < 6; ++round) {
    for (int m = 0; m < 4; ++m) mutate(g, rng);
    compare_runs(g, rng);
  }
}

TEST_P(DijkstraDifferentialTest, GridGraphWithInterleavedMutations) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(testing::seeded_rng("dijkstra_differential/arena", seed));
  GridGraph grid(12 + static_cast<int>(seed % 5), 10 + static_cast<int>(seed % 7));
  Graph& g = grid.graph();

  compare_runs(g, rng);
  for (int round = 0; round < 5; ++round) {
    for (int m = 0; m < 6; ++m) mutate(g, rng);
    compare_runs(g, rng);
  }
}

// A run with a budget of k expansions settles exactly the first k nodes of
// the unbudgeted settle order, with bit-equal labels for them. All weights
// are positive quarter steps, so that order is the reached nodes sorted by
// (dist, id), many of them tied on distance.
TEST_P(DijkstraDifferentialTest, BudgetedRunSettlesAPrefixOfTheFullOrder) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(testing::seeded_rng("dijkstra_differential/budget", seed));
  std::uniform_int_distribution<NodeId> size(5, 80);
  const NodeId n = size(rng);
  std::uniform_int_distribution<EdgeId> extra(0, n * 2);
  Graph g = testing::random_connected_graph(n, extra(rng), seed);
  std::uniform_int_distribution<int> quarters(1, 10);
  for (EdgeId e = 0; e < g.edge_count(); ++e) g.set_edge_weight(e, quarters(rng) * 0.25);
  std::uniform_int_distribution<NodeId> node(0, n - 1);
  for (int m = 0; m < 3; ++m) g.remove_node(node(rng));
  const NodeId source = node(rng);

  const ShortestPathTree full = dijkstra(g, source);
  expect_same_tree(full, reference::dijkstra(g, source));
  std::vector<NodeId> order;
  for (NodeId v = 0; v < n; ++v) {
    if (full.reached(v)) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const Weight da = full.dist[static_cast<std::size_t>(a)];
    const Weight db = full.dist[static_cast<std::size_t>(b)];
    return da < db || (da == db && a < b);
  });

  const auto reached = static_cast<long long>(order.size());
  ShortestPathTree out;
  for (long long k = 1; k <= reached + 1; ++k) {
    WorkBudget budget{k};
    dijkstra(g, source, out, &budget);
    EXPECT_EQ(budget.used, std::min(k, reached)) << "k " << k;
    if (k >= reached) {
      EXPECT_FALSE(out.budget_aborted) << "k " << k;
      expect_same_tree(out, full);
      continue;
    }
    ASSERT_TRUE(out.budget_aborted) << "k " << k;
    ASSERT_EQ(out.settled.size(), static_cast<std::size_t>(n));
    std::vector<char> want(static_cast<std::size_t>(n), 0);
    for (long long i = 0; i < k; ++i) want[static_cast<std::size_t>(order[i])] = 1;
    expect_bits_equal(out.settled, want, "settled");
    for (long long i = 0; i < k; ++i) {
      const auto v = static_cast<std::size_t>(order[i]);
      EXPECT_EQ(std::memcmp(&out.dist[v], &full.dist[v], sizeof(Weight)), 0) << "node " << v;
      EXPECT_EQ(out.parent[v], full.parent[v]) << "node " << v;
      EXPECT_EQ(out.parent_edge[v], full.parent_edge[v]) << "node " << v;
    }
  }
}

// 100 random-graph instances + 100 grid instances, each compared at ~7
// mutation checkpoints for both unbounded and scoped runs, plus 100
// budget-prefix sweeps.
INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraDifferentialTest, ::testing::Range(0u, 100u));

TEST(DijkstraDifferentialTest, InactiveSourceMatches) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.remove_node(0);
  expect_same_tree(dijkstra(g, 0), reference::dijkstra(g, 0));
  const std::vector<NodeId> targets{2};
  expect_same_tree(dijkstra_within(g, 0, targets), reference::dijkstra_within(g, 0, targets));
}

TEST(DijkstraDifferentialTest, EqualWeightParentTieBreakMatches) {
  // Diamond with equal-cost paths: the deterministic (dist, id) tie-break
  // must pick the same parent in both engines.
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 3, 1);
  const auto got = dijkstra(g, 0);
  expect_same_tree(got, reference::dijkstra(g, 0));
  EXPECT_EQ(got.parent[3], 1);  // node 1 settles before node 2 at distance 1
}

}  // namespace
}  // namespace fpr
