#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "fpga/device.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

/// Brute-force ground truth for the O(1) running counters.
EdgeId scan_active_edge_count(const Graph& g) {
  EdgeId n = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge_usable(e)) ++n;
  }
  return n;
}

Weight scan_mean_active_edge_weight(const Graph& g) {
  Weight sum = 0;
  EdgeId n = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge_usable(e)) {
      sum += g.edge_weight(e);
      ++n;
    }
  }
  return n == 0 ? Weight{0} : sum / static_cast<Weight>(n);
}

TEST(GraphTest, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(GraphTest, ConstructorCreatesActiveNodes) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5);
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(g.node_active(v));
}

TEST(GraphTest, AddNodesReturnsFirstNewId) {
  Graph g(3);
  EXPECT_EQ(g.add_nodes(2), 3);
  EXPECT_EQ(g.node_count(), 5);
}

TEST(GraphTest, AddEdgeStoresEndpointsAndWeight) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2, 4.5);
  EXPECT_EQ(g.edge(e).u, 0);
  EXPECT_EQ(g.edge(e).v, 2);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 4.5);
  EXPECT_TRUE(g.edge_active(e));
}

TEST(GraphTest, OtherEndReturnsOppositeEndpoint) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1);
  EXPECT_EQ(g.other_end(e, 0), 1);
  EXPECT_EQ(g.other_end(e, 1), 0);
}

TEST(GraphTest, IncidentEdgesListsBothDirections) {
  Graph g(3);
  const EdgeId a = g.add_edge(0, 1, 1);
  const EdgeId b = g.add_edge(1, 2, 1);
  using Walk = std::vector<std::pair<NodeId, EdgeId>>;
  EXPECT_EQ(testing::walk_neighbors(g, 1), (Walk{{0, a}, {2, b}}));
  EXPECT_EQ(testing::walk_neighbors(g, 0), (Walk{{1, a}}));
}

TEST(GraphTest, RemoveEdgeMakesItUnusable) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1);
  g.remove_edge(e);
  EXPECT_FALSE(g.edge_active(e));
  EXPECT_FALSE(g.edge_usable(e));
  g.restore_edge(e);
  EXPECT_TRUE(g.edge_usable(e));
}

TEST(GraphTest, RemoveNodeMakesIncidentEdgesUnusable) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1, 1);
  const EdgeId e12 = g.add_edge(1, 2, 1);
  g.remove_node(1);
  EXPECT_FALSE(g.edge_usable(e01));
  EXPECT_FALSE(g.edge_usable(e12));
  EXPECT_TRUE(g.edge_active(e01));  // the edge itself was not touched
  g.restore_node(1);
  EXPECT_TRUE(g.edge_usable(e01));
}

TEST(GraphTest, WeightMutation) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 2.0);
  g.set_edge_weight(e, 5.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 5.0);
  g.add_edge_weight(e, 1.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 6.5);
}

TEST(GraphTest, RevisionBumpsOnEveryMutation) {
  Graph g(2);
  const auto r0 = g.revision();
  const EdgeId e = g.add_edge(0, 1, 1);
  const auto r1 = g.revision();
  EXPECT_GT(r1, r0);
  g.set_edge_weight(e, 2);
  EXPECT_GT(g.revision(), r1);
  const auto r2 = g.revision();
  g.remove_node(0);
  EXPECT_GT(g.revision(), r2);
}

TEST(GraphTest, ActiveEdgeCountSkipsRemovedElements) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const EdgeId e = g.add_edge(1, 2, 1);
  EXPECT_EQ(g.active_edge_count(), 2);
  g.remove_edge(e);
  EXPECT_EQ(g.active_edge_count(), 1);
  g.restore_edge(e);
  g.remove_node(2);
  EXPECT_EQ(g.active_edge_count(), 1);
}

TEST(GraphTest, MeanActiveEdgeWeight) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const EdgeId e = g.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 2.0);
  g.remove_edge(e);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 1.0);
}

TEST(GraphTest, MeanActiveEdgeWeightEmptyGraphIsZero) {
  Graph g(2);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 0.0);
}

TEST(GraphTest, RunningCountersMatchBruteScanUnderRandomMutations) {
  // The O(1) counters must agree with a fresh O(E) scan after every kind of
  // mutation, including redundant removes/restores.
  std::mt19937_64 rng(20260806);
  Graph g(20);
  std::uniform_int_distribution<NodeId> node(0, 19);
  std::uniform_int_distribution<int> weight(1, 10);
  for (int i = 0; i < 40; ++i) {
    NodeId u = node(rng), v = node(rng);
    if (u == v) continue;
    g.add_edge(u, v, weight(rng));
  }
  ASSERT_GT(g.edge_count(), 0);
  std::uniform_int_distribution<EdgeId> edge(0, g.edge_count() - 1);
  std::uniform_int_distribution<int> op(0, 6);
  for (int step = 0; step < 300; ++step) {
    switch (op(rng)) {
      case 0: g.remove_edge(edge(rng)); break;
      case 1: g.restore_edge(edge(rng)); break;
      case 2: g.remove_node(node(rng)); break;
      case 3: g.restore_node(node(rng)); break;
      case 4: g.set_edge_weight(edge(rng), weight(rng)); break;
      case 5: g.add_edge_weight(edge(rng), 2); break;
      case 6: g.add_edge(node(rng) == 0 ? 1 : 0, node(rng) == 19 ? 18 : 19, weight(rng)); break;
    }
    ASSERT_EQ(g.active_edge_count(), scan_active_edge_count(g)) << "step " << step;
    ASSERT_TRUE(weight_eq(g.mean_active_edge_weight(), scan_mean_active_edge_weight(g)))
        << "step " << step << ": " << g.mean_active_edge_weight() << " vs "
        << scan_mean_active_edge_weight(g);
  }
}

TEST(GraphTest, RedundantRemovesDoNotSkewCounters) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 4.0);
  g.remove_node(1);
  g.remove_node(1);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 0);
  g.restore_node(1);
  g.restore_node(1);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 2);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 3.0);
  const EdgeId e = 0;
  g.remove_edge(e);
  g.remove_edge(e);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 1);
  g.restore_edge(e);
  g.restore_edge(e);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 2);
}

TEST(GraphTest, StructuralRevisionIgnoresWeightAndActivity) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 1);
  const auto s0 = g.structural_revision();
  const auto r0 = g.revision();
  g.set_edge_weight(e, 2);
  g.add_edge_weight(e, 1);
  g.remove_edge(e);
  g.restore_edge(e);
  g.remove_node(2);
  g.restore_node(2);
  EXPECT_EQ(g.structural_revision(), s0);  // topology untouched
  EXPECT_GT(g.revision(), r0);             // but the total revision moved
  g.add_edge(1, 2, 1);
  EXPECT_GT(g.structural_revision(), s0);
  g.add_nodes(1);
  EXPECT_GT(g.structural_revision(), s0 + 1);
}

TEST(GraphTest, CsrSnapshotMatchesIncidentListsAndSurvivesWeightMutation) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 3);
  g.add_edge(0, 3, 4);
  // Each node's slice lists exactly what an ascending scan of the endpoint
  // store finds, in that order.
  const auto expect_matches_scan = [&](const CsrAdjacency& csr) {
    ASSERT_EQ(csr.offsets.size(), static_cast<std::size_t>(g.node_count()) + 1);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto want = testing::scan_neighbors(g, v);
      const auto begin = static_cast<std::size_t>(csr.offsets[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(csr.offsets[static_cast<std::size_t>(v) + 1]);
      ASSERT_EQ(end - begin, want.size()) << "node " << v;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(csr.neighbor[begin + i], want[i].first) << "node " << v;
        EXPECT_EQ(csr.edge_id[begin + i], want[i].second) << "node " << v;
      }
    }
  };
  const CsrAdjacency& csr = g.csr();
  const CsrAdjacency* built = &csr;
  expect_matches_scan(csr);
  const std::uint64_t structure = g.structural_revision();
  // Weight and usability mutations live in the per-edge store only.
  g.set_edge_weight(0, 2.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.5);
  g.remove_node(0);
  EXPECT_FALSE(g.edge_usable(0));
  EXPECT_FALSE(g.edge_usable(3));
  g.restore_node(0);
  EXPECT_TRUE(g.edge_usable(0));
  EXPECT_TRUE(g.edge_usable(3));
  g.add_edge_weight(0, 0.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 3.0);
  g.remove_edge(0);
  EXPECT_FALSE(g.edge_usable(0));
  g.set_edge_weight(0, 7.0);  // weight mutation while unusable
  g.restore_edge(0);
  EXPECT_TRUE(g.edge_usable(0));
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 7.0);
  g.set_edge_weight(0, 9);
  g.remove_node(2);
  // None of that rebuilt the snapshot; adding an edge must.
  EXPECT_EQ(g.structural_revision(), structure);
  EXPECT_EQ(&g.csr(), built);
  const auto id_before = g.csr().edge_id;
  g.add_edge(1, 3, 1);
  EXPECT_GT(g.structural_revision(), structure);
  EXPECT_NE(g.csr().edge_id, id_before);
  EXPECT_EQ(g.csr().edge_id.size(), id_before.size() + 2);
  expect_matches_scan(g.csr());
  // The rebuilt snapshot leaves the state alone.
  EXPECT_FALSE(g.edge_usable(1));
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 9.0);
}

/// Walks every node of `g`, checking each walk against the endpoint scan
/// while the callback raises every visited edge's weight by one, removes
/// every third visited edge and every fifth visited neighbor — the
/// mutations a router makes mid-walk.
void expect_walks_match_scan_under_mutation(Graph& g) {
  std::vector<Weight> before(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) before[static_cast<std::size_t>(e)] = g.edge_weight(e);
  int visits = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto want = testing::scan_neighbors(g, v);
    std::vector<std::pair<NodeId, EdgeId>> got;
    g.for_each_incident(v, [&](NodeId nbr, EdgeId e) {
      got.emplace_back(nbr, e);
      g.add_edge_weight(e, 1);
      ++visits;
      if (visits % 3 == 0) g.remove_edge(e);
      if (visits % 5 == 0) g.remove_node(nbr);
    });
    ASSERT_EQ(got, want) << "node " << v;
  }
  // Each edge was visited once from each end, and nothing was cached.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(g.edge_weight(e), before[static_cast<std::size_t>(e)] + 2) << "edge " << e;
  }
  EXPECT_EQ(g.active_edge_count(), scan_active_edge_count(g));
  // Removed edges are still walked (the walk filters nothing).
  EXPECT_EQ(testing::walk_neighbors(g, 0), testing::scan_neighbors(g, 0));
}

TEST(GraphTest, ForEachIncidentMatchesEndpointScanUnderMutation) {
  {
    // Materialized, with add_edge calls interleaved across nodes, in both
    // endpoint orders, and a node added between edges.
    Graph g(4);
    g.add_edge(3, 1, 1);
    g.add_edge(0, 2, 2);
    g.add_edge(1, 0, 3);
    const NodeId late = g.add_nodes(1);
    g.add_edge(late, 2, 4);
    g.add_edge(2, 3, 5);
    g.add_edge(1, late, 6);
    g.add_edge(0, 3, 7);
    ASSERT_FALSE(g.tiled());
    expect_walks_match_scan_under_mutation(g);
  }
  {
    Device device(ArchSpec::xc4000(7, 7, 4));  // stamped from the tile template
    ASSERT_TRUE(device.graph().tiled());
    expect_walks_match_scan_under_mutation(device.graph());
  }
  {
    // A structural edit, even an empty one, drops the template: the walk
    // now reads the CSR, over the same ids in the same order.
    Device device(ArchSpec::xc4000(7, 7, 4));
    Graph& g = device.graph();
    ASSERT_TRUE(g.tiled());
    g.add_nodes(0);
    ASSERT_FALSE(g.tiled());
    expect_walks_match_scan_under_mutation(g);
  }
}

/// A one-cell template whose `tracks` give every node its own pattern, so
/// each node's slot list is spelled out directly as (neighbor, edge) pairs.
std::shared_ptr<TiledTopology> per_node_topology(
    const std::vector<std::vector<std::pair<NodeId, EdgeId>>>& adjacency, EdgeId edge_count) {
  auto topo = std::make_shared<TiledTopology>();
  TiledRole role;
  role.tracks = static_cast<std::int32_t>(adjacency.size());
  role.xdim = 1;
  role.ydim = 1;
  role.xclasses = 1;
  role.yclasses = 1;
  for (const auto& slots : adjacency) {
    role.pattern_first.push_back(static_cast<std::uint32_t>(topo->slots.size()));
    role.pattern_count.push_back(static_cast<std::uint32_t>(slots.size()));
    for (const auto& [nbr, e] : slots) {
      TiledSlot slot;
      slot.nbr_base = nbr;
      slot.edge_base = e;
      topo->slots.push_back(slot);
    }
  }
  topo->roles.push_back(role);
  topo->node_count = role.count();
  topo->edge_count = edge_count;
  return topo;
}

TEST(GraphTest, FromTiledStoresBothEndpoints) {
  // Path 0 - 1 - 2 with a chord 0 - 2.
  const Graph g = Graph::from_tiled(
      per_node_topology({{{1, 0}, {2, 1}}, {{0, 0}, {2, 2}}, {{0, 1}, {1, 2}}}, 3));
  ASSERT_TRUE(g.tiled());
  const NodeId want[3][2] = {{0, 1}, {0, 2}, {1, 2}};
  for (EdgeId e = 0; e < 3; ++e) {
    EXPECT_EQ(g.edge(e).u, want[e][0]) << "edge " << e;
    EXPECT_EQ(g.edge(e).v, want[e][1]) << "edge " << e;
    EXPECT_EQ(g.other_end(e, want[e][0]), want[e][1]);
    EXPECT_TRUE(g.edge_usable(e));
  }
  EXPECT_EQ(g.active_edge_count(), 3);
}

TEST(GraphTest, FromTiledRejectsAnEdgeEmittedTwiceByAnUpperEndpoint) {
  // Edges {0,1} and {0,2}: node 2 emits edge 0 instead of edge 1, so edge 0
  // has two upper emitters and edge 1 none — yet the slot total is still
  // exactly two per edge.
  EXPECT_THROW(
      Graph::from_tiled(per_node_topology({{{1, 0}, {2, 1}}, {{0, 0}}, {{0, 0}}}, 2)),
      ContractViolation);
  // An edge whose upper endpoint never emits it is rejected too.
  EXPECT_THROW(Graph::from_tiled(per_node_topology({{{1, 0}, {2, 1}}, {{0, 0}}, {}}, 2)),
               ContractViolation);
  // So is an upper emission that names a different lower endpoint.
  EXPECT_THROW(
      Graph::from_tiled(per_node_topology({{{1, 0}}, {{0, 0}, {2, 1}}, {{0, 1}, {0, 0}}}, 2)),
      ContractViolation);
}

TEST(GraphTest, CopyAndMoveKeepCountersAndRebuildCsr) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 4.0);
  g.remove_node(2);
  (void)g.csr();
  Graph copy = g;
  EXPECT_EQ(copy.active_edge_count(), 1);
  EXPECT_DOUBLE_EQ(copy.mean_active_edge_weight(), 2.0);
  EXPECT_EQ(copy.csr().edge_id.size(), 4u);
  Graph moved = std::move(copy);
  EXPECT_EQ(moved.active_edge_count(), 1);
  EXPECT_EQ(moved.csr().offsets.size(), 4u);
  moved.add_edge(0, 2, 1.0);  // structurally mutate the moved-to graph
  EXPECT_EQ(moved.csr().edge_id.size(), 6u);
  EXPECT_EQ(g.csr().edge_id.size(), 4u);  // source unaffected
}

TEST(WeightCompareTest, ExactEquality) {
  EXPECT_TRUE(weight_eq(1.0, 1.0));
  EXPECT_TRUE(weight_eq(kInfiniteWeight, kInfiniteWeight));
  EXPECT_FALSE(weight_eq(1.0, 2.0));
}

TEST(WeightCompareTest, ToleratesRoundoff) {
  const Weight a = 0.1 + 0.2;
  EXPECT_TRUE(weight_eq(a, 0.3));
  EXPECT_FALSE(weight_lt(a, 0.3));
  EXPECT_FALSE(weight_lt(0.3, a));
  EXPECT_TRUE(weight_lt(0.3, 0.31));
}

TEST(WeightCompareTest, ScalesWithMagnitude) {
  // Relative tolerance: at 1e12 the slack is ~1e3, so +1 matches, +1e4 not.
  EXPECT_TRUE(weight_eq(1e12, 1e12 + 1.0));
  EXPECT_FALSE(weight_eq(1e12, 1e12 + 1e4));
}

TEST(WeightCompareTest, InfinityNeverEqualsFinite) {
  EXPECT_FALSE(weight_eq(2.0, kInfiniteWeight));
  EXPECT_FALSE(weight_eq(kInfiniteWeight, 2.0));
  EXPECT_TRUE(weight_lt(2.0, kInfiniteWeight));
  EXPECT_FALSE(weight_lt(kInfiniteWeight, 2.0));
}

}  // namespace
}  // namespace fpr
