#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "graph/dijkstra_reference.hpp"
#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

TEST(DijkstraTest, SingleNode) {
  Graph g(1);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(0), 0);
  EXPECT_TRUE(spt.reached(0));
}

TEST(DijkstraTest, SimplePath) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 5);
  EXPECT_EQ(spt.parent[2], 1);
  EXPECT_EQ(spt.parent[1], 0);
}

TEST(DijkstraTest, PrefersCheaperDetour) {
  Graph g(3);
  g.add_edge(0, 2, 10);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 2);
  EXPECT_EQ(spt.parent[2], 1);
}

TEST(DijkstraTest, UnreachableNodeHasInfiniteDistance) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const auto spt = dijkstra(g, 0);
  EXPECT_FALSE(spt.reached(2));
  EXPECT_EQ(spt.distance(2), kInfiniteWeight);
  EXPECT_EQ(spt.parent[2], kInvalidNode);
}

TEST(DijkstraTest, SkipsRemovedEdges) {
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2, 1);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.remove_edge(direct);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 4);
}

TEST(DijkstraTest, SkipsRemovedNodes) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(0, 2, 3);
  g.add_edge(2, 3, 3);
  g.remove_node(1);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(3), 6);
  EXPECT_FALSE(spt.reached(1));
}

TEST(DijkstraTest, InactiveSourceReachesNothing) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  g.remove_node(0);
  const auto spt = dijkstra(g, 0);
  EXPECT_FALSE(spt.reached(0));
  EXPECT_FALSE(spt.reached(1));
}

TEST(DijkstraTest, PathEdgesReconstructShortestPath) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(0, 3, 10);
  const auto spt = dijkstra(g, 0);
  const auto edges = spt.path_edges_to(3);
  ASSERT_EQ(edges.size(), 3u);
  Weight sum = 0;
  for (const EdgeId e : edges) sum += g.edge_weight(e);
  EXPECT_DOUBLE_EQ(sum, spt.distance(3));
  const auto nodes = spt.path_nodes_to(3);
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes.front(), 0);
  EXPECT_EQ(nodes.back(), 3);
}

TEST(DijkstraTest, PathToUnreachableNodeIsEmpty) {
  // Regression: in Release builds the old assert compiled out and the
  // parent walk indexed with kInvalidNode (infinite loop / OOB read).
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  const auto spt = dijkstra(g, 0);
  ASSERT_FALSE(spt.reached(3));
  EXPECT_TRUE(spt.path_edges_to(3).empty());
  EXPECT_TRUE(spt.path_nodes_to(3).empty());
}

TEST(DijkstraTest, PathToInactiveNodeIsEmpty) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.remove_node(2);
  const auto spt = dijkstra(g, 0);
  ASSERT_FALSE(spt.reached(2));
  EXPECT_TRUE(spt.path_edges_to(2).empty());
  EXPECT_TRUE(spt.path_nodes_to(2).empty());
}

TEST(DijkstraTest, ReuseOverloadMatchesByValue) {
  GridGraph grid(8, 8);
  ShortestPathTree reused;
  for (NodeId src : {NodeId{0}, grid.node_at(3, 4), grid.node_at(7, 7)}) {
    dijkstra(grid.graph(), src, reused);
    const auto fresh = dijkstra(grid.graph(), src);
    EXPECT_EQ(reused.dist, fresh.dist);
    EXPECT_EQ(reused.parent, fresh.parent);
    EXPECT_EQ(reused.parent_edge, fresh.parent_edge);
    EXPECT_EQ(reused.settled, fresh.settled);
  }
}

TEST(DijkstraTest, GridDistancesAreManhattan) {
  GridGraph grid(6, 5);
  const auto spt = dijkstra(grid.graph(), grid.node_at(1, 1));
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 5; ++y) {
      EXPECT_DOUBLE_EQ(spt.distance(grid.node_at(x, y)), std::abs(x - 1) + std::abs(y - 1));
    }
  }
}

TEST(DijkstraTest, ZeroWeightEdges) {
  Graph g(3);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 0);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 0);
  EXPECT_TRUE(spt.reached(2));
}

// A zero-weight edge from the node just settled to a lower id at the same
// distance queues a key below the last one extracted: (1, 7) after (1, 8).
// It must settle next, before (1, 9), exactly as in the reference engine,
// so node 5 (1.5 away through 7 or through 9) takes 7 as its parent. The
// ids differ in a high bit (7 = 0111, 8 = 1000) and 9 differs from 8 only
// in the lowest, so a queue that bucketed the key by its distance from the
// last extracted one would pop (1, 9) first. A scoped run whose radius ends
// at distance 1 compares the settled set too.
TEST(DijkstraTest, ZeroWeightEdgeToALowerIdAtTheSameDistance) {
  Graph g(11);
  g.add_edge(10, 8, 1);
  g.add_edge(10, 9, 1);
  g.add_edge(8, 7, 0);
  g.add_edge(7, 5, 0.5);
  g.add_edge(9, 5, 0.5);
  g.add_edge(9, 4, 0.25);
  g.add_edge(5, 0, 0.25);
  const auto expect_bitwise = [](const ShortestPathTree& got, const ShortestPathTree& want) {
    ASSERT_EQ(got.dist.size(), want.dist.size());
    EXPECT_EQ(std::memcmp(got.dist.data(), want.dist.data(), got.dist.size() * sizeof(Weight)), 0);
    EXPECT_EQ(got.parent, want.parent);
    EXPECT_EQ(got.parent_edge, want.parent_edge);
    EXPECT_EQ(got.settled, want.settled);
  };
  const auto full = dijkstra(g, 10);
  expect_bitwise(full, reference::dijkstra(g, 10));
  EXPECT_EQ(full.parent[7], 8);
  EXPECT_EQ(full.parent[5], 7);

  const std::vector<NodeId> targets{7};
  const auto scoped = dijkstra_within(g, 10, targets, 1.0, 0.0);
  expect_bitwise(scoped, reference::dijkstra_within(g, 10, targets, 1.0, 0.0));
  ASSERT_FALSE(scoped.complete());
  for (const NodeId v : {10, 8, 7, 9}) EXPECT_TRUE(scoped.knows(v)) << v;
  EXPECT_FALSE(scoped.knows(4));
  EXPECT_FALSE(scoped.knows(5));
}

// Property: triangle inequality and symmetry over random graphs.
class DijkstraPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DijkstraPropertyTest, SymmetricAndTriangle) {
  const auto g = testing::random_connected_graph(40, 60, GetParam());
  std::mt19937_64 rng(testing::seeded_rng("dijkstra", GetParam()));
  const auto net = testing::random_net(40, 3, rng);
  const auto a = dijkstra(g, net[0]);
  const auto b = dijkstra(g, net[1]);
  const auto c = dijkstra(g, net[2]);
  EXPECT_TRUE(weight_eq(a.distance(net[1]), b.distance(net[0])));
  EXPECT_LE(a.distance(net[2]), a.distance(net[1]) + b.distance(net[2]) + 1e-9);
  EXPECT_LE(a.distance(net[1]), a.distance(net[2]) + c.distance(net[1]) + 1e-9);
}

TEST_P(DijkstraPropertyTest, ParentDistancesConsistent) {
  const auto g = testing::random_connected_graph(50, 80, GetParam());
  const auto spt = dijkstra(g, 0);
  for (NodeId v = 1; v < g.node_count(); ++v) {
    ASSERT_TRUE(spt.reached(v));
    const NodeId p = spt.parent[static_cast<std::size_t>(v)];
    const EdgeId e = spt.parent_edge[static_cast<std::size_t>(v)];
    ASSERT_NE(p, kInvalidNode);
    EXPECT_TRUE(weight_eq(spt.distance(v), spt.distance(p) + g.edge_weight(e)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest, ::testing::Range(0u, 10u));

}  // namespace
}  // namespace fpr
