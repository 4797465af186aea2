// Negative tests for FPR_CHECK: container misuse throws ContractViolation
// (always-on, unlike the assert()s it replaced) with a message naming the
// failed condition, the source location, and the offending values.

#include "core/contract.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "fpga/device.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/grid.hpp"
#include "graph/path_oracle.hpp"

namespace fpr {
namespace {

TEST(ContractTest, ViolationCarriesConditionLocationAndContext) {
  try {
    FPR_CHECK(1 == 2, "the answer is " << 42);
    FAIL() << "FPR_CHECK(false) did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("contract_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("the answer is 42"), std::string::npos) << what;
  }
}

TEST(ContractTest, ContractViolationIsALogicError) {
  // Catchable as std::logic_error so existing generic handlers keep working.
  EXPECT_THROW(FPR_CHECK(false, "x"), std::logic_error);
}

TEST(ContractTest, PassingCheckEvaluatesConditionOnce) {
  int calls = 0;
  const auto touch = [&]() {
    ++calls;
    return true;
  };
  FPR_CHECK(touch(), "never streamed");
  EXPECT_EQ(calls, 1);
}

/// Out-of-range element ids are rejected by every accessor and mutator that
/// indexes a per-element array, on either graph representation.
void expect_rejects_out_of_range_ids(Graph& g) {
  const EdgeId m = g.edge_count();
  const NodeId n = g.node_count();
  const std::uint64_t revision = g.revision();
  const EdgeId usable = g.active_edge_count();
  for (const EdgeId e : {m, EdgeId{-1}}) {
    EXPECT_THROW(g.edge(e), ContractViolation) << "edge " << e;
    EXPECT_THROW(g.remove_edge(e), ContractViolation) << "edge " << e;
    EXPECT_THROW(g.restore_edge(e), ContractViolation) << "edge " << e;
    EXPECT_THROW(g.set_edge_weight(e, 1.0), ContractViolation) << "edge " << e;
    EXPECT_THROW(g.add_edge_weight(e, 1.0), ContractViolation) << "edge " << e;
  }
  for (const NodeId v : {n, NodeId{-1}}) {
    EXPECT_THROW(g.remove_node(v), ContractViolation) << "node " << v;
    EXPECT_THROW(g.restore_node(v), ContractViolation) << "node " << v;
  }
  EXPECT_EQ(g.revision(), revision);
  EXPECT_EQ(g.active_edge_count(), usable);
}

TEST(ContractTest, GraphRejectsMisuse) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(g.add_nodes(-1), ContractViolation);
  EXPECT_THROW(g.add_edge(0, 3, 1.0), ContractViolation);   // endpoint out of range
  EXPECT_THROW(g.add_edge(-1, 1, 1.0), ContractViolation);  // negative endpoint
  EXPECT_THROW(g.add_edge(1, 1, 1.0), ContractViolation);   // self-loop
  EXPECT_THROW(g.add_edge(0, 2, -0.5), ContractViolation);  // negative weight
  EXPECT_THROW(g.set_edge_weight(5, 1.0), ContractViolation);
  EXPECT_THROW(g.set_edge_weight(0, -1.0), ContractViolation);
  EXPECT_THROW(g.add_edge_weight(0, -2.0), ContractViolation);  // would go negative
  EXPECT_THROW(g.other_end(0, 2), ContractViolation);  // 2 not an endpoint of edge 0
  expect_rejects_out_of_range_ids(g);
  Device device(ArchSpec::xc4000(7, 7, 4));  // stamped from the tile template
  ASSERT_TRUE(device.graph().tiled());
  expect_rejects_out_of_range_ids(device.graph());
  // The graph survives rejected calls: state is unchanged and usable.
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.edge_weight(0), 1.0);
}

TEST(ContractTest, DijkstraRejectsOutOfRangeIdsOnAMaterializedGraph) {
  // A materialized graph walks its CSR offsets unchecked, so the search
  // entry points must reject a bad id before the walk reads past them.
  Device device(ArchSpec::xc4000(8, 8, 4));
  Graph& g = device.graph();
  g.add_nodes(0);  // structural no-op: materializes the stamped graph
  ASSERT_FALSE(g.tiled());
  const NodeId n = g.node_count();
  for (const NodeId bad : {n, n + 1, NodeId{-1}}) {
    EXPECT_THROW(dijkstra(g, bad), ContractViolation) << "source " << bad;
    const std::vector<NodeId> targets{0, bad};
    EXPECT_THROW(dijkstra_within(g, 0, targets), ContractViolation) << "target " << bad;
    PathOracle oracle(g);
    EXPECT_THROW(oracle.from(bad), ContractViolation) << "source " << bad;
  }
  // The last id in range is still searchable.
  EXPECT_TRUE(dijkstra(g, n - 1).reached(n - 1));
}

TEST(ContractTest, DeviceRejectsMisuse) {
  EXPECT_THROW(Device(ArchSpec::xc4000(0, 3, 2)), ContractViolation);  // zero rows
  const Device device(ArchSpec::xc4000(3, 3, 2));
  EXPECT_THROW(device.block_node(3, 0), ContractViolation);
  EXPECT_THROW(device.block_node(0, -1), ContractViolation);
  EXPECT_THROW(device.wire_node(Device::Dir::kHorizontal, 0, 0, 2), ContractViolation);
  EXPECT_THROW(device.wire_ref(device.block_node(0, 0)), ContractViolation);
}

TEST(ContractTest, GridRejectsMisuse) {
  EXPECT_THROW(GridGraph(0, 4), ContractViolation);
  const GridGraph grid(3, 3);
  EXPECT_THROW(grid.horizontal_edge(2, 0), ContractViolation);
  EXPECT_THROW(grid.vertical_edge(0, 2), ContractViolation);
}

TEST(ContractTest, FaultSpecMisuseRejected) {
  Device device(ArchSpec::xc4000(3, 3, 2));
  FaultSpec bad;
  bad.wire_permille = 1001;  // above per-mille range
  EXPECT_FALSE(bad.valid());
  EXPECT_THROW(device.install_faults(bad), ContractViolation);
  EXPECT_FALSE(device.has_faults());
}

}  // namespace
}  // namespace fpr
