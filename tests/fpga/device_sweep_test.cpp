// Parameterized structural properties of the device builder across array
// sizes, channel widths and architecture families — the invariants every
// width-search experiment silently relies on.

#include <gtest/gtest.h>

#include <ostream>

#include "fpga/device.hpp"
#include "graph/dijkstra.hpp"

namespace fpr {
namespace {

struct SweepCase {
  int rows, cols, width;
  bool xc3000;
};

// Names the case by its fields. Without it gtest prints the raw object
// bytes, padding included, and the padding's stack residue leaks into the
// ctest names.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << (c.xc3000 ? "xc3000_" : "xc4000_") << c.rows << "x" << c.cols << "_W" << c.width;
}

class DeviceSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static ArchSpec arch(const SweepCase& c) {
    return c.xc3000 ? ArchSpec::xc3000(c.rows, c.cols, c.width)
                    : ArchSpec::xc4000(c.rows, c.cols, c.width);
  }
};

TEST_P(DeviceSweepTest, NodeCountFormula) {
  const auto& c = GetParam();
  const Device device(arch(c));
  const int expected_wires =
      (c.rows + 1) * c.cols * c.width + (c.cols + 1) * c.rows * c.width;
  EXPECT_EQ(device.block_count(), c.rows * c.cols);
  EXPECT_EQ(device.wire_count(), expected_wires);
}

TEST_P(DeviceSweepTest, EveryBlockPinFanoutIsFourFc) {
  const auto& c = GetParam();
  const ArchSpec spec = arch(c);
  const Device device(spec);
  for (int y = 0; y < c.rows; ++y) {
    for (int x = 0; x < c.cols; ++x) {
      int degree = 0;
      device.graph().for_each_incident(device.block_node(x, y), [&](NodeId, EdgeId) { ++degree; });
      EXPECT_EQ(degree, 4 * spec.fc());
    }
  }
}

TEST_P(DeviceSweepTest, InteriorWireFanoutRespectsFs) {
  // A wire segment meets two switch blocks; at each interior one it can
  // reach Fs other wires, plus its connection-block pin edges.
  const auto& c = GetParam();
  const ArchSpec spec = arch(c);
  const Device device(spec);
  const Graph& g = device.graph();
  int max_wire_degree = 0;
  for (NodeId v = device.block_count(); v < g.node_count(); ++v) {
    int wire_neighbors = 0;
    g.for_each_incident(v, [&](NodeId nbr, EdgeId) {
      if (device.is_wire(nbr)) ++wire_neighbors;
    });
    max_wire_degree = std::max(max_wire_degree, wire_neighbors);
  }
  // Augmented (Fs=6) pattern additionally receives shifted-track edges from
  // each side, so the per-end bound is 2*Fs; the disjoint pattern is exact.
  EXPECT_LE(max_wire_degree, 2 * 2 * spec.fs());
  EXPECT_GE(max_wire_degree, spec.fs());
}

TEST_P(DeviceSweepTest, FullyConnected) {
  const auto& c = GetParam();
  const Device device(arch(c));
  const auto spt = dijkstra(device.graph(), device.block_node(0, 0));
  for (NodeId v = 0; v < device.graph().node_count(); ++v) {
    EXPECT_TRUE(spt.reached(v)) << "node " << v;
  }
}

TEST_P(DeviceSweepTest, WireRefRoundTripsEveryWire) {
  const auto& c = GetParam();
  const Device device(arch(c));
  for (NodeId v = device.block_count(); v < device.graph().node_count(); ++v) {
    const auto ref = device.wire_ref(v);
    EXPECT_EQ(device.wire_node(ref.dir, ref.x, ref.y, ref.track), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DeviceSweepTest,
                         ::testing::Values(SweepCase{2, 2, 1, false}, SweepCase{3, 5, 2, false},
                                           SweepCase{5, 3, 4, true}, SweepCase{4, 4, 7, true},
                                           SweepCase{6, 7, 3, false}, SweepCase{7, 6, 5, true},
                                           SweepCase{1, 8, 2, false}, SweepCase{8, 1, 2, true}));

}  // namespace
}  // namespace fpr
