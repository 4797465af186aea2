#include "fpga/device.hpp"

#include <gtest/gtest.h>

#include "graph/dijkstra.hpp"

namespace fpr {
namespace {

TEST(DeviceTest, NodeCounts) {
  // 3x4 array, W=2: blocks 12, hwires (3+1)*4*2 = 32, vwires (4+1)*3*2 = 30.
  const Device device(ArchSpec::xc4000(3, 4, 2));
  EXPECT_EQ(device.block_count(), 12);
  EXPECT_EQ(device.wire_count(), 62);
  EXPECT_EQ(device.graph().node_count(), 74);
}

TEST(DeviceTest, BlockAndWireClassification) {
  const Device device(ArchSpec::xc4000(3, 3, 2));
  EXPECT_TRUE(device.is_block(device.block_node(0, 0)));
  EXPECT_TRUE(device.is_block(device.block_node(2, 2)));
  const NodeId w = device.wire_node(Device::Dir::kHorizontal, 0, 0, 0);
  EXPECT_TRUE(device.is_wire(w));
  EXPECT_FALSE(device.is_block(w));
}

TEST(DeviceTest, WireRefRoundTrip) {
  const Device device(ArchSpec::xc4000(4, 5, 3));
  for (const auto dir : {Device::Dir::kHorizontal, Device::Dir::kVertical}) {
    const int max_x = dir == Device::Dir::kHorizontal ? 4 : 5;
    const int max_y = dir == Device::Dir::kHorizontal ? 4 : 3;
    for (int x = 0; x <= max_x; ++x) {
      for (int y = 0; y <= max_y; ++y) {
        for (int t = 0; t < 3; ++t) {
          const NodeId v = device.wire_node(dir, x, y, t);
          const auto ref = device.wire_ref(v);
          EXPECT_EQ(ref.dir, dir);
          EXPECT_EQ(ref.x, x);
          EXPECT_EQ(ref.y, y);
          EXPECT_EQ(ref.track, t);
        }
      }
    }
  }
}

TEST(DeviceTest, TileSiblingsShareChannelTile) {
  const Device device(ArchSpec::xc4000(3, 3, 4));
  const NodeId w = device.wire_node(Device::Dir::kVertical, 1, 2, 1);
  const auto siblings = device.tile_siblings(w);
  ASSERT_EQ(siblings.size(), 3u);
  for (const NodeId s : siblings) {
    const auto ref = device.wire_ref(s);
    EXPECT_EQ(ref.dir, Device::Dir::kVertical);
    EXPECT_EQ(ref.x, 1);
    EXPECT_EQ(ref.y, 2);
    EXPECT_NE(ref.track, 1);
  }
}

TEST(DeviceTest, BlocksAreMutuallyReachable) {
  const Device device(ArchSpec::xc4000(4, 4, 2));
  const auto spt = dijkstra(device.graph(), device.block_node(0, 0));
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      EXPECT_TRUE(spt.reached(device.block_node(x, y))) << x << "," << y;
    }
  }
}

TEST(DeviceTest, DistanceGrowsWithManhattanSeparation) {
  const Device device(ArchSpec::xc4000(6, 6, 3));
  const auto spt = dijkstra(device.graph(), device.block_node(0, 0));
  const Weight near = spt.distance(device.block_node(1, 0));
  const Weight far = spt.distance(device.block_node(5, 5));
  EXPECT_LT(near, far);
  // A block-to-adjacent-block route needs pin->wire->pin at minimum.
  EXPECT_GE(near, 2.0);
}

TEST(DeviceTest, Xc3000HasRicherSwitchboxes) {
  const Device d4(ArchSpec::xc4000(4, 4, 4));
  ArchSpec a3 = ArchSpec::xc3000(4, 4, 4);
  const Device d3(a3);
  // Same array and width: the augmented pattern (Fs=6) must add edges.
  EXPECT_GT(d3.graph().edge_count() - 16 * 4 * a3.fc(),
            d4.graph().edge_count() - 16 * 4 * 4);
}

TEST(DeviceTest, FcControlsPinFanout) {
  const Device narrow(ArchSpec::xc3000(3, 3, 5));  // Fc = 3
  const Device wide(ArchSpec::xc4000(3, 3, 5));    // Fc = 5
  const auto count_pin_edges = [](const Device& d, NodeId b) {
    int degree = 0;
    d.graph().for_each_incident(b, [&](NodeId, EdgeId) { ++degree; });
    return degree;
  };
  EXPECT_EQ(count_pin_edges(narrow, narrow.block_node(1, 1)), 4 * 3);
  EXPECT_EQ(count_pin_edges(wide, wide.block_node(1, 1)), 4 * 5);
}

TEST(DeviceTest, ResetRestoresEverything) {
  Device device(ArchSpec::xc4000(3, 3, 2));
  Graph& g = device.graph();
  const NodeId w = device.wire_node(Device::Dir::kHorizontal, 1, 1, 0);
  g.remove_node(w);
  g.remove_edge(0);
  g.add_edge_weight(5, 2.5);
  EXPECT_EQ(device.used_wire_count(), 1);
  device.reset();
  EXPECT_EQ(device.used_wire_count(), 0);
  EXPECT_TRUE(g.node_active(w));
  EXPECT_TRUE(g.edge_active(0));
  EXPECT_DOUBLE_EQ(g.edge_weight(5), 1.0);
}

TEST(DeviceTest, RemovingAllTilesOfAChannelCutsRoutes) {
  // Consume every wire of the vertical channel column between x=1 and x=2
  // plus the horizontal channels' tiles at x=1; the device splits.
  Device device(ArchSpec::xc4000(2, 3, 1));
  Graph& g = device.graph();
  for (int y = 0; y < 2; ++y) g.remove_node(device.wire_node(Device::Dir::kVertical, 2, y, 0));
  for (int y = 0; y <= 2; ++y) {
    g.remove_node(device.wire_node(Device::Dir::kHorizontal, 1, y, 0));
  }
  const auto spt = dijkstra(g, device.block_node(0, 0));
  EXPECT_TRUE(spt.reached(device.block_node(1, 0)));
  EXPECT_FALSE(spt.reached(device.block_node(2, 0)));
}

}  // namespace
}  // namespace fpr
