#include "router/patterns.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/contract.hpp"
#include "graph/graph.hpp"

namespace fpr {
namespace {

/// Corridor rectangles are grown by this margin on every side so the two
/// channels flanking a terminal's block row/column — and the switchboxes a
/// turn needs — are inside the searchable area (every device edge spans
/// Chebyshev distance <= 2 on the half-tile grid).
constexpr int kMargin = 2;

/// Z-shaped detours only make sense once the bent axis is long enough for
/// the midpoint jog to differ from the two L corners. Half-tile units.
constexpr int kZMinSpan = 6;

/// Up to three clipped rectangles forming one candidate corridor.
struct Corridor {
  std::array<TileRect, 3> legs;
  int leg_count = 0;

  void add(const TileRect& r) {
    FPR_CHECK(leg_count < 3, "Corridor: more than three legs");
    legs[static_cast<std::size_t>(leg_count++)] = r;
  }

  bool contains(int x, int y) const {
    for (int i = 0; i < leg_count; ++i) {
      if (legs[static_cast<std::size_t>(i)].contains_point(x, y)) return true;
    }
    return false;
  }
};

TileRect leg(const Device::TilePos& a, const Device::TilePos& b, const TileRect& bounds) {
  TileRect r;
  r.include(a.x, a.y);
  r.include(b.x, b.y);
  return r.expanded(kMargin).clipped(bounds);
}

/// The fixed candidate order: straight (aligned terminals), else the two L
/// shapes, then — once the jog axis is long enough — the two Z shapes.
std::vector<Corridor> candidate_corridors(const Device::TilePos& s, const Device::TilePos& t,
                                          const TileRect& bounds) {
  std::vector<Corridor> out;
  if (s.x == t.x || s.y == t.y) {
    Corridor straight;
    straight.add(leg(s, t, bounds));
    out.push_back(straight);
    return out;
  }
  const Device::TilePos corner_h{t.x, s.y};  // horizontal leg first
  const Device::TilePos corner_v{s.x, t.y};  // vertical leg first
  Corridor l_hv;
  l_hv.add(leg(s, corner_h, bounds));
  l_hv.add(leg(corner_h, t, bounds));
  out.push_back(l_hv);
  Corridor l_vh;
  l_vh.add(leg(s, corner_v, bounds));
  l_vh.add(leg(corner_v, t, bounds));
  out.push_back(l_vh);
  if (std::abs(t.x - s.x) >= kZMinSpan) {
    const int mid = (s.x + t.x) / 2;
    Corridor z;
    z.add(leg(s, Device::TilePos{mid, s.y}, bounds));
    z.add(leg(Device::TilePos{mid, s.y}, Device::TilePos{mid, t.y}, bounds));
    z.add(leg(Device::TilePos{mid, t.y}, t, bounds));
    out.push_back(z);
  }
  if (std::abs(t.y - s.y) >= kZMinSpan) {
    const int mid = (s.y + t.y) / 2;
    Corridor z;
    z.add(leg(s, Device::TilePos{s.x, mid}, bounds));
    z.add(leg(Device::TilePos{s.x, mid}, Device::TilePos{t.x, mid}, bounds));
    z.add(leg(Device::TilePos{t.x, mid}, t, bounds));
    out.push_back(z);
  }
  return out;
}

/// Best-first search confined to `corridor`. Returns true when the sink was
/// reached; fills the probe's path/cost. Ties in the heap break on node id
/// (the pair's second member), so the settled order — and therefore the
/// parent tree — is deterministic.
bool search_corridor(const Device& device, const CongestionLayer& layer, const Corridor& corridor,
                     NodeId source, NodeId sink, WorkBudget* budget, PatternProbe& probe) {
  const Graph& g = device.graph();
  std::unordered_map<NodeId, Weight> dist;
  std::unordered_map<NodeId, std::pair<NodeId, EdgeId>> parent;  // node -> (prev node, via edge)
  using Entry = std::pair<Weight, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist.emplace(source, Weight{0});
  heap.emplace(Weight{0}, source);

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    const auto it = dist.find(v);
    if (it == dist.end() || d > it->second) continue;  // stale entry
    if (budget != nullptr && !budget->charge()) {
      probe.budget_aborted = true;
      return false;
    }
    ++probe.expansions;
    if (v == sink) {
      // Reconstruct sink -> source, then flip to source -> sink order.
      probe.cost = d;
      probe.edges.clear();
      NodeId cur = sink;
      while (cur != source) {
        const auto p = parent.find(cur);
        FPR_CHECK(p != parent.end(), "pattern search: broken parent chain at node " << cur);
        probe.edges.push_back(p->second.second);
        cur = p->second.first;
      }
      std::reverse(probe.edges.begin(), probe.edges.end());
      return true;
    }
    // Membership first (pure geometry), then the capacity prune, then edge
    // usability/weight — so no graph or layer state outside the corridor is
    // ever read.
    g.for_each_incident(v, [&](NodeId w, EdgeId e) {
      const Device::TilePos pos = device.node_tile(w);
      if (!corridor.contains(pos.x, pos.y)) return;
      if (device.is_wire(w) && layer.would_overflow(w)) return;
      if (!g.edge_usable(e)) return;
      const Weight nd = d + g.edge_weight(e);
      const auto [slot, fresh] = dist.try_emplace(w, nd);
      if (!fresh && nd >= slot->second) return;
      slot->second = nd;
      parent[w] = {v, e};
      heap.emplace(nd, w);
    });
  }
  return false;
}

}  // namespace

TileRect device_tile_bounds(const Device& device) {
  const ArchSpec& spec = device.spec();
  // Blocks at (2x+1, 2y+1), vertical channels at even x in [0, 2*cols],
  // horizontal channels at even y in [0, 2*rows] — see Device::node_tile.
  return TileRect{0, 0, 2 * spec.cols, 2 * spec.rows};
}

PatternProbe pattern_route(const Device& device, const CongestionLayer& layer, NodeId source,
                           NodeId sink, WorkBudget* budget) {
  FPR_CHECK(source != sink, "pattern_route: source and sink coincide (node " << source << ")");
  PatternProbe probe;
  const TileRect bounds = device_tile_bounds(device);
  const Device::TilePos s = device.node_tile(source);
  const Device::TilePos t = device.node_tile(sink);
  for (const Corridor& corridor : candidate_corridors(s, t, bounds)) {
    if (budget != nullptr && budget->exhausted()) {
      probe.budget_aborted = true;
      break;
    }
    if (search_corridor(device, layer, corridor, source, sink, budget, probe)) {
      probe.accepted = true;
      break;
    }
    if (probe.budget_aborted) break;
  }
  return probe;
}

}  // namespace fpr
