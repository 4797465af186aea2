#pragma once

#include <algorithm>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

/// The pre-CSR Dijkstra engine, frozen: per-call vector initialization,
/// lazy-deletion binary priority_queue of (dist, node) pairs, and an
/// edge_usable() test per edge. Its adjacency comes from
/// Graph::for_each_incident, the walk the production engine uses too;
/// graph_test checks that walk against a scan of the endpoint store.
///
/// NOT used by production code. It exists so that
///  - the differential test (tests/graph/dijkstra_differential_test.cpp)
///    can assert the CSR/arena engine produces bit-identical
///    dist/parent/parent_edge forests, and
///  - bench/micro_dijkstra can report the speedup of the current engine
///    over this baseline into the BENCH_dijkstra.json perf trajectory.
///
/// Known quirk, preserved on purpose: when a radius-bounded run exhausts
/// the whole component, this engine may still report it as stopped-early
/// (settled flags populated) if a superseded heap entry above the radius
/// limit survived to the top. The production engine reports such runs as
/// complete — a strict semantic upgrade; the differential test pins down
/// exactly this relationship.
namespace fpr::reference {

inline ShortestPathTree dijkstra_impl(const Graph& g, NodeId source,
                                      std::span<const NodeId> targets, double radius_factor,
                                      Weight slack) {
  const auto n = static_cast<std::size_t>(g.node_count());
  ShortestPathTree t;
  t.source = source;
  t.dist.assign(n, kInfiniteWeight);
  t.parent.assign(n, kInvalidNode);
  t.parent_edge.assign(n, kInvalidEdge);
  if (!g.node_active(source)) return t;

  std::vector<char> pending(targets.empty() ? 0 : n, 0);
  NodeId pending_count = 0;
  for (const NodeId v : targets) {
    if (!g.node_active(v)) {
      ++t.inactive_targets;
      continue;
    }
    auto& flag = pending[static_cast<std::size_t>(v)];
    if (flag == 0 && v != source) {
      flag = 1;
      ++pending_count;
    }
  }

  using Entry = std::pair<Weight, NodeId>;  // (dist, node); node breaks ties
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  t.dist[static_cast<std::size_t>(source)] = 0;
  heap.emplace(0, source);

  std::vector<char> done(n, 0);
  Weight limit = kInfiniteWeight;  // becomes finite once all targets settle
  bool stopped_early = false;
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    if (d > limit) {
      stopped_early = true;
      break;
    }
    heap.pop();
    auto& du = done[static_cast<std::size_t>(u)];
    if (du) continue;
    du = 1;
    if (pending_count > 0 && pending[static_cast<std::size_t>(u)]) {
      pending[static_cast<std::size_t>(u)] = 0;
      if (--pending_count == 0) {
        limit = radius_factor * d + slack;
      }
    }
    g.for_each_incident(u, [&](NodeId v, EdgeId e) {
      if (!g.edge_usable(e)) return;
      const Weight nd = d + g.edge_weight(e);
      auto& dv = t.dist[static_cast<std::size_t>(v)];
      if (nd < dv) {
        dv = nd;
        t.parent[static_cast<std::size_t>(v)] = u;
        t.parent_edge[static_cast<std::size_t>(v)] = e;
        heap.emplace(nd, v);
      }
    });
  }
  if (stopped_early) {
    t.settled = std::move(done);
  }
  return t;
}

inline ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  return dijkstra_impl(g, source, {}, 0, 0);
}

inline ShortestPathTree dijkstra_within(const Graph& g, NodeId source,
                                        std::span<const NodeId> targets,
                                        double radius_factor = 1.3, Weight slack = 4.0) {
  return dijkstra_impl(g, source, targets, radius_factor, slack);
}

}  // namespace fpr::reference
