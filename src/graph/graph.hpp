#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "core/contract.hpp"
#include "graph/tiled_topology.hpp"
#include "graph/types.hpp"

namespace fpr {

/// Flat compressed-sparse-row snapshot of a Graph's adjacency, the classic
/// routing-resource-graph layout (PathFinder/VPR): one contiguous offsets
/// array plus parallel neighbor/edge-id arrays, so the Dijkstra inner loop
/// walks cache-line-sized runs instead of chasing per-node vectors.
///
/// Within a node's slice, entries appear in edge-insertion order — the same
/// order Graph::incident_edges() yields — which the deterministic-parent
/// guarantee of dijkstra() depends on (see DESIGN.md §8).
///
/// `weight` mirrors the per-edge traversal cost per slot (the edge's weight,
/// or kInfiniteWeight while unusable) and is updated in place by the weight
/// and activity mutators, so congestion bumps never force a rebuild and the
/// relaxation loop reads its cost from the same contiguous stream it reads
/// the neighbor from.
struct CsrAdjacency {
  std::vector<EdgeId> offsets;   // node_count() + 1 entries
  std::vector<NodeId> neighbor;  // 2 * edge_count() entries
  std::vector<EdgeId> edge_id;   // parallel to neighbor
  std::vector<Weight> weight;    // parallel to neighbor; traversal weight
  std::vector<EdgeId> slot;      // slot[2e], slot[2e+1]: edge e's positions

  std::span<const NodeId> neighbors_of(NodeId v) const {
    const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    return {neighbor.data() + b, e - b};
  }
};

/// Weighted undirected graph with removable (deactivatable) nodes and edges
/// and mutable edge weights.
///
/// This is the routing-graph substrate of the paper (Section 2, Figure 2):
/// the FPGA router commits wire segments to nets by deactivating their nodes,
/// and models congestion by raising edge weights, so both operations are
/// first-class and O(1) (node removal/restore is O(degree) to keep the
/// usable-edge counters exact). Deactivated elements keep their ids;
/// traversals (Dijkstra, MST, ...) skip them.
///
/// Every graph keeps one per-edge store — endpoint pair, weight, activity
/// byte (17 bytes/edge) — so edge(), other_end() and edge_usable() are
/// plain array reads. Two representations differ only in where adjacency
/// comes from (DESIGN.md §12):
///
///  - *Materialized* (the default): per-node incident lists, grown by
///    add_nodes/add_edge.
///  - *Tiled* (from_tiled()): adjacency is synthesized arithmetically from
///    a shared immutable TiledTopology, so no per-node list is stored. The
///    logical graph (ids, order, weights, mutation semantics, aggregate
///    trajectories) is bit-identical to the materialized equivalent; the
///    device differential suite pins this. A tiled graph's structure is
///    fixed; calling add_nodes/add_edge first materializes it
///    (transparently, preserving all ids and state).
///
/// Two monotone revision counters drive caching:
///  - revision() bumps on EVERY mutation and invalidates anything derived
///    from weights or activity (PathOracle's shortest-path trees);
///  - structural_revision() bumps only when the topology itself grows
///    (add_nodes/add_edge). The CSR adjacency snapshot (csr()) depends only
///    on topology, so the router's per-edge congestion bumps and node
///    removals update the flat weight streams in place without ever forcing
///    a CSR rebuild.
class Graph {
 public:
  struct Edge {
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
    Weight weight = 0;
    bool active = true;
  };

  Graph() = default;
  explicit Graph(NodeId node_count);

  /// Builds a tiled-representation graph over `topo` (see class comment):
  /// every node/edge active, every edge at its slot's base weight. Requires
  /// the template convention that each edge's first-emitted endpoint is the
  /// smaller id (true of every device builder). The stamping pass verifies
  /// id ranges and that each edge is emitted exactly once by each endpoint.
  static Graph from_tiled(std::shared_ptr<const TiledTopology> topo);

  // The CSR cache carries a mutex, so the compiler-generated special members
  // are unavailable; copies/moves transfer the logical graph and leave the
  // destination's snapshot to be rebuilt lazily.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Appends `count` fresh nodes; returns the id of the first one.
  NodeId add_nodes(NodeId count);

  /// Adds an undirected edge {u, v} with weight w >= 0; returns its id.
  EdgeId add_edge(NodeId u, NodeId v, Weight w);

  NodeId node_count() const { return static_cast<NodeId>(node_active_.size()); }
  EdgeId edge_count() const { return static_cast<EdgeId>(ends_.size()); }

  /// The tile template this graph synthesizes its adjacency from, or
  /// nullptr for a materialized graph. The Dijkstra engine keys its
  /// traversal backend on this.
  const TiledTopology* tiled_topology() const { return topo_.get(); }
  bool tiled() const { return topo_ != nullptr; }

  /// Raw state arrays for the tiled traversal backend (dijkstra.cpp):
  /// weights are true per-edge weights; activity is one byte per element.
  /// Valid only while tiled(); pointers are invalidated by any structural
  /// mutation.
  struct TiledView {
    const TiledTopology* topo = nullptr;
    const Weight* weight = nullptr;
    const char* edge_active = nullptr;
    const char* node_active = nullptr;
  };
  TiledView tiled_view() const {
    FPR_CHECK(topo_ != nullptr, "tiled_view() on a materialized graph");
    return TiledView{topo_.get(), weight_.data(), active_.data(), node_active_.data()};
  }

  /// Edge record, returned by value. `u` and `v` are add_edge's arguments in
  /// order; on a tiled graph `u` is the smaller endpoint (every device
  /// builder's emission order).
  Edge edge(EdgeId e) const {
    const EdgeEnds& p = ends_of(e);
    const auto i = static_cast<std::size_t>(e);
    return Edge{p.u, p.v, weight_[i], active_[i] != 0};
  }

  Weight edge_weight(EdgeId e) const { return weight_[static_cast<std::size_t>(e)]; }

  /// The endpoint of `e` that is not `from`.
  NodeId other_end(EdgeId e, NodeId from) const {
    const EdgeEnds& p = ends_of(e);
    FPR_CHECK(p.u == from || p.v == from,
              "other_end: node " << from << " is not an endpoint of edge " << e << " {" << p.u
                                 << ", " << p.v << "}");
    return p.u == from ? p.v : p.u;
  }

  /// All edges ever attached to `v` (including inactive ones; filter with
  /// edge_usable()). On a tiled graph the span points into a thread-local
  /// scratch buffer synthesized per call — it stays valid until this
  /// thread's next incident_edges() call on any tiled graph, which every
  /// current caller satisfies (no caller holds a span across another call).
  std::span<const EdgeId> incident_edges(NodeId v) const {
    if (topo_ != nullptr) return tiled_incident_edges(v);
    return incident_[static_cast<std::size_t>(v)];
  }

  bool node_active(NodeId v) const { return node_active_[static_cast<std::size_t>(v)]; }
  bool edge_active(EdgeId e) const { return active_[static_cast<std::size_t>(e)] != 0; }

  /// An edge is traversable iff it and both endpoints are active.
  bool edge_usable(EdgeId e) const {
    const auto i = static_cast<std::size_t>(e);
    return active_[i] != 0 && node_active(ends_[i].u) && node_active(ends_[i].v);
  }

  void set_edge_weight(EdgeId e, Weight w);
  void add_edge_weight(EdgeId e, Weight delta);
  void remove_edge(EdgeId e);
  void restore_edge(EdgeId e);
  void remove_node(NodeId v);
  void restore_node(NodeId v);

  /// Monotone counter incremented on every mutation; used by PathOracle.
  std::uint64_t revision() const { return revision_; }

  /// Monotone counter incremented only by add_nodes/add_edge — the part of
  /// revision() the CSR snapshot depends on.
  std::uint64_t structural_revision() const { return structural_revision_; }

  /// The flat adjacency snapshot, rebuilt lazily when structural_revision()
  /// has moved since the last build. Safe to call from concurrent readers
  /// (the rebuild is mutex-guarded); mutating the graph concurrently with
  /// any reader is undefined, exactly as before. A tiled graph stamps the
  /// snapshot from its template tile-row-at-a-time into exactly
  /// preallocated arrays — byte-identical to the materialized rebuild —
  /// and keeps it weight-synced afterwards; the tiled Dijkstra backend
  /// never needs it, so large tiled devices typically never pay for one.
  const CsrAdjacency& csr() const;

  /// Number of currently usable edges. O(1): maintained as a running
  /// counter by every mutator.
  EdgeId active_edge_count() const { return usable_edges_; }

  /// Mean weight over usable edges (the paper reports the average
  /// routing-graph edge weight per congestion level in Table 1). O(1) from
  /// a running sum; exact whenever weights and congestion deltas are
  /// dyadic rationals (integers, halves, ...) summing below 2^53, which
  /// every workload in this repo satisfies.
  Weight mean_active_edge_weight() const {
    return usable_edges_ == 0 ? Weight{0} : usable_weight_sum_ / static_cast<Weight>(usable_edges_);
  }

  // -------------------------------------------------------------------------
  // Touch tracking (Device::reset() fast path).
  //
  // When enabled, every mutator records the element it touched (deduplicated
  // by a dirty bit), so a reset can restore base state in O(touched) instead
  // of scanning the whole graph. Tracking starts from the pristine
  // just-built state; replaying the touched lists in ascending id order
  // performs exactly the mutation sequence a full ascending scan would.
  // -------------------------------------------------------------------------

  /// Starts recording touched nodes/edges. Must be called on a graph whose
  /// state is the base state the eventual reset should restore.
  void enable_touch_tracking();
  bool touch_tracking() const { return track_touched_; }
  /// Touched ids since the last clear, in first-touch order (callers sort).
  std::span<const NodeId> touched_nodes() const { return touched_nodes_; }
  std::span<const EdgeId> touched_edges() const { return touched_edges_; }
  void clear_touched();

 private:
  /// An edge's endpoints, in add_edge argument order (lower id first on a
  /// tiled graph).
  struct EdgeEnds {
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
  };

  const EdgeEnds& ends_of(EdgeId e) const {
    FPR_CHECK(e >= 0 && e < edge_count(),
              "edge " << e << " outside edge range [0, " << edge_count() << ")");
    return ends_[static_cast<std::size_t>(e)];
  }

  void copy_logical_state(const Graph& other);
  /// Converts a tiled graph to the materialized representation in place by
  /// building the per-node incident lists; every id, order and state bit is
  /// preserved. Called by the structural mutators; O(V + E).
  void materialize();
  /// Calls `fn(neighbor, edge)` for every edge attached to `v`, in ascending
  /// edge order (template slot order, or incident-list order).
  template <typename Fn>
  void for_each_incident(NodeId v, Fn&& fn) const {
    if (topo_ != nullptr) {
      topo_->for_each_slot(v, [&](NodeId nbr, EdgeId e, const TiledSlot&) { fn(nbr, e); });
      return;
    }
    for (const EdgeId e : incident_[static_cast<std::size_t>(v)]) {
      const EdgeEnds& p = ends_[static_cast<std::size_t>(e)];
      fn(p.u == v ? p.v : p.u, e);
    }
  }
  /// Moves edge `e` into/out of the usable set: running counters plus the
  /// CSR weight stream.
  void enter_usable(EdgeId e);
  void leave_usable(EdgeId e);
  /// Mirrors a traversal-weight change into the CSR snapshot's per-slot
  /// weight stream, when a snapshot is currently built. Writes csr_ without
  /// csr_mu_: mutators run under the documented writer-exclusivity contract
  /// (no concurrent readers), which the analysis cannot express.
  void sync_csr_weight(EdgeId e, Weight w) FPR_NO_THREAD_SAFETY_ANALYSIS;
  /// Rebuilds the CSR snapshot under csr_mu_ if it is stale at `want`.
  void rebuild_csr(std::uint64_t want) const FPR_EXCLUDES(csr_mu_);
  void build_csr() const FPR_REQUIRES(csr_mu_);
  /// Reads csr_ without csr_mu_ — safe once csr_structural_ was
  /// acquire-loaded equal to structural_revision(): the builder
  /// release-stores that value only after the snapshot is complete, and a
  /// current snapshot is never written again (release/acquire publication,
  /// which guarded_by cannot express).
  const CsrAdjacency& published_csr() const FPR_NO_THREAD_SAFETY_ANALYSIS { return csr_; }

  /// incident_edges() for a tiled graph, synthesized into a per-thread
  /// scratch buffer (width-search probes route on different threads).
  std::span<const EdgeId> tiled_incident_edges(NodeId v) const;

  void mark_node_touched(NodeId v) {
    if (track_touched_ && !node_dirty_[static_cast<std::size_t>(v)]) {
      node_dirty_[static_cast<std::size_t>(v)] = 1;
      touched_nodes_.push_back(v);
    }
  }
  void mark_edge_touched(EdgeId e) {
    if (track_touched_ && !edge_dirty_[static_cast<std::size_t>(e)]) {
      edge_dirty_[static_cast<std::size_t>(e)] = 1;
      touched_edges_.push_back(e);
    }
  }

  // Per-edge store, shared by both representations.
  std::vector<EdgeEnds> ends_;
  std::vector<Weight> weight_;  // true weight, whether or not usable
  std::vector<char> active_;    // 1 byte per edge
  std::vector<char> node_active_;

  // Adjacency: the template (tiled), or per-node incident lists in edge
  // insertion order (materialized; empty while tiled).
  std::shared_ptr<const TiledTopology> topo_;
  std::vector<std::vector<EdgeId>> incident_;

  std::uint64_t revision_ = 0;
  std::uint64_t structural_revision_ = 0;

  // Running aggregates over the usable-edge set (kept exact by the
  // mutators, which visit edges in ascending id order in both
  // representations, so the floating-point trajectories match bit for bit).
  EdgeId usable_edges_ = 0;
  Weight usable_weight_sum_ = 0;

  // Touch tracking (see section comment above).
  bool track_touched_ = false;
  std::vector<char> node_dirty_;
  std::vector<char> edge_dirty_;
  std::vector<NodeId> touched_nodes_;
  std::vector<EdgeId> touched_edges_;

  // Lazily built CSR snapshot. csr_structural_ is the structural revision
  // the snapshot was built at (kCsrStale = never built).
  static constexpr std::uint64_t kCsrStale = ~std::uint64_t{0};
  mutable Mutex csr_mu_;
  mutable std::atomic<std::uint64_t> csr_structural_{kCsrStale};
  mutable CsrAdjacency csr_ FPR_GUARDED_BY(csr_mu_);
};

}  // namespace fpr
