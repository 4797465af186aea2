#include "graph/graph.hpp"

#include <utility>

#include "core/contract.hpp"

namespace fpr {

Graph::Graph(NodeId node_count) { add_nodes(node_count); }

void Graph::copy_logical_state(const Graph& other) {
  ends_ = other.ends_;
  weight_ = other.weight_;
  active_ = other.active_;
  node_active_ = other.node_active_;
  topo_ = other.topo_;
  revision_ = other.revision_;
  structural_revision_ = other.structural_revision_;
  usable_edges_ = other.usable_edges_;
  usable_weight_sum_ = other.usable_weight_sum_;
  track_touched_ = other.track_touched_;
  node_dirty_ = other.node_dirty_;
  edge_dirty_ = other.edge_dirty_;
  touched_nodes_ = other.touched_nodes_;
  touched_edges_ = other.touched_edges_;
  csr_structural_.store(kCsrStale, std::memory_order_relaxed);
}

Graph::Graph(const Graph& other) { copy_logical_state(other); }

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) copy_logical_state(other);
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : ends_(std::move(other.ends_)),
      weight_(std::move(other.weight_)),
      active_(std::move(other.active_)),
      node_active_(std::move(other.node_active_)),
      topo_(std::move(other.topo_)),
      revision_(other.revision_),
      structural_revision_(other.structural_revision_),
      usable_edges_(other.usable_edges_),
      usable_weight_sum_(other.usable_weight_sum_),
      track_touched_(other.track_touched_),
      node_dirty_(std::move(other.node_dirty_)),
      edge_dirty_(std::move(other.edge_dirty_)),
      touched_nodes_(std::move(other.touched_nodes_)),
      touched_edges_(std::move(other.touched_edges_)) {
  csr_structural_.store(kCsrStale, std::memory_order_relaxed);
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    ends_ = std::move(other.ends_);
    weight_ = std::move(other.weight_);
    active_ = std::move(other.active_);
    node_active_ = std::move(other.node_active_);
    topo_ = std::move(other.topo_);
    revision_ = other.revision_;
    structural_revision_ = other.structural_revision_;
    usable_edges_ = other.usable_edges_;
    usable_weight_sum_ = other.usable_weight_sum_;
    track_touched_ = other.track_touched_;
    node_dirty_ = std::move(other.node_dirty_);
    edge_dirty_ = std::move(other.edge_dirty_);
    touched_nodes_ = std::move(other.touched_nodes_);
    touched_edges_ = std::move(other.touched_edges_);
    csr_structural_.store(kCsrStale, std::memory_order_relaxed);
  }
  return *this;
}

Graph Graph::from_tiled(std::shared_ptr<const TiledTopology> topo) {
  FPR_CHECK(topo != nullptr, "from_tiled(nullptr)");
  topo->validate();
  Graph g;
  const NodeId n = topo->node_count;
  const EdgeId m = topo->edge_count;
  g.node_active_.assign(static_cast<std::size_t>(n), 1);
  g.ends_.assign(static_cast<std::size_t>(m), EdgeEnds{});
  g.weight_.assign(static_cast<std::size_t>(m), 0);
  g.active_.assign(static_cast<std::size_t>(m), 1);

  // Stamping pass: one tile-row-at-a-time walk over every synthesized slot.
  // The lower endpoint records {lower, ~upper} (the complement marks the
  // upper emission as pending); the upper endpoint must then find exactly
  // that pair, with a matching base weight, and confirms it. Together with
  // the range checks and the final sweep this proves each edge id in [0, m)
  // is emitted exactly once by each of its endpoints, so the traversal
  // backend can index state arrays unchecked.
  topo->for_each_node([&](NodeId v, const TiledTopology::Decoded& d) {
    topo->apply(d, [&](NodeId nbr, EdgeId e, const TiledSlot& slot) {
      FPR_CHECK(nbr >= 0 && nbr < n,
                "tiled template: node " << v << " synthesizes neighbor " << nbr
                                        << " outside [0, " << n << ")");
      FPR_CHECK(nbr != v, "tiled template: self-loop at node " << v);
      FPR_CHECK(e >= 0 && e < m, "tiled template: node " << v << " synthesizes edge " << e
                                                         << " outside [0, " << m << ")");
      EdgeEnds& ends = g.ends_[static_cast<std::size_t>(e)];
      if (v < nbr) {
        FPR_CHECK(ends.u == kInvalidNode,
                  "tiled template: edge " << e << " emitted twice as a lower endpoint (nodes "
                                          << ends.u << " and " << v << ")");
        ends = EdgeEnds{v, ~nbr};
        g.weight_[static_cast<std::size_t>(e)] = slot.base_weight;
      } else {
        FPR_CHECK(ends.u == nbr && ends.v == ~v,
                  "tiled template: edge " << e << " emitted by upper endpoint " << v
                                          << " with lower end " << nbr << ", but recorded {"
                                          << ends.u << ", " << (ends.v < 0 ? ~ends.v : ends.v)
                                          << (ends.v < 0 ? "} (pending)" : "} (already emitted)"));
        FPR_CHECK(g.weight_[static_cast<std::size_t>(e)] == slot.base_weight,
                  "tiled template: edge " << e << " base weight mismatch between endpoints");
        ends.v = v;
      }
    });
  });

  g.usable_edges_ = m;
  g.usable_weight_sum_ = 0;
  for (EdgeId e = 0; e < m; ++e) {
    const EdgeEnds& ends = g.ends_[static_cast<std::size_t>(e)];
    FPR_CHECK(ends.u != kInvalidNode, "tiled template: edge id " << e << " is never emitted");
    FPR_CHECK(ends.v >= 0, "tiled template: edge " << e << " is never emitted by its upper "
                                                   << "endpoint " << ~ends.v);
    g.usable_weight_sum_ += g.weight_[static_cast<std::size_t>(e)];
  }
  g.topo_ = std::move(topo);
  g.revision_ = 1;
  g.structural_revision_ = 1;
  return g;
}

NodeId Graph::add_nodes(NodeId count) {
  FPR_CHECK(count >= 0, "add_nodes count=" << count << " must be non-negative");
  topo_ = nullptr;  // every id and state bit stays; csr() serves adjacency from here on
  const NodeId first = node_count();
  node_active_.resize(node_active_.size() + static_cast<std::size_t>(count), 1);
  if (track_touched_) node_dirty_.resize(node_active_.size(), 0);
  ++revision_;
  ++structural_revision_;
  return first;
}

EdgeId Graph::add_edge(NodeId u, NodeId v, Weight w) {
  FPR_CHECK(u >= 0 && u < node_count(),
            "add_edge endpoint u=" << u << " outside node range [0, " << node_count() << ")");
  FPR_CHECK(v >= 0 && v < node_count(),
            "add_edge endpoint v=" << v << " outside node range [0, " << node_count() << ")");
  FPR_CHECK(u != v, "add_edge self-loop at node " << u
                        << " — self-loops are never useful in a routing graph");
  FPR_CHECK(w >= 0, "add_edge {" << u << ", " << v << "} weight " << w
                        << " — routing costs are non-negative");
  topo_ = nullptr;
  const EdgeId id = edge_count();
  ends_.push_back(EdgeEnds{u, v});
  weight_.push_back(w);
  active_.push_back(1);
  if (node_active(u) && node_active(v)) {
    ++usable_edges_;
    usable_weight_sum_ += w;
  }
  if (track_touched_) edge_dirty_.resize(ends_.size(), 0);
  ++revision_;
  ++structural_revision_;
  return id;
}

void Graph::enter_usable(EdgeId e) {
  const Weight w = weight_[static_cast<std::size_t>(e)];
  ++usable_edges_;
  usable_weight_sum_ += w;
}

void Graph::leave_usable(EdgeId e) {
  --usable_edges_;
  usable_weight_sum_ -= weight_[static_cast<std::size_t>(e)];
}

void Graph::set_edge_weight(EdgeId e, Weight w) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "set_edge_weight edge " << e << " outside edge range [0, " << edge_count() << ")");
  FPR_CHECK(w >= 0, "set_edge_weight edge " << e << " to " << w
                        << " — routing costs are non-negative");
  mark_edge_touched(e);
  Weight& cur = weight_[static_cast<std::size_t>(e)];
  if (edge_usable(e)) usable_weight_sum_ += w - cur;
  cur = w;
  ++revision_;
}

void Graph::add_edge_weight(EdgeId e, Weight delta) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "add_edge_weight edge " << e << " outside edge range [0, " << edge_count() << ")");
  Weight& cur = weight_[static_cast<std::size_t>(e)];
  FPR_CHECK(cur + delta >= 0, "add_edge_weight edge " << e << " (weight " << cur << ") by "
                                  << delta << " would make the routing cost negative");
  mark_edge_touched(e);
  cur += delta;
  if (edge_usable(e)) usable_weight_sum_ += delta;
  ++revision_;
}

void Graph::remove_edge(EdgeId e) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "remove_edge edge " << e << " outside edge range [0, " << edge_count() << ")");
  mark_edge_touched(e);
  if (edge_usable(e)) leave_usable(e);
  active_[static_cast<std::size_t>(e)] = 0;
  ++revision_;
}

void Graph::restore_edge(EdgeId e) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "restore_edge edge " << e << " outside edge range [0, " << edge_count() << ")");
  mark_edge_touched(e);
  char& act = active_[static_cast<std::size_t>(e)];
  if (act == 0) {
    act = 1;
    if (edge_usable(e)) enter_usable(e);
  }
  ++revision_;
}

void Graph::remove_node(NodeId v) {
  FPR_CHECK(v >= 0 && v < node_count(),
            "remove_node node " << v << " outside node range [0, " << node_count() << ")");
  if (node_active(v)) {
    mark_node_touched(v);
    node_active_[static_cast<std::size_t>(v)] = 0;
    // v was active, so each incident edge was usable iff it is active and
    // its far endpoint is.
    for_each_incident(v, [&](NodeId nbr, EdgeId e) {
      if (active_[static_cast<std::size_t>(e)] != 0 && node_active(nbr)) leave_usable(e);
    });
  }
  ++revision_;
}

void Graph::restore_node(NodeId v) {
  FPR_CHECK(v >= 0 && v < node_count(),
            "restore_node node " << v << " outside node range [0, " << node_count() << ")");
  if (!node_active(v)) {
    mark_node_touched(v);
    node_active_[static_cast<std::size_t>(v)] = 1;
    for_each_incident(v, [&](NodeId nbr, EdgeId e) {
      if (active_[static_cast<std::size_t>(e)] != 0 && node_active(nbr)) enter_usable(e);
    });
  }
  ++revision_;
}

void Graph::enable_touch_tracking() {
  track_touched_ = true;
  node_dirty_.assign(static_cast<std::size_t>(node_count()), 0);
  edge_dirty_.assign(static_cast<std::size_t>(edge_count()), 0);
  touched_nodes_.clear();
  touched_edges_.clear();
}

void Graph::clear_touched() {
  for (const NodeId v : touched_nodes_) node_dirty_[static_cast<std::size_t>(v)] = 0;
  for (const EdgeId e : touched_edges_) edge_dirty_[static_cast<std::size_t>(e)] = 0;
  touched_nodes_.clear();
  touched_edges_.clear();
}

void Graph::rebuild_csr(std::uint64_t want) const {
  MutexLock lock(csr_mu_);
  if (csr_structural_.load(std::memory_order_relaxed) != want) {
    build_csr();
    csr_structural_.store(want, std::memory_order_release);
  }
}

void Graph::build_csr() const {
  // One counting sort of the endpoint store by node. Edges are placed in
  // ascending id, so each slice lists its edges in ascending id — add_edge's
  // insertion order and the template's slot order, which the
  // deterministic-parent guarantee of dijkstra() relies on.
  const auto n = static_cast<std::size_t>(node_count());
  csr_.offsets.assign(n + 1, 0);
  for (const EdgeEnds& p : ends_) {
    ++csr_.offsets[static_cast<std::size_t>(p.u) + 1];
    ++csr_.offsets[static_cast<std::size_t>(p.v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) csr_.offsets[v + 1] += csr_.offsets[v];
  csr_.neighbor.resize(ends_.size() * 2);
  csr_.edge_id.resize(ends_.size() * 2);
  std::vector<EdgeId> next(csr_.offsets.begin(), csr_.offsets.end() - 1);
  const auto place = [&](NodeId v, NodeId nbr, EdgeId e) {
    const auto k = static_cast<std::size_t>(next[static_cast<std::size_t>(v)]++);
    csr_.neighbor[k] = nbr;
    csr_.edge_id[k] = e;
  };
  for (EdgeId e = 0; e < edge_count(); ++e) {
    const EdgeEnds& p = ends_[static_cast<std::size_t>(e)];
    place(p.u, p.v, e);
    place(p.v, p.u, e);
  }
}

}  // namespace fpr
