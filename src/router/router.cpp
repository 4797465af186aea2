#include "router/router.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "core/parallel.hpp"
#include "graph/dijkstra.hpp"
#include "router/internal.hpp"
#include "router/negotiate.hpp"
#include "router/partition.hpp"

namespace fpr {

std::string_view router_mode_name(RouterMode mode) {
  switch (mode) {
    case RouterMode::kPaper: return "paper";
    case RouterMode::kNegotiated: return "negotiated";
  }
  return "?";
}

std::string_view net_status_name(NetStatus status) {
  switch (status) {
    case NetStatus::kRouted: return "routed";
    case NetStatus::kFailedCongestion: return "congestion";
    case NetStatus::kBlockedByFault: return "fault";
    case NetStatus::kAbortedBudget: return "budget";
  }
  return "?";
}

namespace {

/// Undo record for commit_net: every wire node it consumed and every edge
/// it charged the congestion penalty to (one entry per application, so an
/// edge penalized through several siblings appears several times). The
/// same shape the public API records per net when
/// RouterOptions::record_commits is on.
using CommitLog = NetCommitLog;

/// Commits a routed net: removes its wire nodes from the graph (electrical
/// disjointness) and charges the congestion penalty to the edges of the
/// remaining free wires in every channel tile the net touched. When `log`
/// is given, records enough to invert the commit exactly.
int commit_net(Device& device, const std::vector<EdgeId>& edges, double congestion_penalty,
               CommitLog* log = nullptr) {
  Graph& g = device.graph();
  std::vector<NodeId> wires;
  for (const EdgeId e : edges) {
    const Graph::Edge ed = g.edge(e);
    for (const NodeId v : {ed.u, ed.v}) {
      if (device.is_wire(v) && g.node_active(v)) {
        wires.push_back(v);
        g.remove_node(v);
      }
    }
  }
  if (congestion_penalty > 0) {
    for (const NodeId w : wires) {
      device.for_each_tile_sibling(w, [&](NodeId sibling) {
        if (!g.node_active(sibling)) return;
        for (const EdgeId e : g.incident_edges(sibling)) {
          if (g.edge_active(e)) {
            g.add_edge_weight(e, congestion_penalty);
            if (log) log->penalized.push_back(e);
          }
        }
      });
    }
  }
  if (log) log->wires.insert(log->wires.end(), wires.begin(), wires.end());
  return static_cast<int>(wires.size());
}

/// Exact inverse of the commits recorded in `log`: subtracts every penalty
/// delta and reactivates every consumed wire node, leaving the device as if
/// the net had never been attempted.
void rollback_commits(Device& device, const CommitLog& log, double congestion_penalty) {
  Graph& g = device.graph();
  for (auto it = log.penalized.rbegin(); it != log.penalized.rend(); ++it) {
    g.add_edge_weight(*it, -congestion_penalty);
  }
  for (auto it = log.wires.rbegin(); it != log.wires.rend(); ++it) {
    g.restore_node(*it);
  }
}

/// Scoped congestion relief for fault retries: remaps every edge weight
/// w -> 1 + (w - 1) * scale on construction and undoes the remap exactly on
/// destruction. Penalties charged while the guard is live (the decomposed
/// baseline commits per sink mid-attempt) are preserved: the destructor
/// restores original + (current - relaxed), i.e. only the relief delta is
/// removed. All arithmetic is over dyadic rationals (weights, the 0.25
/// penalty, backoff powers of 0.5), so the restore is bit-exact.
///
/// Only edges whose weight differs from the base 1.0 are snapshotted: for a
/// base-weight edge relaxed == original == current-delta, so both the remap
/// and the restore are no-ops, and the congested fraction of a device is
/// tiny — the guard costs O(congested edges), not O(E), per retry (one
/// full-array scan aside, with no per-edge revision bumps or restores).
class CongestionRelief {
 public:
  CongestionRelief(Graph& g, double scale) : g_(g) {
    // Engagement counter: relief assumes the paper mode's exclusive wire
    // ownership (weights encode the 0.25-per-commit penalties it relaxes).
    // Negotiated-mode weights encode present/history pricing instead, so
    // relief must never run there — negotiate_paper_boundary_test pins
    // this counter at zero across negotiated runs.
    counters().congestion_reliefs.fetch_add(1, std::memory_order_relaxed);
    const EdgeId count = g.edge_count();
    for (EdgeId e = 0; e < count; ++e) {
      const Weight w = g.edge_weight(e);
      if (w == 1.0) continue;
      const Weight relaxed = 1.0 + (w - 1.0) * scale;
      touched_.push_back({e, w, relaxed});
      if (relaxed != w) g_.set_edge_weight(e, relaxed);
    }
  }

  CongestionRelief(const CongestionRelief&) = delete;
  CongestionRelief& operator=(const CongestionRelief&) = delete;

  ~CongestionRelief() {
    for (const Entry& t : touched_) {
      const Weight target = t.original + (g_.edge_weight(t.edge) - t.relaxed);
      if (g_.edge_weight(t.edge) != target) g_.set_edge_weight(t.edge, target);
    }
  }

 private:
  struct Entry {
    EdgeId edge;
    Weight original;
    Weight relaxed;
  };

  Graph& g_;
  std::vector<Entry> touched_;
};

/// Routes one net as a whole tree with the configured algorithm
/// (the critical-net algorithm when the net is flagged critical).
RoutingTree route_whole_net(const Graph& g, const Net& net, bool critical,
                            const RouterOptions& options, PathOracle& oracle) {
  const Algorithm algo = critical ? options.critical_algorithm : options.algorithm;
  return route(g, net, algo, oracle, options.route_options);
}

/// Baseline: each sink is an independent two-pin connection; later
/// connections may not reuse earlier ones' wires (they are consumed by the
/// caller between... no — within the *net* the connections stay disjoint
/// too, which is exactly the waste the paper's Steiner routing removes).
struct TwoPinOutcome {
  bool routed = false;
  bool budget_aborted = false;
  std::vector<EdgeId> edges;
  Weight wirelength = 0;
  Weight max_pathlength = 0;
  int physical_max_path = 0;
  int wire_nodes_used = 0;
};

TwoPinOutcome route_two_pin_decomposed(Device& device, const Net& net,
                                       double congestion_penalty, WorkBudget* budget,
                                       CommitLog* out_log = nullptr) {
  Graph& g = device.graph();
  TwoPinOutcome out;
  std::vector<EdgeId> all_edges;
  CommitLog log;
  // One tree object across all sinks: each commit mutates the graph, so the
  // search must rerun per sink, but the reuse overload keeps the per-sink
  // reruns allocation-free (the tree's vectors are recycled).
  ShortestPathTree spt;
  for (const NodeId sink : net.sinks) {
    dijkstra(g, net.source, spt, budget);
    if (!spt.reached(sink)) {
      // A later sink failed after earlier sinks already consumed wires and
      // charged congestion: the whole net fails, so give those resources
      // back — otherwise the dead net starves every net after it for the
      // rest of the pass.
      rollback_commits(device, log, congestion_penalty);
      TwoPinOutcome failed;
      failed.budget_aborted = spt.budget_aborted;
      return failed;  // routed == false, zero wires held
    }
    const auto path = spt.path_edges_to(sink);
    out.max_pathlength = std::max(out.max_pathlength, spt.distance(sink));
    out.physical_max_path = std::max(out.physical_max_path, static_cast<int>(path.size()));
    out.wirelength += spt.distance(sink);
    all_edges.insert(all_edges.end(), path.begin(), path.end());
    // Consume immediately so the next connection cannot share wires.
    out.wire_nodes_used += commit_net(device, path, congestion_penalty, &log);
  }
  out.routed = true;
  out.edges = std::move(all_edges);
  if (out_log != nullptr) *out_log = std::move(log);
  return out;
}

}  // namespace

// Shared post-hoc diagnosis (router/internal.hpp): identical logic serves
// the paper-mode loop below and the negotiated loop in negotiate.cpp.
namespace router_internal {

void classify_fault_blocked(const Device& device, const Circuit& circuit,
                            RoutingResult& result) {
  std::unique_ptr<Device> probe;
  PathOracle* oracle = nullptr;
  std::unique_ptr<PathOracle> oracle_storage;
  for (std::size_t idx = 0; idx < result.nets.size(); ++idx) {
    NetRouteResult& record = result.nets[idx];
    if (record.status != NetStatus::kFailedCongestion) continue;
    if (probe == nullptr) {
      probe = std::make_unique<Device>(device.spec());
      // The probe mirrors the device's defects only: installed fault set
      // plus the live-event overlay (either may be absent on its own).
      if (device.faults() != nullptr) probe->install_faults(device.faults()->spec());
      if (device.has_fault_events()) probe->apply_fault_event(device.fault_event_overlay());
      oracle_storage = std::make_unique<PathOracle>(probe->graph());
      oracle = oracle_storage.get();
    }
    const Net net = to_graph_net(*probe, circuit.nets[idx]);
    const ShortestPathTree& spt = oracle->from(net.source);
    for (const NodeId sink : net.sinks) {
      if (!spt.reached(sink)) {
        record.status = NetStatus::kBlockedByFault;
        record.blocked_sink = sink;
        break;
      }
    }
  }
}

namespace {

/// Physical wirelength of `net` routed alone on a pristine fault-free
/// device — the fault-free baseline the detour-overhead statistic compares
/// against. Returns -1 when even the solo route fails (pathological widths).
int solo_fault_free_wirelength(Device& pristine, const CircuitNet& circuit_net,
                               bool critical, const RouterOptions& options) {
  pristine.reset();
  const Net net = to_graph_net(pristine, circuit_net);
  if (net.sinks.empty()) return 0;
  Graph& g = pristine.graph();
  PathOracle oracle(g);
  const std::vector<NodeId> terminals = net.terminals();
  const Algorithm algo = critical ? options.critical_algorithm : options.algorithm;
  if (algorithm_supports_scoped_paths(algo)) oracle.set_scope(terminals);
  const RoutingTree tree = route(g, net, algo, oracle, options.route_options);
  if (!tree.spans(terminals)) return -1;
  return static_cast<int>(tree.edges().size());
}

}  // namespace

void accumulate_degradation_stats(const Device& device, const Circuit& circuit,
                                  const RouterOptions& options, RoutingResult& result) {
  std::unique_ptr<Device> pristine;  // built lazily: most runs have no detours
  for (std::size_t idx = 0; idx < result.nets.size(); ++idx) {
    const NetRouteResult& record = result.nets[idx];
    switch (record.status) {
      case NetStatus::kBlockedByFault: ++result.nets_blocked_by_fault; break;
      case NetStatus::kAbortedBudget: ++result.nets_aborted_budget; break;
      default: break;
    }
    if (!record.routed() || record.retries == 0) continue;
    ++result.nets_rerouted_around_faults;
    if (pristine == nullptr) pristine = std::make_unique<Device>(device.spec());
    const int solo = solo_fault_free_wirelength(*pristine, circuit.nets[idx],
                                                circuit.nets[idx].critical, options);
    if (solo >= 0 && record.physical_wirelength > solo) {
      result.detour_wirelength_overhead += record.physical_wirelength - solo;
    }
  }
}

void accumulate_totals(RoutingResult& result) {
  for (const auto& record : result.nets) {
    if (!record.routed()) continue;
    result.total_wirelength += record.wirelength;
    result.total_wire_nodes += record.wire_nodes_used;
    result.total_max_pathlength += record.max_pathlength;
    result.total_optimal_max_pathlength += record.optimal_max_pathlength;
    result.total_physical_wirelength += record.physical_wirelength;
    result.total_physical_max_path += record.physical_max_path;
  }
}

}  // namespace router_internal

namespace {

// ---------------------------------------------------------------------------
// Net-parallel wave scheduling (DESIGN.md §11).
//
// The per-pass net loop speculates partition-independent nets concurrently
// against the wave-start device state (strictly read-only), then replays
// them in serial order: a speculation is accepted — committed exactly as the
// serial router would have — iff nothing committed since the wave started
// intersects the rectangle of device state the speculative search actually
// read; otherwise the net is recomputed on the live device. Acceptance
// implies bit-identity (a serial route at replay time would have read
// exactly the same state, hence computed exactly the same tree), so the
// partition tree is purely a scheduler: it decides what to TRY in parallel,
// never what the answer is.
// ---------------------------------------------------------------------------

/// Everything the per-net routine needs; one instance per route_circuit.
struct NetContext {
  Device& device;
  const Circuit& circuit;
  const RouterOptions& options;
  WorkBudget& budget;
  int fault_retries;
  /// When non-null (record_commits), indexed like circuit.nets: each
  /// committed net writes its undo record to (*commit_logs)[idx].
  std::vector<NetCommitLog>* commit_logs = nullptr;
};

/// Folds one commit's writes into `box`: the consumed wire nodes and both
/// endpoints of every penalized edge — exactly the graph state (activity
/// and weights) the commit changed.
void include_commit_box(const Device& device, const Graph& g, const CommitLog& log,
                        TileRect& box) {
  for (const NodeId w : log.wires) {
    const Device::TilePos t = device.node_tile(w);
    box.include(t.x, t.y);
  }
  for (const EdgeId e : log.penalized) {
    const Graph::Edge ed = g.edge(e);
    for (const NodeId v : {ed.u, ed.v}) {
      const Device::TilePos t = device.node_tile(v);
      box.include(t.x, t.y);
    }
  }
}

/// Routes net `idx` on the live device — the serial per-net routine: one
/// whole-net attempt (or the decomposed baseline), the fault-retry ladder,
/// measurement, and the commit. On failure appends idx to `failed`. When
/// `write_box` is non-null, the commit's writes are folded into it (wave
/// replay dirty-tracking).
void route_net_live(NetContext& ctx, std::size_t idx, NetRouteResult& record,
                    std::vector<std::size_t>& failed, TileRect* write_box) {
  Device& device = ctx.device;
  const RouterOptions& options = ctx.options;
  WorkBudget& budget = ctx.budget;
  const Net net = to_graph_net(device, ctx.circuit.nets[idx]);
  if (net.sinks.empty()) {  // all pins on one block: trivially routed
    record.status = NetStatus::kRouted;
    return;
  }
  Graph& g = device.graph();

  if (options.decompose_two_pin) {
    // Optimal pathlength bound measured before any of the net's own
    // connections consume resources.
    PathOracle oracle(g);
    oracle.set_budget(&budget);
    const auto& spt = oracle.from(net.source);
    Weight opt = 0;
    bool reachable = true;
    for (const NodeId s : net.sinks) {
      if (!spt.reached(s)) reachable = false;
      opt = std::max(opt, spt.distance(s));
    }
    if (!reachable) {
      record.status =
          budget.exhausted() ? NetStatus::kAbortedBudget : NetStatus::kFailedCongestion;
      failed.push_back(idx);
      return;
    }
    CommitLog* log =
        ctx.commit_logs != nullptr ? &(*ctx.commit_logs)[idx] : nullptr;
    auto out = route_two_pin_decomposed(device, net, options.congestion_penalty, &budget, log);
    double relief_scale = 1.0;
    while (!out.routed && !out.budget_aborted && record.retries < ctx.fault_retries) {
      ++record.retries;
      relief_scale *= options.fault_relief_backoff;
      CongestionRelief relief(g, relief_scale);
      out = route_two_pin_decomposed(device, net, options.congestion_penalty, &budget, log);
    }
    if (!out.routed) {
      record.status =
          out.budget_aborted ? NetStatus::kAbortedBudget : NetStatus::kFailedCongestion;
      failed.push_back(idx);
      return;
    }
    record.status = NetStatus::kRouted;
    record.edges = std::move(out.edges);
    record.wirelength = out.wirelength;
    record.max_pathlength = out.max_pathlength;
    record.optimal_max_pathlength = opt;
    record.physical_wirelength = static_cast<int>(record.edges.size());
    record.physical_max_path = out.physical_max_path;
    record.wire_nodes_used = out.wire_nodes_used;
    return;
  }

  PathOracle oracle(g);
  oracle.set_budget(&budget);
  const std::vector<NodeId> terminals = net.terminals();
  const bool critical = ctx.circuit.nets[idx].critical;
  const Algorithm algo = critical ? options.critical_algorithm : options.algorithm;
  // Radius-bounded shortest paths: local nets only pay for their
  // neighborhood of the device graph, not the whole chip.
  if (algorithm_supports_scoped_paths(algo)) {
    oracle.set_scope(terminals);
  }
  RoutingTree tree = route_whole_net(g, net, critical, options, oracle);

  // Fault-retry ladder: a defect can sever exactly the corridor the
  // congestion weights and candidate cap funnel this net into, so each
  // retry widens the search — unscoped oracle, unlimited candidates,
  // then the DJKA arborescence (pure shortest paths reach anything
  // reachable) — under geometrically relaxed congestion.
  double relief_scale = 1.0;
  while (!tree.spans(terminals) && !budget.exhausted() &&
         record.retries < ctx.fault_retries) {
    ++record.retries;
    relief_scale *= options.fault_relief_backoff;
    CongestionRelief relief(g, relief_scale);
    PathOracle retry_oracle(g);
    retry_oracle.set_budget(&budget);
    const Algorithm retry_algo = record.retries == 1 ? algo : Algorithm::kDjka;
    const RouteOptions wide{CandidateStrategy::kAllNodes, 0, 0};
    tree = route(g, net, retry_algo, retry_oracle, wide);
  }

  if (!tree.spans(terminals)) {
    record.status =
        budget.exhausted() ? NetStatus::kAbortedBudget : NetStatus::kFailedCongestion;
    failed.push_back(idx);
    return;
  }
  // Measure on the true (unrelieved) weights, and never through a tree the
  // work budget may have truncated: a budget-aborted Dijkstra run stays
  // cached as a partial tree (path_oracle.hpp), so re-using the per-net
  // oracle here can record a tentative or even infinite "optimal" bound
  // for a net that ROUTED. Measurement is post-hoc diagnosis, not routing
  // work, so it must neither charge the budget nor trust budget-shaped
  // caches. The per-net oracle is safe only for an unbudgeted first
  // attempt (its cached source trees are then complete for the terminals);
  // a retried or budget-limited net is measured the way
  // classify_fault_blocked's probes run: fresh oracle, no scope, no budget.
  oracle.set_budget(nullptr);
  TreeMetrics metrics;
  if (record.retries == 0 && budget.unlimited()) {
    metrics = measure(g, net, tree, oracle);
  } else {
    PathOracle measure_oracle(g);
    metrics = measure(g, net, tree, measure_oracle);
  }
  record.status = NetStatus::kRouted;
  record.edges = tree.edges();
  record.wirelength = metrics.wirelength;
  record.max_pathlength = metrics.max_pathlength;
  record.optimal_max_pathlength = metrics.optimal_max_pathlength;
  record.physical_wirelength = static_cast<int>(tree.edges().size());
  record.physical_max_path = tree.max_path_edge_count(net.source, net.sinks);
  CommitLog local_log;
  CommitLog* log = ctx.commit_logs != nullptr ? &(*ctx.commit_logs)[idx] : nullptr;
  if (log == nullptr && write_box != nullptr) log = &local_log;
  record.wire_nodes_used = commit_net(device, tree.edges(), options.congestion_penalty, log);
  if (write_box != nullptr) include_commit_box(device, g, *log, *write_box);
}

/// Collapses every Dijkstra run of a speculative route into one rectangle
/// over the device's unified tile grid.
class BoxFootprint final : public SearchFootprintObserver {
 public:
  explicit BoxFootprint(const Device& device) : device_(&device) {}

  void on_search(std::span<const NodeId> labeled) override {
    for (const NodeId v : labeled) {
      const Device::TilePos t = device_->node_tile(v);
      box_.include(t.x, t.y);
    }
  }

  const TileRect& box() const { return box_; }

 private:
  const Device* device_;
  TileRect box_;
};

/// Every read a corridor-candidate whole-net construction performs sits
/// within Chebyshev distance 2 (in unified tile units) of a node some
/// Dijkstra run labeled: relaxation reads touch labeled endpoints, tree
/// costs read edges between labeled nodes, and candidate enumeration reads
/// the 1-hop neighborhood of oracle path nodes — one edge away, and a
/// device edge spans at most 2 tile units (Device::node_tile). Padding the
/// labeled bounding box by 2 therefore covers the whole read set.
constexpr int kReadHalo = 2;

/// One speculative net route: where it sits in the pass order, what routing
/// it produced against the wave-start device state, and the region of the
/// device the search observed.
struct Speculation {
  std::size_t pos = 0;  // position in the pass order
  std::size_t idx = 0;  // net index
  bool spans = false;   // the speculative tree spans its terminals
  long long work = 0;   // node expansions the attempt performed
  TileRect read_box;    // labeled nodes + halo: all state the attempt read
  std::vector<EdgeId> edges;
  TreeMetrics metrics;
  int physical_max_path = 0;
};

/// Read-only speculative mirror of route_net_live's first whole-net attempt
/// (the gate guarantees: non-trivial net, scoped algorithm, corridor
/// candidates, no shared budget). Runs on pool workers against the
/// wave-start device state; its only outputs are `spec` and this thread's
/// footprint.
void speculate_net(const Device& device, const Circuit& circuit, const RouterOptions& options,
                   Speculation& spec) {
  const Graph& g = device.graph();
  BoxFootprint footprint(device);
  ScopedSearchFootprint guard(&footprint);
  const Net net = to_graph_net(device, circuit.nets[spec.idx]);
  WorkBudget local;  // unlimited: tracks expansions for work accounting
  PathOracle oracle(g);
  oracle.set_budget(&local);
  const std::vector<NodeId> terminals = net.terminals();
  const bool critical = circuit.nets[spec.idx].critical;
  oracle.set_scope(terminals);
  RoutingTree tree = route_whole_net(g, net, critical, options, oracle);
  spec.spans = tree.spans(terminals);
  if (spec.spans) {
    // Mirror route_net_live: measurement is unbudgeted there, so it must
    // not count toward spec.work here either, or an accepted speculation
    // would charge the shared budget more than the serial route it replays.
    oracle.set_budget(nullptr);
    spec.metrics = measure(g, net, tree, oracle);
    spec.edges = tree.edges();
    spec.physical_max_path = tree.max_path_edge_count(net.source, net.sinks);
  }
  spec.work = local.used;
  spec.read_box = footprint.box().expanded(kReadHalo);
}

/// Replay-time acceptance test. Returns true when the speculation was
/// accepted and fully applied (record filled, committed, write box pushed);
/// false when the net must be recomputed on the live device.
bool accept_speculation(NetContext& ctx, Speculation& spec, NetRouteResult& record,
                        std::vector<std::size_t>& failed,
                        std::vector<TileRect>& wave_writes) {
  // Accepting requires that a serial route at this position would have read
  // exactly the state the speculation read: everything committed since wave
  // start must miss the speculative read footprint.
  for (const TileRect& w : wave_writes) {
    if (spec.read_box.intersects(w)) return false;
  }
  // A clean failed attempt is final only when no fault-retry ladder would
  // follow it — the ladder relaxes GLOBAL edge weights, so it always runs
  // live.
  if (!spec.spans && ctx.fault_retries > 0) return false;
  counters().nets_spec_accepted.fetch_add(1, std::memory_order_relaxed);
  ctx.budget.used += spec.work;  // the exact expansions a serial route costs
  if (!spec.spans) {
    record.status = NetStatus::kFailedCongestion;
    failed.push_back(spec.idx);
    return true;
  }
  record.status = NetStatus::kRouted;
  record.edges = std::move(spec.edges);
  record.wirelength = spec.metrics.wirelength;
  record.max_pathlength = spec.metrics.max_pathlength;
  record.optimal_max_pathlength = spec.metrics.optimal_max_pathlength;
  record.physical_wirelength = static_cast<int>(record.edges.size());
  record.physical_max_path = spec.physical_max_path;
  CommitLog local_log;
  CommitLog* log =
      ctx.commit_logs != nullptr ? &(*ctx.commit_logs)[spec.idx] : &local_log;
  record.wire_nodes_used =
      commit_net(ctx.device, record.edges, ctx.options.congestion_penalty, log);
  TileRect write_box;
  include_commit_box(ctx.device, ctx.device.graph(), *log, write_box);
  wave_writes.push_back(write_box);
  return true;
}

// Wave shaping: how many nets one wave may speculate and how far past the
// cursor the scheduler may look for independent ones. Fixed constants —
// deliberately NOT derived from the thread count, so the wave decomposition
// (and with it every counter a test could observe) is the same whether the
// pool has 2 workers or 32.
constexpr std::size_t kWaveNets = 16;
constexpr std::size_t kWaveScan = 64;

/// One full routing pass in wave mode. Equivalent to the serial loop by the
/// acceptance argument above; nets the scheduler skips (trivial, unscoped
/// algorithm, conflicting region) simply route serially at their position.
void route_pass_waves(NetContext& ctx, const std::vector<std::size_t>& order,
                      RoutingResult& result, std::vector<std::size_t>& failed,
                      ThreadPool& pool, const PartitionTree& ptree,
                      const std::vector<int>& net_region) {
  Device& device = ctx.device;
  std::vector<Speculation> wave;
  std::vector<int> regions;
  std::vector<TileRect> wave_writes;
  std::size_t pos = 0;
  while (pos < order.size()) {
    wave.clear();
    regions.clear();
    const std::size_t scan_end = std::min(order.size(), pos + kWaveScan);
    std::size_t span_end = pos + 1;
    for (std::size_t p = pos; p < scan_end && wave.size() < kWaveNets; ++p) {
      const int region = net_region[order[p]];
      if (region < 0) continue;  // never speculated: routes live at replay
      bool independent = true;
      for (const int r : regions) {
        if (!ptree.independent(region, r)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      regions.push_back(region);
      Speculation spec;
      spec.pos = p;
      spec.idx = order[p];
      wave.push_back(std::move(spec));
      span_end = p + 1;
    }
    if (wave.size() < 2) {
      // No concurrency at this cursor: route one net live and move on.
      route_net_live(ctx, order[pos], result.nets[order[pos]], failed, nullptr);
      ++pos;
      continue;
    }

    counters().parallel_waves.fetch_add(1, std::memory_order_relaxed);
    counters().nets_speculated.fetch_add(wave.size(), std::memory_order_relaxed);
    // Publish the adjacency snapshot once, serially. A tiled graph's
    // speculative searches synthesize adjacency from the template instead,
    // so building (and paying the memory for) a CSR would be pure waste.
    if (!device.graph().tiled()) device.graph().csr();
    pool.parallel_for(wave.size(), [&](std::size_t i) {
      speculate_net(device, ctx.circuit, ctx.options, wave[i]);
    });

    // Serial-order replay over the wave's span.
    wave_writes.clear();
    std::size_t next = 0;
    for (std::size_t p = pos; p < span_end; ++p) {
      const std::size_t idx = order[p];
      NetRouteResult& record = result.nets[idx];
      Speculation* spec = nullptr;
      if (next < wave.size() && wave[next].pos == p) spec = &wave[next++];
      if (spec != nullptr && accept_speculation(ctx, *spec, record, failed, wave_writes)) {
        continue;
      }
      if (spec != nullptr) {
        counters().nets_spec_recomputed.fetch_add(1, std::memory_order_relaxed);
      }
      TileRect write_box;
      route_net_live(ctx, idx, record, failed, &write_box);
      if (!write_box.empty()) wave_writes.push_back(write_box);
    }
    pos = span_end;
  }
}

/// Partition-tree region per net for the wave scheduler, or -1 for nets
/// that always route live: trivial single-block nets and nets whose
/// algorithm scans unscoped oracle trees (their reads are unbounded, so no
/// footprint rectangle could validate them).
std::vector<int> schedule_regions(const Circuit& circuit, const RouterOptions& options,
                                  const PartitionTree& ptree, const TileRect& bounds) {
  std::vector<int> regions(circuit.nets.size(), -1);
  for (std::size_t i = 0; i < circuit.nets.size(); ++i) {
    const CircuitNet& net = circuit.nets[i];
    const Algorithm algo = net.critical ? options.critical_algorithm : options.algorithm;
    if (!algorithm_supports_scoped_paths(algo)) continue;
    TileRect box;
    box.include(2 * net.source.x + 1, 2 * net.source.y + 1);
    bool trivial = true;
    for (const PinRef& p : net.sinks) {
      if (p != net.source) trivial = false;
      box.include(2 * p.x + 1, 2 * p.y + 1);
    }
    if (trivial) continue;  // no sinks after dedup: routes in O(1) anyway
    // Expected search extent: the scoped Dijkstra radius is ~1.3x the
    // terminal span plus slack, so pad the terminal box accordingly. The
    // margin is a scheduling heuristic — too small shows up as rejected
    // speculations, too large as missed parallelism, never as a wrong
    // result.
    const int span = box.width() > box.height() ? box.width() : box.height();
    regions[i] = ptree.assign(box.expanded(6 + span / 4).clipped(bounds));
  }
  return regions;
}

}  // namespace

namespace router_internal {

void route_single_net(Device& device, const Circuit& circuit, const RouterOptions& options,
                      WorkBudget& budget, int fault_retries,
                      std::vector<NetCommitLog>* commit_logs, std::size_t idx,
                      NetRouteResult& record) {
  NetContext ctx{device, circuit, options, budget, fault_retries, commit_logs};
  std::vector<std::size_t> failed;  // single-net call: the status already says it
  route_net_live(ctx, idx, record, failed, nullptr);
}

}  // namespace router_internal

RoutingResult route_circuit(Device& device, const Circuit& circuit,
                            const RouterOptions& options) {
  if (options.mode == RouterMode::kNegotiated) {
    return route_circuit_negotiated(device, circuit, options);
  }
  const std::size_t net_count = circuit.nets.size();
  std::vector<std::size_t> order(net_count);
  std::iota(order.begin(), order.end(), 0);

  RoutingResult result;
  result.nets.assign(net_count, NetRouteResult{});

  // Deterministic work budget, shared by every search the call performs
  // (tree constructions, retries, the decomposed baseline). Node
  // expansions, never wall-clock: the same inputs exhaust it at the same
  // expansion on every platform.
  WorkBudget budget{options.node_budget};
  // Live fault events count as defects for the retry ladder and the
  // post-hoc fault classification: a from-scratch route on a device that
  // survived apply_fault_event() sees the same dead elements a
  // FaultSpec-faulted device would.
  const bool faulty = device.has_faults() || device.has_fault_events();
  const int fault_retries = faulty ? std::max(0, options.fault_retries) : 0;
  NetContext ctx{device, circuit, options, budget, fault_retries};

  // Net-parallel wave mode engages only for configurations whose first
  // attempts are read-confined: whole-net trees (no mid-attempt commits),
  // corridor candidates (enumeration stays inside the Dijkstra footprint),
  // and no node budget (speculative work must not depend on attempt
  // order). The result is bit-identical either way; the gate only decides
  // whether speculation can pay off.
  PoolLease lease(options.threads);
  const bool wave_mode = lease.pool().size() > 1 && net_count > 1 &&
                         !options.decompose_two_pin && options.node_budget <= 0 &&
                         options.route_options.candidates == CandidateStrategy::kCorridor;
  PartitionTree ptree;
  std::vector<int> net_region;
  if (wave_mode) {
    const TileRect bounds = device_tile_bounds(device);
    ptree = PartitionTree::build(bounds);
    net_region = schedule_regions(circuit, options, ptree, bounds);
  }

  int best_failed = static_cast<int>(net_count) + 1;
  int stalled = 0;
  for (int pass = 1; pass <= options.max_passes; ++pass) {
    device.reset();
    const long long work_so_far = budget.used;
    result = RoutingResult{};
    result.nets.assign(net_count, NetRouteResult{});
    if (options.record_commits) {
      result.commit_logs.assign(net_count, NetCommitLog{});
      ctx.commit_logs = &result.commit_logs;  // re-point: the vector was replaced
    }
    result.passes = pass;
    result.work_used = work_so_far;
    std::vector<std::size_t> failed;

    if (wave_mode) {
      route_pass_waves(ctx, order, result, failed, lease.pool(), ptree, net_region);
    } else {
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const std::size_t idx = order[pos];
        if (budget.exhausted()) {
          // Out of budget: everything not yet attempted this pass aborts.
          // Nothing is half-committed (whole-net commits happen only after a
          // spanning tree is found; the decomposed baseline rolls back), so
          // the committed prefix is a consistent partial solution.
          for (std::size_t rest = pos; rest < order.size(); ++rest) {
            result.nets[order[rest]].status = NetStatus::kAbortedBudget;
            failed.push_back(order[rest]);
          }
          break;
        }
        route_net_live(ctx, idx, result.nets[idx], failed, nullptr);
      }
    }

    result.work_used = budget.used;
    result.net_order = order;
    if (failed.empty()) {
      result.success = true;
      break;
    }
    result.failed_nets = static_cast<int>(failed.size());
    if (budget.exhausted()) {
      result.budget_exhausted = true;
      break;  // partial solution: committed prefix + per-net abort statuses
    }
    if (result.failed_nets < best_failed) {
      best_failed = result.failed_nets;
      stalled = 0;
    } else if (options.stall_passes > 0 && ++stalled >= options.stall_passes) {
      break;  // not converging; declare this width infeasible
    }
    if (!options.move_to_front) continue;

    // Move-to-front: failed nets (in encounter order) lead the next pass.
    // Membership via a flag vector — the std::find scan was O(failed x nets)
    // per pass. The reorder counter is the other half of the mode-gating
    // contract alongside CongestionRelief's: negotiated mode routes a fixed
    // order, so it must never advance there.
    counters().move_to_front_reorders.fetch_add(1, std::memory_order_relaxed);
    std::vector<char> is_failed(net_count, 0);
    for (const std::size_t idx : failed) is_failed[idx] = 1;
    std::vector<std::size_t> reordered = failed;
    reordered.reserve(net_count);
    for (const std::size_t idx : order) {
      if (!is_failed[idx]) reordered.push_back(idx);
    }
    if (reordered == order) break;  // no progress possible; give up early
    order = std::move(reordered);
  }

  // Post-hoc failure diagnosis + degradation statistics over the final
  // pass's statuses.
  if (faulty && !result.success) {
    router_internal::classify_fault_blocked(device, circuit, result);
  }
  router_internal::accumulate_degradation_stats(device, circuit, options, result);
  router_internal::accumulate_totals(result);
  return result;
}

}  // namespace fpr
