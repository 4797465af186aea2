#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "bench_util.hpp"
#include "check/oracles.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "fpga/tile_template.hpp"
#include "netlist/profiles.hpp"
#include "netlist/synth.hpp"
#include "router/repair.hpp"
#include "router/width_search.hpp"
#include "steiner/candidates.hpp"

namespace fprbench {
namespace {

using namespace fpr;
using Layers = std::map<std::string, double>;
using fpr::bench::Stopwatch;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

const CircuitProfile& profile(const std::string& name) {
  for (const auto* list : {&xc3000_profiles(), &xc4000_profiles()}) {
    for (const CircuitProfile& p : *list) {
      if (p.name == name) return p;
    }
  }
  throw std::invalid_argument("unknown circuit profile " + name);
}

ArchSpec arch_for(const std::string& circuit, bool xc4000, int width) {
  const CircuitProfile& p = profile(circuit);
  return xc4000 ? ArchSpec::xc4000(p.rows, p.cols, width)
                : ArchSpec::xc3000(p.rows, p.cols, width);
}

/// Seeded Fisher-Yates permutation: the order in which a workload issues
/// its calls.
template <class T>
void shuffle(std::vector<T>& items, unsigned seed, std::string_view salt) {
  SplitMixRng rng(mix64(seed, salt64(salt)));
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.below(i)]);
}

/// Long nets of 2-5 pins spread across an n x n array, in the spirit of
/// scale_circuit in bench/device_scale.cpp. Every pin sits near
/// an anchor of a 4 x 4 lattice over the array and is jittered by a few
/// tiles from the seed, so each seed draws different nets of the same
/// reach (and therefore comparable routing work).
Circuit large_circuit(int n, int net_count, unsigned seed) {
  struct Offset {
    int dx, dy;
  };
  constexpr Offset kSinkOffsets[] = {{2, 1}, {1, 3}, {3, 2}, {2, 3}};
  SplitMixRng rng(mix64(seed, salt64("large-device")));
  const int cell = n / 4;
  const int jitter = std::max(1, n / 100);
  const auto coord = [&](int anchor) {
    return std::clamp(anchor * cell + cell / 2 + rng.range(-jitter, jitter), 0, n - 1);
  };
  const auto pin = [&](int ax, int ay) { return PinRef{coord(ax), coord(ay)}; };
  Circuit c;
  c.name = "large-" + std::to_string(n);
  c.rows = n;
  c.cols = n;
  for (int i = 0; i < net_count; ++i) {
    const int ax = i % 4, ay = (i / 4) % 4;
    CircuitNet net;
    net.source = pin(ax, ay);
    for (int s = 0; s < 1 + i % 4; ++s) {
      net.sinks.push_back(pin((ax + kSinkOffsets[s].dx) % 4, (ay + kSinkOffsets[s].dy) % 4));
    }
    c.nets.push_back(std::move(net));
  }
  return c;
}

// ---------------------------------------------------------------------------
// Result bookkeeping
// ---------------------------------------------------------------------------

/// FNV-1a over each net's status and edges, as bench/device_scale.cpp
/// computes its route digest; chained across a workload's results.
class Digest {
 public:
  void mix(std::uint64_t x) {
    h_ ^= x;
    h_ *= 1099511628211ull;
  }
  void mix(const RoutingResult& r) {
    mix(static_cast<std::uint64_t>(r.nets.size()));
    for (const NetRouteResult& net : r.nets) {
      mix(static_cast<std::uint64_t>(net.status));
      for (const EdgeId e : net.edges) mix(static_cast<std::uint64_t>(e));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t digest_of(const RoutingResult& r) {
  Digest d;
  d.mix(r);
  return d.value();
}

/// Adds one final route to a pass's quality totals.
void add_route(PassQuality& q, Digest& digest, const RoutingResult& r, int width) {
  q.width_sum += width;
  q.wirelength += r.total_physical_wirelength;
  q.max_path += r.total_physical_max_path;
  q.nets += static_cast<long long>(r.nets.size());
  for (const NetRouteResult& net : r.nets) q.routed += net.routed() ? 1 : 0;
  digest.mix(r);
}

/// Outputs of one pass over the timed calls.
struct Pass {
  PassQuality quality;
  double solve_s = 0;
  std::vector<double> call_ms;
  long long attempted = 0;
  std::vector<std::string> failures;

  /// Runs one timed call: its latency counts toward solve_s unless it
  /// throws, in which case it is a failed operation.
  template <class Fn>
  bool timed(const std::string& what, Fn&& fn) {
    ++attempted;
    const Stopwatch watch;
    try {
      fn();
    } catch (const std::exception& e) {
      failures.push_back(what + " threw: " + e.what());
      return false;
    }
    const double s = watch.seconds();
    solve_s += s;
    call_ms.push_back(s * 1e3);
    return true;
  }
};

/// Process-global counts read at the boundaries of a traced pass.
struct Snapshot {
  std::uint64_t trees_measured = 0;
  std::uint64_t nets_speculated = 0;
  std::uint64_t nets_spec_accepted = 0;
  std::uint64_t negotiate_passes = 0;
  std::uint64_t congestion_reliefs = 0;
  std::uint64_t move_to_front_reorders = 0;
  TileTemplateStats templates;
  double cpu_s = 0;
  double wall_s = 0;

  static Snapshot take() {
    const Counters& c = counters();
    Snapshot s;
    s.trees_measured = c.trees_measured.load();
    s.nets_speculated = c.nets_speculated.load();
    s.nets_spec_accepted = c.nets_spec_accepted.load();
    s.negotiate_passes = c.negotiate_passes.load();
    s.congestion_reliefs = c.congestion_reliefs.load();
    s.move_to_front_reorders = c.move_to_front_reorders.load();
    s.templates = tile_template_stats();
    s.cpu_s = fprbench::cpu_s();
    s.wall_s = now_s();
    return s;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Traced-run helpers
// ---------------------------------------------------------------------------

/// Device construction as the traced run sees it: build time and the RSS
/// the new graph added.
std::unique_ptr<Device> build_device(const ArchSpec& spec, Trace& trace, Layers& layers) {
  const long rss_before = current_rss_kib();
  const Stopwatch watch;
  std::unique_ptr<Device> device;
  {
    const Trace::Scope span(trace, "fpga.Device");
    device = std::make_unique<Device>(spec);
  }
  layers["fpga.device_build_ms"] += watch.seconds() * 1e3;
  const double rss_mib = static_cast<double>(current_rss_kib() - rss_before) / 1024.0;
  layers["fpga.graph_rss_mib"] = std::max(layers["fpga.graph_rss_mib"], rss_mib);
  return device;
}

/// Per-layer attribution of one routed circuit: every net is replayed once
/// on `device` (pristine, same width) through the public graph, steiner
/// and arbor entry points the router uses internally — SSSP trees of the
/// terminals, the Steiner candidate set, then the tree construction.
void replay_nets(const Device& device, const Circuit& circuit, const RouterOptions& options,
                 Trace& trace, Layers& layers) {
  const Graph& g = device.graph();
  for (const CircuitNet& circuit_net : circuit.nets) {
    if (circuit_net.sinks.empty()) continue;
    const Algorithm algo = circuit_net.critical ? options.critical_algorithm : options.algorithm;
    const Net net = to_graph_net(device, circuit_net);
    const std::vector<NodeId> terminals = net.terminals();
    WorkBudget budget;
    PathOracle oracle(g);
    oracle.set_budget(&budget);
    if (algorithm_supports_scoped_paths(algo)) oracle.set_scope(terminals);
    {
      const Trace::Scope span(trace, "graph.sssp");
      for (const NodeId t : terminals) (void)oracle.from(t);
    }
    std::size_t candidates = 0;
    {
      const Trace::Scope span(trace, "steiner.steiner_candidates");
      candidates = steiner_candidates(g, terminals, oracle, options.route_options.candidates,
                                      options.route_options.max_candidates)
                       .size();
    }
    {
      const Trace::Scope span(trace,
                              is_arborescence_algorithm(algo) ? "arbor.route" : "steiner.route");
      (void)route(g, net, algo, oracle, options.route_options);
    }
    const OracleStats stats = oracle_stats(oracle);
    layers["replay.nets"] += 1;
    layers["replay.candidates"] += static_cast<double>(candidates);
    layers["replay.pops"] += static_cast<double>(budget.used);
    layers["replay.sssp_runs"] += static_cast<double>(stats.dijkstra_runs);
    layers["replay.oracle_hits"] += static_cast<double>(stats.cache_hits);
    layers["replay.oracle_misses"] += static_cast<double>(stats.cache_misses);
  }
}

/// Router-layer totals of one route_circuit result (its heap pops are
/// added by the caller, and only for the workload's timed work).
void add_router_result(const RoutingResult& r, Layers& layers) {
  layers["router.passes"] += r.passes;
  if (!r.overflow_trend.empty()) {
    layers["negotiate.first_overflow"] += r.overflow_trend.front();
    layers["negotiate.pops"] += static_cast<double>(r.work_used);
  }
  layers["negotiate.pattern_attempts"] += static_cast<double>(r.pattern_attempts);
  layers["negotiate.pattern_accepts"] += static_cast<double>(r.pattern_accepts);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed call.
  virtual void setup(Trace& trace) = 0;

  /// One pass over the timed calls. The workload keeps the pass's outputs
  /// for check() and attribute().
  virtual Pass pass(Trace& trace) = 0;

  /// Replays the last pass's outputs through the src/check oracles,
  /// outside the timed calls. Each rejection is one failure.
  virtual void check(std::vector<std::string>& failures) = 0;

  /// Traced run only, after the traced pass: per-layer attribution.
  virtual void attribute(Trace& trace, Layers& layers, std::vector<std::string>& failures) = 0;

  int threads() const { return threads_; }

  /// Per-layer counts recorded during set-up (device builds).
  const Layers& setup_layers() const { return setup_layers_; }

 protected:
  explicit Workload(const RunOptions& options) : options_(options) {}

  RunOptions options_;
  int threads_ = 1;
  Layers setup_layers_;
};

// --- paper-widths ----------------------------------------------------------

class PaperWidths final : public Workload {
 public:
  explicit PaperWidths(const RunOptions& options) : Workload(options) {
    struct CellSpec {
      const char* circuit;
      bool xc4000;
      Algorithm algorithm;
    };
    constexpr CellSpec kCells[] = {
        {"busc", false, Algorithm::kIkmb},  {"term1", true, Algorithm::kIkmb},
        {"9symml", true, Algorithm::kIkmb}, {"apex7", true, Algorithm::kIkmb},
        {"term1", true, Algorithm::kIdom},  {"term1", true, Algorithm::kPfa},
    };
    for (const CellSpec& spec : kCells) {
      const bool small_cell =
          spec.circuit == std::string("term1") && spec.algorithm == Algorithm::kIkmb;
      if (options.small && !small_cell) continue;
      Cell cell;
      cell.circuit = spec.circuit;
      cell.base = arch_for(spec.circuit, spec.xc4000, 1);
      cell.router.algorithm = spec.algorithm;
      cell.router.threads = 1;
      cells_.push_back(std::move(cell));
    }
    shuffle(cells_, options.seed, "paper-widths");
    search_.threads = 1;
  }

  void setup(Trace& trace) override {
    const Trace::Scope span(trace, "netlist.synthesize_circuit");
    for (const Cell& cell : cells_) {
      if (!circuits_.contains(cell.circuit)) {
        circuits_.emplace(cell.circuit,
                          synthesize_circuit(profile(cell.circuit), options_.suite_seed));
      }
    }
  }

  Pass pass(Trace& trace) override {
    Pass p;
    Digest digest;
    for (Cell& cell : cells_) {
      const std::string what =
          cell.circuit + "/" + std::string(algorithm_name(cell.router.algorithm));
      const Trace::Scope span(trace, "search.find_min_channel_width");
      const bool ran = p.timed(what, [&] {
        cell.result = find_min_channel_width(cell.base, circuits_.at(cell.circuit), cell.router,
                                             search_);
      });
      if (!ran) continue;
      if (cell.result.status != WidthSearchStatus::kFound || !cell.result.at_min_width.success) {
        p.failures.push_back(what + ": search ended " +
                             std::string(width_search_status_name(cell.result.status)));
        continue;
      }
      add_route(p.quality, digest, cell.result.at_min_width, cell.result.min_width);
      p.quality.heap_pops += cell.result.at_min_width.work_used;
    }
    p.quality.digest = digest.value();
    return p;
  }

  void check(std::vector<std::string>& failures) override {
    for (const Cell& cell : cells_) {
      if (cell.result.status != WidthSearchStatus::kFound) continue;
      const auto verdict = check::check_routing_feasibility(
          cell.base.with_width(cell.result.min_width), circuits_.at(cell.circuit),
          cell.result.at_min_width, cell.router);
      if (!verdict.ok()) failures.push_back(cell.circuit + ": " + verdict.message());
    }
  }

  void attribute(Trace& trace, Layers& layers, std::vector<std::string>&) override {
    for (const Cell& cell : cells_) {
      const Circuit& circuit = circuits_.at(cell.circuit);
      // The serial search probed exactly `attempts`; replaying each probe
      // attributes its cost to the router and graph layers.
      for (const WidthProbe& probe : cell.result.attempts) {
        const Trace::Scope span(trace, "search.probe");
        layers["search.probes"] += 1;
        layers["search.failed_probes"] += probe.success ? 0 : 1;
        const auto device = build_device(cell.base.with_width(probe.width), trace, layers);
        const Trace::Scope route_span(trace, "router.route_circuit");
        const RoutingResult replayed = route_circuit(*device, circuit, cell.router);
        add_router_result(replayed, layers);
        layers["graph.heap_pops"] += static_cast<double>(replayed.work_used);
      }
      if (cell.result.status != WidthSearchStatus::kFound) continue;
      const auto pristine =
          build_device(cell.base.with_width(cell.result.min_width), trace, layers);
      replay_nets(*pristine, circuit, cell.router, trace, layers);
    }
  }

 private:
  struct Cell {
    std::string circuit;
    ArchSpec base;
    RouterOptions router;
    WidthSearchResult result;
  };

  std::vector<Cell> cells_;
  WidthSearchOptions search_;
  std::map<std::string, Circuit> circuits_;
};

// --- negotiated-route ------------------------------------------------------

class NegotiatedRoute final : public Workload {
 public:
  explicit NegotiatedRoute(const RunOptions& options) : Workload(options) {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    threads_ = std::clamp(hw, 1, 4);
    struct CellSpec {
      const char* circuit;
      bool xc4000;
      int width;
    };
    constexpr CellSpec kCells[] = {{"busc", false, 8}, {"dma", false, 9}, {"term1", true, 5}};
    for (const CellSpec& spec : kCells) {
      if (options.small && spec.circuit != std::string("term1")) continue;
      Cell cell;
      cell.circuit = spec.circuit;
      cell.spec = arch_for(spec.circuit, spec.xc4000, spec.width);
      cells_.push_back(std::move(cell));
    }
    shuffle(cells_, options.seed, "negotiated-route");
    router_.mode = RouterMode::kNegotiated;
    router_.threads = threads_;
  }

  void setup(Trace& trace) override {
    for (Cell& cell : cells_) {
      {
        const Trace::Scope span(trace, "netlist.synthesize_circuit");
        cell.netlist = synthesize_circuit(profile(cell.circuit), options_.suite_seed);
      }
      cell.device = build_device(cell.spec, trace, setup_layers_);
    }
  }

  Pass pass(Trace& trace) override {
    Pass p;
    Digest digest;
    for (Cell& cell : cells_) {
      const Trace::Scope span(trace, "router.route_circuit");
      const bool ran = p.timed(cell.circuit, [&] {
        cell.result = route_circuit(*cell.device, cell.netlist, router_);
      });
      if (!ran) continue;
      if (!cell.result.success) {
        p.failures.push_back(cell.circuit + ": negotiated route did not converge at W=" +
                             std::to_string(cell.spec.channel_width));
      }
      add_route(p.quality, digest, cell.result, cell.spec.channel_width);
      p.quality.heap_pops += cell.result.work_used;
    }
    p.quality.digest = digest.value();
    return p;
  }

  void check(std::vector<std::string>& failures) override {
    for (const Cell& cell : cells_) {
      const auto verdict =
          check::check_routing_feasibility(cell.spec, cell.netlist, cell.result, router_);
      if (!verdict.ok()) failures.push_back(cell.circuit + ": " + verdict.message());
    }
  }

  void attribute(Trace& trace, Layers& layers, std::vector<std::string>& failures) override {
    RouterOptions serial = router_;
    serial.threads = 1;
    for (Cell& cell : cells_) {
      add_router_result(cell.result, layers);
      layers["graph.heap_pops"] += static_cast<double>(cell.result.work_used);
      // Determinism guard: the parallel route must equal a threads=1
      // reference in every routed edge and in total heap pops.
      RoutingResult reference;
      {
        const Trace::Scope span(trace, "router.route_circuit.threads1");
        reference = route_circuit(*cell.device, cell.netlist, serial);
      }
      if (digest_of(reference) != digest_of(cell.result) ||
          reference.work_used != cell.result.work_used) {
        failures.push_back(cell.circuit + ": threads=" + std::to_string(threads_) +
                           " route differs from the threads=1 reference");
      }
      cell.device->reset();
      replay_nets(*cell.device, cell.netlist, router_, trace, layers);
    }
  }

 private:
  struct Cell {
    std::string circuit;
    ArchSpec spec;
    Circuit netlist;
    std::unique_ptr<Device> device;
    RoutingResult result;
  };

  std::vector<Cell> cells_;
  RouterOptions router_;
};

// --- eco-repair ------------------------------------------------------------

/// A block of the array that is not yet a pin of `net`.
PinRef free_block(SplitMixRng& rng, const Circuit& c, const CircuitNet& net) {
  for (;;) {
    const PinRef p{rng.range(0, c.cols - 1), rng.range(0, c.rows - 1)};
    const bool taken = p == net.source || std::find(net.sinks.begin(), net.sinks.end(), p) !=
                                              net.sinks.end();
    if (!taken) return p;
  }
}

/// Index of a uniformly drawn net satisfying `pred`, or -1 when none does.
template <class Pred>
int draw_net(SplitMixRng& rng, std::size_t count, Pred&& pred) {
  std::vector<int> eligible;
  for (std::size_t i = 0; i < count; ++i) {
    if (pred(i)) eligible.push_back(static_cast<int>(i));
  }
  if (eligible.empty()) return -1;
  return eligible[rng.below(eligible.size())];
}

/// Event `i` of a seeded ECO stream against the current routed state. Seven
/// in ten kill one wire a routed net has committed; the rest move a sink
/// of a net, add a new 2-3 pin net, or remove a net.
RepairEvent next_event(SplitMixRng& rng, int i, const Circuit& c, const RoutingResult& r) {
  RepairEvent ev;
  const auto live = [&](std::size_t n) { return !c.nets[n].sinks.empty(); };
  switch (i % 10) {
    case 3: {
      const int n = draw_net(rng, c.nets.size(), live);
      if (n < 0) break;
      CircuitNet moved = c.nets[static_cast<std::size_t>(n)];
      moved.sinks.back() = free_block(rng, c, moved);
      ev.changed.emplace_back(n, std::move(moved));
      return ev;
    }
    case 6: {
      CircuitNet added;
      added.source = PinRef{rng.range(0, c.cols - 1), rng.range(0, c.rows - 1)};
      const int sinks = 1 + static_cast<int>(rng.below(2));
      for (int s = 0; s < sinks; ++s) added.sinks.push_back(free_block(rng, c, added));
      ev.added.push_back(std::move(added));
      return ev;
    }
    case 9: {
      const int n = draw_net(rng, c.nets.size(), live);
      if (n < 0) break;
      ev.removed.push_back(n);
      return ev;
    }
    default:
      break;
  }
  const int n = draw_net(rng, r.commit_logs.size(),
                         [&](std::size_t k) { return !r.commit_logs[k].wires.empty(); });
  if (n >= 0) {
    const std::vector<NodeId>& wires = r.commit_logs[static_cast<std::size_t>(n)].wires;
    ev.faults.dead_wires = {wires[rng.below(wires.size())]};
  }
  return ev;
}

class EcoRepair final : public Workload {
 public:
  explicit EcoRepair(const RunOptions& options) : Workload(options) {
    events_per_mode_ = options.small ? 20 : 100;
    const std::pair<RouterMode, int> kModes[] = {{RouterMode::kPaper, 8},
                                                 {RouterMode::kNegotiated, 9}};
    for (const auto& [mode, width] : kModes) {
      Stream s;
      s.spec = arch_for("busc", false, width);
      s.router.mode = mode;
      s.router.threads = 1;
      s.router.record_commits = true;
      streams_.push_back(std::move(s));
    }
  }

  void setup(Trace& trace) override {
    {
      const Trace::Scope span(trace, "netlist.synthesize_circuit");
      netlist_ = synthesize_circuit(profile("busc"), options_.suite_seed);
    }
    for (Stream& s : streams_) {
      s.device = build_device(s.spec, trace, setup_layers_);
      const Trace::Scope span(trace, "setup.seed_route");
      s.seeded = route_circuit(*s.device, netlist_, s.router);
      if (!s.seeded.success) {
        throw std::runtime_error("eco-repair seed route of busc failed at W=" +
                                 std::to_string(s.spec.channel_width));
      }
    }
  }

  Pass pass(Trace& trace) override {
    Pass p;
    Digest digest;
    for (Stream& s : streams_) {
      Device device = *s.device;
      s.circuit = netlist_;
      s.result = s.seeded;
      s.events.clear();
      s.outcomes.clear();
      SplitMixRng rng(mix64(options_.seed, static_cast<std::uint64_t>(s.router.mode)));
      const std::string mode(router_mode_name(s.router.mode));
      for (int i = 0; i < events_per_mode_; ++i) {
        RepairEvent event = next_event(rng, i, s.circuit, s.result);
        if (trace.enabled()) {
          const Trace::Scope span(trace, "repair.repair_cone");
          (void)repair_cone(device, s.result, event.faults);
        }
        const Trace::Scope span(trace, "repair.repair_route");
        RepairOutcome outcome;
        const bool ran = p.timed(mode + " event " + std::to_string(i), [&] {
          outcome = repair_route(device, s.circuit, s.result, event, s.router);
        });
        s.events.push_back(std::move(event));
        if (!ran) break;
        s.outcomes.push_back(outcome);
        p.quality.heap_pops += outcome.budget_used;
        digest.mix(static_cast<std::uint64_t>(outcome.cone_nets));
      }
      add_route(p.quality, digest, s.result, s.spec.channel_width);
    }
    p.quality.digest = digest.value();
    return p;
  }

  void check(std::vector<std::string>& failures) override {
    for (const Stream& s : streams_) {
      const auto verdict = check::check_repair(s.spec, netlist_, s.router, nullptr, s.events);
      if (!verdict.ok()) {
        failures.push_back(std::string(router_mode_name(s.router.mode)) +
                           " repair stream: " + verdict.message());
      }
    }
  }

  void attribute(Trace& trace, Layers& layers, std::vector<std::string>&) override {
    for (const Stream& s : streams_) {
      for (const RepairOutcome& out : s.outcomes) {
        layers["repair.events"] += 1;
        layers["repair.cone_nets"] += out.cone_nets;
        layers["repair.degraded_nets"] += out.degraded;
        layers["repair.pops"] += static_cast<double>(out.budget_used);
        layers["graph.heap_pops"] += static_cast<double>(out.budget_used);
      }
      const auto pristine = build_device(s.spec, trace, layers);
      replay_nets(*pristine, s.circuit, s.router, trace, layers);
    }
  }

 private:
  struct Stream {
    ArchSpec spec;
    RouterOptions router;
    std::unique_ptr<Device> device;  // holds the seed route
    RoutingResult seeded;
    // Outputs of the last pass.
    Circuit circuit;
    RoutingResult result;
    std::vector<RepairEvent> events;
    std::vector<RepairOutcome> outcomes;
  };

  int events_per_mode_ = 100;
  Circuit netlist_;
  std::vector<Stream> streams_;
};

// --- large-device ----------------------------------------------------------

class LargeDevice final : public Workload {
 public:
  explicit LargeDevice(const RunOptions& options) : Workload(options) {
    size_ = options.small ? 60 : 200;
    net_count_ = options.small ? 4 : 8;
    spec_ = ArchSpec::xc4000(size_, size_, 12);
    router_.threads = 1;
  }

  void setup(Trace& trace) override {
    circuit_ = large_circuit(size_, net_count_, options_.seed);
    device_ = build_device(spec_, trace, setup_layers_);
  }

  Pass pass(Trace& trace) override {
    Pass p;
    Digest digest;
    const Trace::Scope span(trace, "router.route_circuit");
    if (p.timed(circuit_.name, [&] { result_ = route_circuit(*device_, circuit_, router_); })) {
      if (!result_.success) p.failures.push_back(circuit_.name + ": route failed");
      add_route(p.quality, digest, result_, spec_.channel_width);
      p.quality.heap_pops += result_.work_used;
    }
    p.quality.digest = digest.value();
    return p;
  }

  void check(std::vector<std::string>& failures) override {
    const auto verdict = check::check_routing_feasibility(spec_, circuit_, result_, router_);
    if (!verdict.ok()) failures.push_back(circuit_.name + ": " + verdict.message());
  }

  void attribute(Trace& trace, Layers& layers, std::vector<std::string>&) override {
    add_router_result(result_, layers);
    layers["graph.heap_pops"] += static_cast<double>(result_.work_used);
    device_->reset();
    replay_nets(*device_, circuit_, router_, trace, layers);
  }

 private:
  int size_ = 200;
  int net_count_ = 8;
  ArchSpec spec_;
  RouterOptions router_;
  Circuit circuit_;
  std::unique_ptr<Device> device_;
  RoutingResult result_;
};

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "paper-widths") return std::make_unique<PaperWidths>(options);
  if (options.workload == "negotiated-route") return std::make_unique<NegotiatedRoute>(options);
  if (options.workload == "eco-repair") return std::make_unique<EcoRepair>(options);
  if (options.workload == "large-device") return std::make_unique<LargeDevice>(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

/// Turns the traced run's raw sums into the published per-layer metrics.
void finish_layers(const Layers& raw, const Snapshot& before, const Snapshot& after, int threads,
                   double overhead_s, const Trace& trace, RunReport& report) {
  const auto get = [&raw](const char* name) { return raw.contains(name) ? raw.at(name) : 0.0; };
  const auto delta = [&](std::uint64_t Snapshot::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  Layers& out = report.layers;
  for (const MetricSpec& m : per_layer_metrics()) out[m.name] = 0.0;

  out["fpga.device_build_ms"] = get("fpga.device_build_ms");
  out["fpga.graph_rss_mib"] = get("fpga.graph_rss_mib");
  out["fpga.template_compiles"] = static_cast<double>(after.templates.compiles);
  out["fpga.template_cache_hits"] = static_cast<double>(after.templates.cache_hits);

  out["graph.heap_pops"] = get("graph.heap_pops");
  out["graph.sssp_runs"] = get("replay.sssp_runs");
  out["graph.pops_per_sssp"] = ratio(get("replay.pops"), get("replay.sssp_runs"));
  out["graph.sssp_ms"] = trace.total_ms("graph.sssp");
  out["graph.oracle_hit_rate"] =
      ratio(get("replay.oracle_hits"), get("replay.oracle_hits") + get("replay.oracle_misses"));

  out["steiner.route_ms"] = trace.total_ms("steiner.route");
  out["steiner.candidates_per_net"] = ratio(get("replay.candidates"), get("replay.nets"));
  out["steiner.candidates_ms"] = trace.total_ms("steiner.steiner_candidates");
  out["steiner.trees_measured"] = delta(&Snapshot::trees_measured);
  out["arbor.route_ms"] = trace.total_ms("arbor.route");

  out["router.route_ms"] =
      ratio(trace.total_ms("router.route_circuit"), trace.count("router.route_circuit"));
  out["router.passes"] = get("router.passes");
  out["router.congestion_reliefs"] = delta(&Snapshot::congestion_reliefs);
  out["router.move_to_front_reorders"] = delta(&Snapshot::move_to_front_reorders);

  out["negotiate.passes"] = delta(&Snapshot::negotiate_passes);
  out["negotiate.first_overflow"] = get("negotiate.first_overflow");
  out["negotiate.pops_per_pass"] = ratio(get("negotiate.pops"), out["negotiate.passes"]);
  out["negotiate.pattern_accept_ratio"] =
      ratio(get("negotiate.pattern_accepts"), get("negotiate.pattern_attempts"));

  out["partition.nets_speculated"] = delta(&Snapshot::nets_speculated);
  out["partition.spec_accept_ratio"] =
      ratio(delta(&Snapshot::nets_spec_accepted), delta(&Snapshot::nets_speculated));
  out["partition.parallelism"] =
      threads > 1 ? ratio(after.cpu_s - before.cpu_s, after.wall_s - before.wall_s) : 0.0;

  out["search.probes"] = get("search.probes");
  out["search.failed_probes"] = get("search.failed_probes");
  out["search.probe_ms"] = ratio(trace.total_ms("search.probe"), trace.count("search.probe"));

  out["repair.cone_nets_per_event"] = ratio(get("repair.cone_nets"), get("repair.events"));
  out["repair.pops_per_event"] = ratio(get("repair.pops"), get("repair.events"));
  out["repair.cone_ms"] =
      ratio(trace.total_ms("repair.repair_cone"), trace.count("repair.repair_cone"));
  out["repair.degraded_nets"] = get("repair.degraded_nets");

  out["trace.overhead_s"] = overhead_s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper-widths", "negotiated-route",
                                                  "eco-repair", "large-device"};
  return kNames;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"solve_s", "s"},
      {"call_ms_p50", "ms"},
      {"call_ms_p90", "ms"},
      {"peak_rss_mib", "MiB"},
      {"min_width_sum", "tracks"},
      {"wirelength_hops", "hops"},
      {"max_path_hops", "hops"},
      {"routed_share", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"fpga.device_build_ms", "ms"},
      {"fpga.graph_rss_mib", "MiB"},
      {"fpga.template_compiles", "count"},
      {"fpga.template_cache_hits", "count"},
      {"graph.heap_pops", "pops"},
      {"graph.sssp_runs", "count"},
      {"graph.pops_per_sssp", "pops"},
      {"graph.sssp_ms", "ms"},
      {"graph.oracle_hit_rate", "ratio"},
      {"steiner.route_ms", "ms"},
      {"steiner.candidates_per_net", "count"},
      {"steiner.candidates_ms", "ms"},
      {"steiner.trees_measured", "count"},
      {"arbor.route_ms", "ms"},
      {"router.route_ms", "ms"},
      {"router.passes", "count"},
      {"router.congestion_reliefs", "count"},
      {"router.move_to_front_reorders", "count"},
      {"negotiate.passes", "count"},
      {"negotiate.first_overflow", "wires"},
      {"negotiate.pops_per_pass", "pops"},
      {"negotiate.pattern_accept_ratio", "ratio"},
      {"partition.nets_speculated", "count"},
      {"partition.spec_accept_ratio", "ratio"},
      {"partition.parallelism", "ratio"},
      {"search.probes", "count"},
      {"search.failed_probes", "count"},
      {"search.probe_ms", "ms"},
      {"repair.cone_nets_per_event", "nets"},
      {"repair.pops_per_event", "pops"},
      {"repair.cone_ms", "ms"},
      {"repair.degraded_nets", "nets"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

RunReport run_workload(const RunOptions& options, Trace& trace) {
  const std::unique_ptr<Workload> workload = make_workload(options);
  RunReport report;
  report.threads = workload->threads();
  {
    const Trace::Scope span(trace, "setup");
    workload->setup(trace);
  }
  report.setup_s = now_s();
  if (options.setup_only) return report;

  std::vector<Pass> passes;
  Trace untraced(false, 0);
  if (options.trace) {
    // The same calls once without spans and once with them: the difference
    // is the tracing overhead. Attribution replays follow the traced pass.
    passes.push_back(workload->pass(untraced));
    const Snapshot before = Snapshot::take();
    {
      const Trace::Scope span(trace, "pass");
      passes.push_back(workload->pass(trace));
    }
    const Snapshot after = Snapshot::take();
    workload->check(report.failures);
    Layers raw = workload->setup_layers();
    workload->attribute(trace, raw, report.failures);
    finish_layers(raw, before, after, workload->threads(),
                  passes[1].solve_s - passes[0].solve_s, trace, report);
  } else {
    const double start = now_s();
    do {
      passes.push_back(workload->pass(untraced));
    } while (now_s() - start < options.seconds);
    report.peak_rss_kib = fpr::bench::peak_rss_kib();
    workload->check(report.failures);
  }

  report.quality = passes.front().quality;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    report.pass_s.push_back(p.solve_s);
    report.call_ms.insert(report.call_ms.end(), p.call_ms.begin(), p.call_ms.end());
    report.attempted += p.attempted;
    report.failures.insert(report.failures.end(), p.failures.begin(), p.failures.end());
    if (!(p.quality == report.quality)) {
      report.failures.push_back("pass " + std::to_string(i) +
                                " differs from pass 0 in routes, quality or heap pops");
    }
  }
  report.failed =
      std::min(report.attempted, static_cast<long long>(report.failures.size()));
  return report;
}

}  // namespace fprbench
