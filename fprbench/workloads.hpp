// The four benchmark workloads and what one run of them reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace fprbench {

struct RunOptions {
  std::string workload;
  unsigned seed = 1995;        // draws the run's inputs
  unsigned suite_seed = 1995;  // synthesizes the benchmark-suite circuits
  double seconds = 10;
  bool trace = false;       // traced run: per-layer metrics instead of timing
  bool small = false;       // reduced sizes for the self-test
  bool setup_only = false;  // stop after set-up (set-up time sampling)
};

/// Deterministic outcome of one pass over a workload's timed calls. Every
/// pass of a run must produce the same values; a pass that does not is a
/// failure (something in the program is not deterministic).
struct PassQuality {
  long long width_sum = 0;
  long long wirelength = 0;  // sum of total_physical_wirelength
  long long max_path = 0;    // sum of total_physical_max_path
  long long nets = 0;
  long long routed = 0;
  long long heap_pops = 0;   // node expansions of the timed calls
  std::uint64_t digest = 0;  // FNV over every final route

  friend bool operator==(const PassQuality&, const PassQuality&) = default;
};

struct RunReport {
  double setup_s = 0;
  std::vector<double> pass_s;   // wall time inside the timed calls, per pass
  std::vector<double> call_ms;  // latency of every timed call
  long peak_rss_kib = 0;
  PassQuality quality;
  long long attempted = 0;  // timed calls
  long long failed = 0;     // calls that threw, misreported, or were rejected
  std::vector<std::string> failures;
  int threads = 1;  // RouterOptions::threads of the timed calls
  std::map<std::string, double> layers;  // traced run only
};

/// A published metric: name and unit, as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of an untimed (--trace 0) run and of a traced run.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload end to end. Set-up, the timed passes, the oracle
/// replays and (traced) the attribution replays all happen here.
RunReport run_workload(const RunOptions& options, Trace& trace);

}  // namespace fprbench
