// fpr_bench: the repository's benchmark driver. One process runs one
// workload of the paper's router stack and prints, as its last line, one
// JSON object with the run's metrics:
//
//   fpr_bench --workload <name> [--seed <n>] [--suite-seed <n>] [--seconds <s>]
//             [--trace <0|1>] [--small] [--setup-only] [--commit <sha>]
//             [--trace-out <path>]
//
// --trace 0 times the workload's public calls for --seconds and reports
// the end-to-end metrics; --trace 1 runs the calls once untraced and once
// inside spans, replays them layer by layer and reports the per-layer
// metrics. Every result is replayed through the src/check oracles; any
// failure makes the exit code 1 (the result line is still printed).
// fprbench/run.py builds this binary and is the command to run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using fprbench::RunOptions;
using fprbench::RunReport;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: fpr_bench --workload <name> [--seed <n>] [--suite-seed <n>] "
               "[--seconds <s>] "
               "[--trace <0|1>] [--small] [--setup-only] [--commit <sha>] "
               "[--trace-out <path>]\n",
               message);
  std::exit(2);
}

/// Linear-interpolated percentile of `values` (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The host stamp every result carries: perf numbers are only comparable
/// across runs of the same build on the same kind of host.
std::string host_stamp(const RunOptions& options, const std::string& commit, int threads) {
  const char* env_threads = std::getenv("FPR_THREADS");
  const std::string build_type = FPR_BENCH_BUILD_TYPE;
  std::string json = "{";
  json += "\"workload\": " + quote(options.workload);
  json += ", \"seed\": " + std::to_string(options.seed);
  json += ", \"suite_seed\": " + std::to_string(options.suite_seed);
  json += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"FPR_THREADS\": " + quote(env_threads != nullptr ? env_threads : "");
  json += ", \"threads\": " + std::to_string(threads);
  json += ", \"build_type\": " + quote(build_type);
  json += ", \"release\": " + std::string(build_type == "Release" ? "true" : "false");
  json += ", \"compiler\": " + quote(FPR_BENCH_COMPILER);
  json += ", \"commit\": " + quote(commit);
  return json + "}";
}

std::string metrics_json(const std::vector<fprbench::MetricSpec>& specs,
                         const std::vector<double>& values) {
  std::string json = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    json += i == 0 ? "" : ", ";
    json += quote(specs[i].name) + ": {\"value\": " + number(values[i]) +
            ", \"unit\": " + quote(specs[i].unit) + "}";
  }
  return json + "}";
}

/// The end-to-end metrics of an untraced run, in end_to_end_metrics() order.
std::vector<double> end_to_end_values(const RunReport& r) {
  const auto& q = r.quality;
  return {
      r.setup_s,
      percentile(r.pass_s, 0.5),
      percentile(r.call_ms, 0.5),
      percentile(r.call_ms, 0.9),
      static_cast<double>(r.peak_rss_kib) / 1024.0,
      static_cast<double>(q.width_sum),
      static_cast<double>(q.wirelength),
      static_cast<double>(q.max_path),
      q.nets > 0 ? static_cast<double>(q.routed) / static_cast<double>(q.nets) : 0.0,
  };
}

}  // namespace

int main(int argc, char** argv) {
  (void)fprbench::now_s();  // anchors the process clock: setup_s counts from here
  RunOptions options;
  std::string commit = "unknown";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (arg == "--suite-seed") {
      options.suite_seed = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      const std::string flag = value();
      if (flag != "0" && flag != "1") usage("--trace takes 0 or 1");
      options.trace = flag == "1";
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const auto& names = fprbench::workload_names();
  const auto named = std::find(names.begin(), names.end(), options.workload);
  if (named == names.end()) {
    usage("--workload must be one of paper-widths, negotiated-route, eco-repair, large-device");
  }
  fprbench::Trace trace(options.trace, static_cast<int>(named - names.begin()));
  RunReport report;
  try {
    report = fprbench::run_workload(options, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s set-up failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  if (options.setup_only) {
    std::printf("{\"setup_s\": %s}\n", number(report.setup_s).c_str());
    return 0;
  }

  const std::string host = host_stamp(options, commit, report.threads);
  std::printf("host %s\n", host.c_str());
  if (std::string(FPR_BENCH_BUILD_TYPE) != "Release") {
    std::printf("WARNING: %s build — timings are not comparable to Release\n",
                FPR_BENCH_BUILD_TYPE);
  }
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(report.quality.digest));
  std::string pass_s;
  for (const double s : report.pass_s) pass_s += (pass_s.empty() ? "" : ", ") + number(s);
  std::printf("summary {\"pass_s\": [%s], \"calls\": %zu, \"route_digest\": \"%s\", "
              "\"heap_pops\": %lld, \"failed_share\": %s}\n",
              pass_s.c_str(), report.call_ms.size(), digest, report.quality.heap_pops,
              number(report.attempted > 0 ? static_cast<double>(report.failed) /
                                                static_cast<double>(report.attempted)
                                          : 0.0)
                  .c_str());
  for (const std::string& failure : report.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  if (!trace_out.empty() && !trace.write(trace_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  std::string metrics;
  if (options.trace) {
    std::vector<double> values;
    for (const auto& m : fprbench::per_layer_metrics()) values.push_back(report.layers.at(m.name));
    metrics = metrics_json(fprbench::per_layer_metrics(), values);
  } else {
    metrics = metrics_json(fprbench::end_to_end_metrics(), end_to_end_values(report));
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              report.failed == 0 ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  return report.failed == 0 ? 0 : 1;
}
