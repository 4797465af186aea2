// Wall-clock, resource and span instrumentation for the fpr benchmark.
//
// Everything here lives at the benchmark boundary: the libraries under src/
// count deterministic work and never read clocks, so timings are taken
// around their public calls only. A Trace keeps its spans in memory and is
// written once, when the run ends, so recording never does I/O inside a
// measured region.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fprbench {

/// Seconds since the process clock was anchored (the first call, which
/// main() makes before anything else).
double now_s();

/// User + system CPU seconds this process has used (getrusage).
double cpu_s();

/// Current resident-set size in KiB (/proc/self/statm); 0 when unavailable.
long current_rss_kib();

/// One timed region. `parent` indexes the enclosing span of the same Trace
/// (-1 at top level); `workload` identifies the run's workload, so spans of
/// several runs can be merged.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int workload = 0;

  double ms() const { return (end_s - start_s) * 1e3; }
};

/// In-memory span recorder. When disabled, scopes cost one branch.
class Trace {
 public:
  Trace(bool enabled, int workload_id) : enabled_(enabled), workload_(workload_id) {}

  bool enabled() const { return enabled_; }

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Trace& trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int id_ = -1;
  };

  /// Sum of the durations of every span called `name`, in ms.
  double total_ms(const std::string& name) const;

  /// Number of spans called `name`.
  int count(const std::string& name) const;

  /// Derived per-name self time in ms: each span's duration minus the part
  /// its child spans cover, summed over the spans of that name.
  std::map<std::string, double> self_ms() const;

  /// Writes the spans and the derived self times as one JSON document;
  /// returns success.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  int workload_;
  int open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace fprbench
