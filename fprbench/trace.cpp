#include "trace.hpp"

#include <cstdio>

#include <sys/resource.h>
#include <unistd.h>

#include "bench_util.hpp"

namespace fprbench {

double now_s() {
  static const fpr::bench::Stopwatch clock;
  return clock.seconds();
}

double cpu_s() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

long current_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0, resident = 0;
  const bool ok = std::fscanf(f, "%ld %ld", &pages, &resident) == 2;
  std::fclose(f);
  return ok ? resident * (sysconf(_SC_PAGESIZE) / 1024) : 0;
}

Trace::Scope::Scope(Trace& trace, const char* name) : trace_(&trace) {
  if (!trace.enabled_) return;
  id_ = static_cast<int>(trace.spans_.size());
  trace.spans_.push_back({name, now_s(), 0, trace.open_, trace.workload_});
  trace.open_ = id_;
}

Trace::Scope::~Scope() {
  if (id_ < 0) return;
  Span& span = trace_->spans_[static_cast<std::size_t>(id_)];
  span.end_s = now_s();
  trace_->open_ = span.parent;
}

double Trace::total_ms(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) total += s.name == name ? s.ms() : 0.0;
  return total;
}

int Trace::count(const std::string& name) const {
  int n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

std::map<std::string, double> Trace::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return by_name;
}

bool Trace::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %d, \"workload\": %d}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start_s, s.end_s, s.parent, s.workload);
  }
  std::fprintf(f, "\n],\n\"derived_self_ms\": {");
  const char* sep = "";
  for (const auto& [name, ms] : self_ms()) {
    std::fprintf(f, "%s\n  \"%s\": %.6f", sep, name.c_str(), ms);
    sep = ",";
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace fprbench
