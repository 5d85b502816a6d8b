// Host-time spans around the benchmark's calls into the engine's layers.
//
// Every public call the benchmark makes (Database::create, Loader::load,
// Driver::run_until, RecoveryManager::point_in_time_recover, ...) runs
// inside a Scope. A Scope always measures the host CPU seconds the call
// used, because the end-to-end numbers need them; only when the Tracer is
// enabled does it also record a span (name, layer, start, end, CPU time,
// parent, workload run id). Spans are kept in memory and written once, at
// the end, as Chrome trace-event JSON that Perfetto and chrome://tracing
// open directly.
#pragma once

#include <time.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds used so far by all threads of this process. The benchmark's
/// host times are CPU time, not wall time: on a virtual machine that shares
/// its host, the wall clock also counts the time the hypervisor ran other
/// guests on this machine's processors (steal), and that share drifts by
/// tens of percent from one minute to the next. The simulated engine does
/// no real I/O and never sleeps, so on an idle host the two agree.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Span {
  std::string layer;  // "tpcc", "engine", "recovery", "fleet", "bench"
  std::string name;   // the call, e.g. "Driver::run_until"
  double start_us = 0;  // from the tracer's origin
  double end_us = 0;
  double cpu_us = 0;  // CPU time of the call
  int parent = -1;  // index into spans(), -1 for a root
  int run = 0;      // workload run (iteration) the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int run) { run_ = run; }

  /// Opens a span and makes it the parent of spans opened before its end.
  int open(const char* layer, const char* name, Clock::time_point at);
  void close(int id, Clock::time_point at, double cpu_s);

  const std::vector<Span>& spans() const { return spans_; }

  /// CPU seconds per layer not covered by a child span, summed over runs.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// {"traceEvents": [...]} with one complete ("X") event per span; the
  /// workload run id is the thread id, so each run is its own track.
  std::string chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call. stop() (or the destructor) returns and records the CPU
/// seconds since construction; a span is recorded only if tracing is on.
class Scope {
 public:
  Scope(Tracer& tracer, const char* layer, const char* name)
      : tracer_(tracer), start_(Clock::now()),
        id_(tracer.enabled() ? tracer.open(layer, name, start_) : -1),
        start_cpu_(cpu_seconds()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { stop(); }

  double stop() {
    if (!stopped_) {
      seconds_ = cpu_seconds() - start_cpu_;
      if (id_ >= 0) tracer_.close(id_, Clock::now(), seconds_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int id_;
  double start_cpu_;
  bool stopped_ = false;
  double seconds_ = 0;
};

}  // namespace perfbench
