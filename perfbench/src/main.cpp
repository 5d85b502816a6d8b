// perfbench: runs one benchmark workload for a fixed wall-clock budget and
// prints one JSON document with its end-to-end and per-layer metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// The run repeats set-up + run of the workload until the budget is spent.
// Host times are CPU times scaled to a reference host speed (host_speed.hpp).
// End-to-end numbers are medians over untraced iterations; with --trace 1,
// traced iterations alternate with untraced ones, and the per-layer numbers
// come from the traced ones. Afterwards it re-runs the reference experiment
// (bench::Experiment or fleet::FleetExperiment) once and checks that the
// benchmark's procedure reproduced its simulated outputs exactly. run.py
// builds this program and formats its output.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host_speed.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Iteration;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(v.size() - 1, rank)];
}

double over(const std::vector<Iteration>& its,
            const std::function<double(const Iteration&)>& f) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(f(it));
  return median(v);
}

std::uint64_t committed(const Workload& w, const Iteration& it) {
  return w.fleet ? it.fleet_result.committed : it.serial_result.committed;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Keeps freed memory in the process, so that iterations after the first
/// reuse pages already mapped instead of faulting fresh ones in. What a page
/// fault costs on a virtual machine that shares its host depends on the
/// host's memory pressure, not on the program.
void keep_freed_memory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

/// Runs every thread of the process on the processor the process started
/// on, and returns that processor. The engine's replay pool starts threads
/// at every drain. Spread over processors, their CPU time doubled for
/// minutes at a time on a shared virtual machine while single-threaded work
/// kept its speed, which points at waking and synchronising the other
/// processors. On one processor the pool does the same work with local
/// wake-ups. Threads inherit the mask, so this must run before any thread
/// starts.
int pin_to_one_processor() {
  const int cpu = std::max(0, sched_getcpu());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) return -1;
  return cpu;
}

/// The process's resident-set high-water mark (VmHWM) so far, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Named values of one output section, in print order.
using Section = std::vector<std::pair<std::string, double>>;

std::string quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return q + '"';
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string object(const Section& section) {
  std::string out = "{";
  for (const auto& [name, value] : section) {
    if (out.size() > 1) out += ',';
    out += quote(name) + ':' + number(value);
  }
  return out + '}';
}

[[noreturn]] void fatal(const std::string& what, const vdb::Status& st) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               st.to_string().c_str());
  std::exit(1);
}

/// The iterations of one run: the warm-up, then the measured ones split by
/// whether they were traced.
struct Runs {
  std::vector<Iteration> warmup;  // one, checked but not measured
  std::vector<Iteration> plain;
  std::vector<Iteration> traced;
  std::unique_ptr<perfbench::HostSpeed> speed;
  double host_speed = 1;  // the factor every host time was scaled by
  double measured_s = 0;
};

/// Runs one warm-up iteration, then repeats set-up + run until one more
/// iteration would overrun the budget; with tracing, odd iterations are
/// traced. The host-speed kernel runs before the first measured iteration
/// and after each, and the measured iterations' host times are scaled by
/// the run's factor.
Runs measure(const Workload& w, const Args& args, perfbench::Tracer& tracer,
             std::vector<std::string>* errors) {
  Runs runs;
  std::vector<double> iteration_s;
  const perfbench::Clock::time_point t0 = perfbench::Clock::now();
  for (int n = 0;; ++n) {
    const double elapsed =
        perfbench::seconds_between(t0, perfbench::Clock::now());
    const bool need_more =
        runs.plain.empty() || (args.trace && runs.traced.empty());
    if (!need_more && elapsed + median(iteration_s) > args.seconds) break;
    const bool trace_this = args.trace && n % 2 == 1;
    tracer.set_enabled(trace_this);
    tracer.set_run(n);
    const perfbench::Clock::time_point start = perfbench::Clock::now();
    auto it = perfbench::run_iteration(w, tracer);
    if (!it.is_ok()) fatal("iteration", it.status());
    it.value().wall_s =
        perfbench::seconds_between(start, perfbench::Clock::now());
    it.value().peak_rss_mb = peak_rss_mb();
    // Built after the warm-up, so peak_rss_mb is the workload's alone.
    if (n == 0) runs.speed = std::make_unique<perfbench::HostSpeed>();
    runs.speed->sample();
    iteration_s.push_back(
        perfbench::seconds_between(start, perfbench::Clock::now()));
    perfbench::check_iteration(w.fleet, &it.value());
    for (const std::string& e : it.value().errors) errors->push_back(e);
    (n == 0 ? runs.warmup : trace_this ? runs.traced : runs.plain)
        .push_back(std::move(it.value()));
  }
  tracer.set_enabled(false);
  runs.measured_s = perfbench::seconds_between(t0, perfbench::Clock::now());
  runs.host_speed = runs.speed->factor();
  for (auto* group : {&runs.plain, &runs.traced}) {
    for (Iteration& it : *group) {
      perfbench::scale_host_times(runs.host_speed, &it);
    }
  }
  return runs;
}

double counter_delta(const Iteration& it, const char* name) {
  return static_cast<double>(it.after.counter(name) - it.before.counter(name));
}

double wait_delta(const Iteration& it, const char* event) {
  return static_cast<double>(it.after.wait(event) - it.before.wait(event));
}

/// Per-layer numbers: host times from the traced iterations' spans, counts
/// from their V$ deltas, the per-type deck, and the concurrency-control
/// probe (whose correctness failures are appended to `errors`).
Section per_layer(const Workload& w, const Args& args, const Runs& runs,
                  perfbench::Tracer& tracer, std::vector<std::string>* errors) {
  const std::vector<Iteration>& t = runs.traced;
  auto per_txn = [&](const Iteration& it, double v) {
    return ratio(v, static_cast<double>(committed(w, it)));
  };
  auto med = [&](const std::function<double(const Iteration&)>& f) {
    return over(t, f);
  };
  auto delta = [&](const char* name) {
    return med([&](const Iteration& it) { return counter_delta(it, name); });
  };
  auto delta_per_txn = [&](const char* name) {
    return med([&](const Iteration& it) {
      return per_txn(it, counter_delta(it, name));
    });
  };
  auto wait_per_txn = [&](const char* event) {
    return med([&](const Iteration& it) {
      return per_txn(it, wait_delta(it, event));
    });
  };

  // Self time per layer, per traced iteration; taken before the deck and
  // the probe below add their own spans to the trace. Spans hold raw CPU
  // time; the deck, the probe and the self times are scaled by the run's
  // host-speed factor like the iterations.
  const std::map<std::string, double> self = tracer.self_seconds_by_layer();
  tracer.set_enabled(true);
  tracer.set_run(-1);
  auto types = perfbench::time_txn_types(w, tracer);
  if (!types.is_ok()) fatal("per-type timing", types.status());
  tracer.set_run(-2);
  auto probe = perfbench::run_cc_probe(args.seed, tracer);
  if (!probe.is_ok()) fatal("concurrency-control probe", probe.status());
  tracer.set_enabled(false);
  perfbench::scale_host_times(runs.host_speed, &probe.value());
  const Iteration& cc = probe.value();
  for (const std::string& e : cc.errors) errors->push_back("cc probe: " + e);

  Section s;
  s.emplace_back("tpcc.load_s", med([](const Iteration& it) { return it.load_s; }));
  const char* type_names[] = {"tpcc.new_order_us", "tpcc.payment_us",
                              "tpcc.order_status_us", "tpcc.delivery_us",
                              "tpcc.stock_level_us"};
  for (size_t k = 0; k < 5; ++k) {
    s.emplace_back(type_names[k], types.value()[k] * runs.host_speed);
  }
  s.emplace_back("tpcc.consistency_s",
                 med([](const Iteration& it) { return it.consistency_s; }));
  s.emplace_back("engine.create_s",
                 med([](const Iteration& it) { return it.create_s; }));
  s.emplace_back("engine.startup_s",
                 med([](const Iteration& it) { return it.startup_s; }));
  s.emplace_back("storage.cache_hit_ratio", med([](const Iteration& it) {
                   const double hits = counter_delta(it, "buffer cache hits");
                   return ratio(hits, hits + counter_delta(it, "physical reads"));
                 }));
  s.emplace_back("storage.reads_per_txn", delta_per_txn("physical reads"));
  s.emplace_back("storage.writes_per_txn", delta_per_txn("physical writes"));
  s.emplace_back("storage.ckpt_pages_written",
                 delta("checkpoint pages written"));
  s.emplace_back("wal.redo_bytes_per_txn", delta_per_txn("redo size bytes"));
  s.emplace_back("wal.commits_per_redo_write", med([](const Iteration& it) {
                   return ratio(counter_delta(it, "user commits"),
                                counter_delta(it, "redo writes"));
                 }));
  s.emplace_back("wal.log_switches", delta("log switches"));
  s.emplace_back("wal.archived_logs", delta("archived logs"));
  s.emplace_back("replay.records_applied", delta("replay records applied"));
  s.emplace_back("replay.drains", delta("replay drains"));
  s.emplace_back("replay.records_per_drain", med([](const Iteration& it) {
                   return ratio(counter_delta(it, "replay records applied"),
                                counter_delta(it, "replay drains"));
                 }));
  // The fleet's replay counters are standby apply over the whole run, not
  // a recovery call, so the per-record cost is for the serial recoveries.
  s.emplace_back("replay.us_per_record", med([&](const Iteration& it) {
                   return w.fleet ? 0.0
                                  : ratio(it.recovery_s * 1e6,
                                          counter_delta(
                                              it, "replay records applied"));
                 }));
  s.emplace_back("recovery.backup_s",
                 med([](const Iteration& it) { return it.backup_s; }));
  s.emplace_back("recovery.pit_s",
                 med([](const Iteration& it) { return it.pit_s; }));
  s.emplace_back("recovery.archives_read", med([&](const Iteration& it) {
                   return w.fleet ? 0.0
                                  : static_cast<double>(
                                        it.serial_result.archives_read);
                 }));
  s.emplace_back("txn.cc_commit_ratio",
                 ratio(counter_delta(cc, "cc txns committed"),
                       counter_delta(cc, "cc txns begun")));
  s.emplace_back("txn.cc_lock_waits", counter_delta(cc, "cc lock waits"));
  s.emplace_back("txn.wait_die_aborts",
                 counter_delta(cc, "cc wait_die aborts"));
  s.emplace_back("txn.cc_txn_host_us", ratio(cc.drive_s * 1e6,
                                             static_cast<double>(
                                                 cc.serial_result.committed)));
  s.emplace_back("fleet.setup_s",
                 med([](const Iteration& it) { return it.fleet_setup_s; }));
  s.emplace_back("fleet.promote_s",
                 med([](const Iteration& it) { return it.promote_s; }));
  s.emplace_back("fleet.cross_shard_share", med([&](const Iteration& it) {
                   return per_txn(
                       it, static_cast<double>(it.cross_shard_committed));
                 }));
  s.emplace_back("wait.log_file_sync_us", wait_per_txn("log_file_sync"));
  s.emplace_back("wait.db_file_sequential_read_us",
                 wait_per_txn("db_file_sequential_read"));
  s.emplace_back("wait.buffer_busy_us", wait_per_txn("buffer_busy"));
  s.emplace_back("wait.enq_lock_wait_us",
                 ratio(wait_delta(cc, "enq_lock_wait"),
                       static_cast<double>(cc.serial_result.committed)));
  const double traced_run = med([](const Iteration& it) { return it.run_s; });
  const double plain_run =
      over(runs.plain, [](const Iteration& it) { return it.run_s; });
  s.emplace_back("bench.trace_overhead_pct",
                 (traced_run / plain_run - 1) * 100);
  for (const char* layer :
       {"bench", "tpcc", "engine", "recovery", "fleet", "faults"}) {
    auto found = self.find(layer);
    s.emplace_back(std::string("self.") + layer + "_s",
                   (found == self.end() ? 0.0 : found->second) *
                       runs.host_speed /
                       static_cast<double>(t.size()));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
#ifndef __OPTIMIZE__
  // Host times of an unoptimised build say nothing about the program.
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimised build (build "
               "type '%s'); rebuild with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const int pinned_cpu = pin_to_one_processor();
  auto made = perfbench::make_workload(args.workload, args.seed);
  if (!made.is_ok()) usage(made.status().to_string().c_str());
  const Workload w = made.value();

  std::vector<std::string> errors;
  perfbench::Tracer tracer(false);
  keep_freed_memory();
  const Runs runs = measure(w, args, tracer, &errors);
  const std::vector<Iteration>& plain = runs.plain;
  const Iteration& first = runs.warmup.front();

  // Correctness: the benchmark's procedure must be the paper benches', and
  // the simulated outputs are a function of the seed, so iterations agree.
  vdb::Status ref = perfbench::check_against_reference(w, first, &errors);
  if (!ref.is_ok()) fatal("reference experiment", ref);
  for (const auto* group : {&runs.warmup, &runs.plain, &runs.traced}) {
    for (const Iteration& it : *group) {
      const bool same =
          w.fleet ? it.fleet_result.metrics == first.fleet_result.metrics
                  : it.serial_result.metrics == first.serial_result.metrics;
      if (!same) errors.push_back("iterations of one seed disagree");
    }
  }

  // Set-up is sampled at least five times, whatever the iteration count.
  std::vector<double> setup_samples;
  for (const Iteration& it : plain) setup_samples.push_back(it.setup_s);
  while (setup_samples.size() < 5) {
    auto s = perfbench::setup_only(w, tracer);
    if (!s.is_ok()) fatal("set-up", s.status());
    setup_samples.push_back(s.value() * runs.host_speed);
  }

  std::vector<double> slices;
  for (const Iteration& it : plain) {
    slices.insert(slices.end(), it.slice_ms.begin(), it.slice_ms.end());
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  for (const auto* group : {&runs.warmup, &runs.plain, &runs.traced}) {
    for (const Iteration& it : *group) {
      attempted += it.attempted;
      refused += it.refused;
      const std::uint64_t failed_attempts =
          w.fleet ? it.fleet_result.failed_attempts
                  : it.serial_result.failed_attempts;
      failed += failed_attempts - it.refused;
    }
  }

  const double sim_recovery_s =
      vdb::to_seconds(w.fleet ? first.fleet_result.recovery_time
                              : first.serial_result.recovery_time);
  const Section end_to_end = {
      {"setup_s", median(setup_samples)},
      {"run_s", over(plain, [](const Iteration& it) { return it.run_s; })},
      {"txn_host_us", over(plain,
                           [&](const Iteration& it) {
                             return ratio(
                                 it.drive_s * 1e6,
                                 static_cast<double>(committed(w, it)));
                           })},
      {"slice_ms_p50", percentile(slices, 0.50)},
      {"slice_ms_p95", percentile(slices, 0.95)},
      {"slice_ms_p99", percentile(slices, 0.99)},
      {"recovery_s",
       over(plain, [](const Iteration& it) { return it.recovery_s; })},
      {"peak_rss_mb", first.peak_rss_mb},
      {"sim_tpmc", over(plain, [&](const Iteration& it) {
         return w.fleet ? it.fleet_result.tpmc : it.serial_result.tpmc;
       })},
      {"sim_recovery_s", sim_recovery_s},
  };
  const double sim_lost = static_cast<double>(
      w.fleet ? first.fleet_result.lost_committed
              : first.serial_result.lost_committed);
  const Section report = {
      {"iteration_wall_s",
       over(plain, [](const Iteration& it) { return it.wall_s; })},
      {"host_speed_factor", runs.host_speed},
      {"host_kernel_ms", runs.speed->kernel_s() * 1e3},
      {"sim_lost_txns", sim_lost},
      {"sim_neworder_p90_ms",
       over(plain, [](const Iteration& it) { return it.sim_neworder_p90_ms; })},
      {"sim_committed", static_cast<double>(committed(w, first))},
      {"refused_in_outage", static_cast<double>(refused)},
      {"iterations_untraced", static_cast<double>(plain.size())},
      {"iterations_traced", static_cast<double>(runs.traced.size())},
      {"setup_samples", static_cast<double>(setup_samples.size())},
      {"slice_samples", static_cast<double>(slices.size())},
      {"slice_samples_beyond_p99",
       static_cast<double>(slices.size() - slices.size() * 99 / 100)},
      {"measured_s", runs.measured_s},
  };

  std::string layers;
  if (args.trace) {
    Section s = per_layer(w, args, runs, tracer, &errors);
    s.emplace_back("sim_lost_txns", sim_lost);
    layers = ",\"per_layer\":" + object(s);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << tracer.chrome_json();
      if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  const unsigned threads =
      std::max(args.trace ? perfbench::kProbeWorkers : 1u, w.replay_width);
  const Section env = {
      {"nproc", nproc},
      {"replay_width", w.replay_width},
      {"cc_probe_workers", args.trace ? perfbench::kProbeWorkers : 0},
      {"seed", static_cast<double>(args.seed)},
      {"slice_sim_ms", vdb::to_seconds(perfbench::kSlice) * 1e3},
      {"thread_cap", threads},
      {"pinned_cpu", static_cast<double>(pinned_cpu)},
  };
  std::string run_s_list;
  for (const Iteration& it : plain) {
    if (!run_s_list.empty()) run_s_list += ',';
    run_s_list += number(it.run_s);
  }
  std::string error_list;
  for (const std::string& e : errors) {
    if (!error_list.empty()) error_list += ',';
    error_list += quote(e);
  }
  // The environment's two non-numeric fields go before the closing brace.
  std::string env_json = object(env);
  env_json.insert(env_json.size() - 1,
                  ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
                      ",\"thread_cap_held\":" +
                      std::string(threads <= nproc ? "true" : "false"));
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,"
      "\"report\":%s,\"iteration_run_s\":[%s]%s,\"env\":%s,\"errors\":[%s]}\n",
      errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), object(end_to_end).c_str(),
      object(report).c_str(), run_s_list.c_str(), layers.c_str(),
      env_json.c_str(), error_list.c_str());
  return 0;
}
