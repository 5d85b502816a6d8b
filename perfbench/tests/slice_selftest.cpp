// Self-test: the benchmark's sampling does not change the program.
//
// The benchmark advances the TPC-C driver in fixed simulated-time slices
// and times each slice. This test shows that doing so is invisible on the
// simulated clock:
//
//  1. On two identically loaded instances, one Driver::run_until over the
//     whole window and the same window advanced in slices (the benchmark's
//     width and an odd 7 ms one) give byte-identical commit logs, tpmC,
//     redo bytes and throughput series.
//  2. The benchmark's full procedure for the steady and crash_restart
//     workloads reproduces bench::Experiment::run() field for field.
//
// Run with `ctest` in the package's build directory; exits non-zero on the
// first mismatch.
#include <cstdio>
#include <string>
#include <vector>

#include "tpcc/tpcc_driver.hpp"
#include "workloads.hpp"

namespace {

using namespace vdb;

constexpr SimDuration kWindow = 90 * kSecond;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    failures += 1;
  }
}

struct DriverRun {
  std::vector<tpcc::CommitRecord> commits;
  double tpmc = 0;
  Lsn redo_bytes = 0;
  std::vector<std::uint32_t> series;
};

/// Loads a fresh instance and runs the serial driver over the window,
/// `slice` simulated time per run_until call (0: one call for the window).
DriverRun run_driver(SimDuration slice) {
  bench::ExperimentOptions opts;
  opts.seed = 4242;
  perfbench::Tracer tracer(false);
  perfbench::Instance in;
  perfbench::Iteration scratch;
  Status st = perfbench::set_up(opts, tracer, &in, &scratch);
  VDB_CHECK_MSG(st.is_ok(), "set-up failed");

  tpcc::DriverConfig dcfg;
  dcfg.seed = opts.seed;
  tpcc::Driver driver(in.tdb.get(), &in.sched, dcfg);
  const SimTime start = in.clock.now();
  const SimTime end = start + kWindow;
  const Lsn redo_start = in.db->redo().next_lsn();
  if (slice == 0) {
    VDB_CHECK_MSG(driver.run_until(end).is_ok(), "unsliced run failed");
  } else {
    for (SimTime t = start + slice; in.clock.now() < end; t += slice) {
      if (t <= in.clock.now()) continue;
      VDB_CHECK_MSG(driver.run_until(std::min(t, end)).is_ok(),
                    "sliced run failed");
    }
  }
  return {driver.commits(), driver.tpmc(start, end),
          in.db->redo().next_lsn() - redo_start, driver.series()};
}

bool same_commits(const std::vector<tpcc::CommitRecord>& a,
                  const std::vector<tpcc::CommitRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].commit_lsn != b[i].commit_lsn ||
        a[i].commit_time != b[i].commit_time ||
        a[i].response_time != b[i].response_time) {
      return false;
    }
  }
  return true;
}

void test_slicing_is_invisible() {
  const DriverRun whole = run_driver(0);
  expect(!whole.commits.empty(), "the unsliced run committed nothing");
  for (SimDuration slice : {perfbench::kSlice, SimDuration{7 * kMillisecond}}) {
    const std::string tag = " (slice " + std::to_string(slice) + " us)";
    const DriverRun sliced = run_driver(slice);
    expect(same_commits(whole.commits, sliced.commits),
           "commit log differs" + tag);
    expect(whole.tpmc == sliced.tpmc, "tpmC differs" + tag);
    expect(whole.redo_bytes == sliced.redo_bytes, "redo bytes differ" + tag);
    expect(whole.series == sliced.series, "series differs" + tag);
  }
}

void test_procedure_matches_experiment(const char* name) {
  auto made = perfbench::make_workload(name, 777);
  VDB_CHECK_MSG(made.is_ok(), "unknown workload");
  perfbench::Workload w = made.value();
  // A shorter window with the fault (if any) at its middle.
  w.serial.duration = 2 * kWindow;
  if (w.serial.fault.has_value()) w.serial.fault->inject_at = kWindow;

  perfbench::Tracer tracer(true);
  auto it = perfbench::run_iteration(w, tracer);
  expect(it.is_ok(), std::string(name) + ": iteration failed");
  if (!it.is_ok()) return;
  perfbench::check_iteration(w.fleet, &it.value());
  std::vector<std::string> errors = it.value().errors;
  expect(perfbench::check_against_reference(w, it.value(), &errors).is_ok(),
         std::string(name) + ": reference experiment failed");
  for (const std::string& e : errors) expect(false, name + (": " + e));
  expect(!tracer.spans().empty(), std::string(name) + ": no spans recorded");
}

}  // namespace

int main() {
  test_slicing_is_invisible();
  test_procedure_matches_experiment("steady");
  test_procedure_matches_experiment("crash_restart");
  if (failures == 0) std::printf("perfbench self-test: OK\n");
  return failures == 0 ? 0 : 1;
}
