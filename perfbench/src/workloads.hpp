// The benchmark's workloads and the procedure that runs one of them.
//
// A workload is an ExperimentOptions (single-instance workloads) or a
// FleetExperimentOptions (the fleet workload). One iteration re-enacts the
// paper's §4 procedure for those options through the layers' public calls
// (engine::Database, tpcc::Loader/Driver/ConsistencyChecker,
// recovery::BackupManager/RecoveryManager, fleet::Fleet/FleetDriver/
// FailoverOrchestrator), timing each call on the host clock, so that
// set-up, driving, recovery and the final check can be told apart. The
// driver is advanced in fixed simulated-time slices; each slice is one
// host-time sample.
//
// Each iteration also fills the same result struct that
// bench::Experiment::run() or fleet::FleetExperiment::run() returns, so the
// benchmark can prove it ran the same program as the paper benches.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/experiment.hpp"
#include "common/status.hpp"
#include "engine/database.hpp"
#include "fleet/fleet_experiment.hpp"
#include "recovery/backup.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/host.hpp"
#include "tpcc/tpcc_db.hpp"
#include "trace.hpp"

namespace perfbench {

/// One workload's options; BENCHMARK.json says why each was chosen.
struct Workload {
  bool fleet = false;
  vdb::bench::ExperimentOptions serial;
  vdb::fleet::FleetExperimentOptions fleet_opts;
  /// The replay pool's width: the engine default, capped at the host's
  /// processors.
  unsigned replay_width = 1;
};

/// Simulated time advanced per Driver::run_until call.
constexpr vdb::SimDuration kSlice = 250 * vdb::kMillisecond;

/// Worker threads of the concurrency-control probe (run_cc_probe).
constexpr unsigned kProbeWorkers = 2;

vdb::Result<Workload> make_workload(const std::string& name,
                                    std::uint64_t seed);

/// Sum of every counter and wait event across the statistics areas of one
/// run (one area for a single instance; the fleet's plus each shard's).
struct Counters {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> wait_us;

  void add(const vdb::obs::MetricsSnapshot& snap);
  std::uint64_t counter(const std::string& name) const;
  std::uint64_t wait(const std::string& event) const;
};

/// One set-up plus run of a workload, on both clocks.
struct Iteration {
  // Host seconds.
  double setup_s = 0;
  double run_s = 0;
  double drive_s = 0;     // inside Driver/FleetDriver::run_until
  double recovery_s = 0;  // inside the recovery procedure call
  std::vector<double> slice_ms;
  // Host seconds of single calls, for the per-layer numbers.
  double create_s = 0;
  double load_s = 0;
  double backup_s = 0;
  double fleet_setup_s = 0;
  double startup_s = 0;
  double pit_s = 0;
  double promote_s = 0;
  double consistency_s = 0;
  /// Wall-clock seconds of set-up + run, to compare with the CPU times.
  double wall_s = 0;
  /// The process's resident-set high-water mark at the end of the
  /// iteration, MiB; for the warm-up, the peak of one set-up + run in a
  /// fresh process.
  double peak_rss_mb = 0;

  // Driver accounting.
  std::uint64_t attempted = 0;  // interactions the end users submitted
  std::uint64_t refused = 0;    // refused by the service during the outage
  std::uint64_t cross_shard_committed = 0;

  // Simulated measures.
  double sim_neworder_p90_ms = 0;
  std::uint64_t recovered_lost_recount = 0;  // count_lost after the run

  /// V$ counters after set-up and at the end of the run.
  Counters before;
  Counters after;

  /// Exactly what the reference experiment reports for the same options.
  vdb::bench::ExperimentResult serial_result;
  vdb::fleet::FleetExperimentResult fleet_result;

  /// Correctness-gate failures found inside the iteration.
  std::vector<std::string> errors;
};

/// One simulated testbed: host, statistics area, the loaded database and
/// its reference backup.
struct Instance {
  vdb::sim::VirtualClock clock;
  vdb::sim::Scheduler sched{&clock};
  vdb::sim::Host primary{"primary", &clock};
  std::unique_ptr<vdb::obs::Observability> stats =
      std::make_unique<vdb::obs::Observability>();
  vdb::engine::DatabaseConfig cfg;
  std::unique_ptr<vdb::engine::Database> db;
  std::unique_ptr<vdb::tpcc::TpccDb> tdb;
  std::unique_ptr<vdb::recovery::BackupManager> backups;
  std::unique_ptr<vdb::recovery::RecoveryManager> rm;
};

/// The paper's set-up for a single instance: create the database and the
/// TPC-C tablespace, create the schema, load, take the reference backup.
/// Records the host time of each call in `it`.
vdb::Status set_up(const vdb::bench::ExperimentOptions& opts, Tracer& tracer,
                   Instance* in, Iteration* it);

vdb::Result<Iteration> run_iteration(const Workload& w, Tracer& tracer);

/// Multiplies every host time of `it` (the seconds and the slice samples)
/// by `factor`.
void scale_host_times(double factor, Iteration* it);

/// Set-up alone (create, schema, load, backup; or Fleet::setup), for extra
/// set-up samples. Returns host seconds.
vdb::Result<double> setup_only(const Workload& w, Tracer& tracer);

/// The traced run's probe of the txn layer: kProbeWorkers workers through
/// the TxnCoordinator under 2PL wait-die, F40G3T10, fault-free, for one
/// simulated minute. Its interleaving depends on the OS scheduler, so it
/// has no byte-identical reference; it is checked by check_iteration's
/// invariants, and failures are in the returned iteration's `errors`.
vdb::Result<Iteration> run_cc_probe(std::uint64_t seed, Tracer& tracer);

/// Runs the reference experiment for the workload's options and appends a
/// message to `errors` for every simulated output the iteration did not
/// reproduce exactly.
vdb::Status check_against_reference(const Workload& w, const Iteration& it,
                                    std::vector<std::string>* errors);

/// Correctness gate for one iteration of a single instance or a fleet:
/// integrity, lost-transaction accounting, fleet atomicity, recovery-phase
/// tiling. Failures are appended to `it->errors`.
void check_iteration(bool fleet, Iteration* it);

/// Median host µs of TpccTxns::run per transaction type (New-Order,
/// Payment, Order-Status, Delivery, Stock-Level) over a fixed deck on a
/// freshly loaded single instance.
vdb::Result<std::array<double, 5>> time_txn_types(const Workload& w,
                                                  Tracer& tracer);

}  // namespace perfbench
