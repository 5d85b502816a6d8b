#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "benchmark/recovery_configs.hpp"
#include "common/parallel.hpp"
#include "engine/database.hpp"
#include "faults/fault_injector.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/orchestrator.hpp"
#include "recovery/backup.hpp"
#include "recovery/recovery_manager.hpp"
#include "sim/host.hpp"
#include "tpcc/consistency.hpp"
#include "tpcc/schema.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_driver.hpp"
#include "tpcc/tpcc_loader.hpp"
#include "tpcc/tpcc_txns.hpp"

namespace perfbench {

using namespace vdb;

namespace {

// The repo's quick-mode experiment (bench_common.hpp): a 6-minute window
// with the fault at the paper's first trigger instant. The paper's full
// 20-minute window does not fit the benchmark's per-run time budget.
constexpr SimDuration kWindow = 6 * kMinute;
constexpr SimDuration kFaultAt = 150 * kSecond;
// Enough slices per iteration for ten samples beyond slice_ms_p99.
static_assert(kWindow / kSlice >= 1000);

const bench::RecoveryConfigSpec& config(const char* name) {
  const bench::RecoveryConfigSpec* spec = bench::find_config(name);
  VDB_CHECK_MSG(spec != nullptr, "unknown recovery configuration");
  return *spec;
}

faults::FaultSpec operator_fault(faults::FaultType type) {
  faults::FaultSpec spec;
  spec.type = type;
  spec.inject_at = kFaultAt;
  spec.tablespace = "TPCC";
  spec.table = "history";
  return spec;
}

unsigned host_processors() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// --- single-instance workloads ---------------------------------------------

void add_standard_disks(sim::Host& host) {
  host.add_disk("/data");
  host.add_disk("/redo");
  host.add_disk("/arch");
  host.add_disk("/backup");
}

// Same derivation as the experiment harness, so both build one database.
engine::DatabaseConfig make_db_config(const bench::ExperimentOptions& opts) {
  engine::DatabaseConfig cfg;
  cfg.name = "tpcc";
  cfg.redo.file_size_bytes =
      static_cast<std::uint64_t>(opts.config.file_mb) * 1024 * 1024;
  cfg.redo.groups = opts.config.groups;
  cfg.redo.archive_mode = opts.archive_mode || opts.with_standby;
  cfg.checkpoint_timeout =
      static_cast<SimDuration>(opts.config.timeout_sec) * kSecond;
  cfg.storage.cache_pages = opts.cache_pages;
  cfg.restart_mode = opts.restart_mode;
  cfg.early_open_stall = opts.early_open_stall;
  cfg.cc_protocol = opts.cc_protocol;
  return cfg;
}

/// Advances `run_until` over the fixed slice grid anchored at `origin`,
/// recording one host-time sample per completed slice. Stops at the first
/// error (the end user seeing the failure), with the clock at the failure
/// instant; that partial call counts in drive_s but is not a slice sample.
template <typename RunUntil>
Status drive(sim::VirtualClock& clock, SimTime origin, SimTime until,
             Tracer& tracer, const char* layer, const char* call,
             Iteration* it, RunUntil&& run_until) {
  while (clock.now() < until) {
    const SimTime next = std::min(
        until, origin + ((clock.now() - origin) / kSlice + 1) * kSlice);
    Scope s(tracer, layer, call);
    Status st = run_until(next);
    const double secs = s.stop();
    it->drive_s += secs;
    if (!st.is_ok()) return st;
    it->slice_ms.push_back(secs * 1e3);
  }
  return Status::ok();
}

/// The experiment procedure (bench::Experiment::run) for the options the
/// benchmark uses: no fault, or one operator fault recovered by instance
/// restart or point-in-time recovery. Every clock-advancing step happens in
/// the same order as there, so the simulated outputs are the same.
Result<Iteration> run_serial(const bench::ExperimentOptions& opts,
                             Tracer& tracer) {
  Iteration it;
  Instance in;
  VDB_RETURN_IF_ERROR(set_up(opts, tracer, &in, &it));
  it.before.add(in.stats->snapshot());

  Scope run(tracer, "bench", "run");
  sim::VirtualClock& clock = in.clock;
  obs::Observability& stats = *in.stats;
  tpcc::TpccDb& tdb = *in.tdb;

  tpcc::DriverConfig dcfg;
  dcfg.seed = opts.seed;
  dcfg.workers = opts.workers;
  dcfg.cc_protocol = opts.cc_protocol;
  tpcc::Driver driver(&tdb, &in.sched, dcfg);

  const SimTime start = clock.now();
  const SimTime end = start + opts.duration;
  bench::ExperimentResult& result = it.serial_result;
  result.workload_start = start;
  result.restart_mode = engine::to_string(opts.restart_mode);
  auto run_until = [&](SimTime until) {
    return drive(clock, start, until, tracer, "tpcc", "Driver::run_until", &it,
                 [&](SimTime t) { return driver.run_until(t); });
  };

  const Lsn redo_start_lsn = in.db->redo().next_lsn();
  auto accumulate_engine = [&](engine::Database& d) {
    result.full_checkpoints += d.stats().full_checkpoints;
    result.incremental_checkpoints += d.stats().incremental_checkpoints;
    result.log_switches += d.redo().switch_count();
    result.log_stall_time += d.redo().stall_time();
    result.io_retries += d.storage().retry_stats().retries;
    result.io_retry_exhausted += d.storage().retry_stats().exhausted;
  };

  if (!opts.fault.has_value()) {
    Status st = run_until(end);
    if (!st.is_ok()) {
      return make_error(st.code(),
                        "workload failed without fault: " + st.message());
    }
  } else {
    const faults::FaultSpec& fault = *opts.fault;
    Status st = run_until(start + fault.inject_at);
    if (!st.is_ok()) {
      return make_error(st.code(), "pre-fault workload failed: " + st.message());
    }
    const std::uint64_t failed_before = driver.stats().failed_attempts;
    {
      Scope s(tracer, "faults", "FaultInjector::inject");
      faults::FaultInjector injector;
      VDB_RETURN_IF_ERROR(injector.inject(*in.db, fault));
    }
    result.fault_injected = true;
    result.fault_time = clock.now();

    Status failure = run_until(end);
    if (failure.is_ok()) {
      result.recovered = true;
    } else {
      it.refused = driver.stats().failed_attempts - failed_before;
      const SimTime failure_time = clock.now();
      result.detection_delay = opts.detection_time;
      obs::RecoveryTracer& rt = stats.tracer();
      rt.start("operator fault recovery", failure_time);
      rt.enter(obs::RecoveryPhase::kDetection, failure_time);
      clock.advance_by(opts.detection_time);
      const SimTime recovery_start = clock.now();
      rt.enter(obs::RecoveryPhase::kRestore, recovery_start);

      Lsn recovered_to = std::numeric_limits<Lsn>::max();  // complete
      bool procedure_ok = true;
      auto reattach = [&](engine::Database& d) { (void)tdb.attach(&d); };
      switch (faults::recovery_kind(fault.type)) {
        case faults::RecoveryKind::kInstanceRestart: {
          accumulate_engine(*in.db);
          auto fresh = std::make_unique<engine::Database>(&in.primary,
                                                          &in.sched, in.cfg);
          fresh->set_on_mounted(reattach);
          Scope s(tracer, "engine", "Database::startup");
          Status up = fresh->startup();
          it.startup_s = it.recovery_s = s.stop();
          if (!up.is_ok()) {
            procedure_ok = false;
          } else {
            in.db = std::move(fresh);
          }
          break;
        }
        case faults::RecoveryKind::kPointInTime: {
          accumulate_engine(*in.db);
          if (in.db->is_open()) (void)in.db->shutdown_abort();
          auto stop =
              fault.type == faults::FaultType::kDeleteTablespace
                  ? recovery::stop_before_drop_tablespace(fault.tablespace)
                  : recovery::stop_before_drop_table(fault.table);
          Scope s(tracer, "recovery", "RecoveryManager::point_in_time_recover");
          auto pit = in.rm->point_in_time_recover(in.cfg, stop, reattach);
          it.pit_s = it.recovery_s = s.stop();
          if (!pit.is_ok()) {
            procedure_ok = false;
          } else {
            in.db = std::move(pit.value().db);
            recovered_to = pit.value().report.recovered_to;
            result.archives_read = pit.value().report.archives_read;
            result.recovery_complete = false;
          }
          break;
        }
        default:
          return make_error(ErrorCode::kInvalidArgument,
                            "the benchmark drives instance restart and "
                            "point-in-time recovery only");
      }

      // The experiment's recovery epilogue: lost transactions, then resume
      // and time recovery to the first post-procedure commit.
      const SimTime open_at = clock.now();
      if (rt.active()) rt.enter(obs::RecoveryPhase::kResume, open_at);
      if (procedure_ok) {
        result.open_time =
            open_at > recovery_start ? open_at - recovery_start : 0;
      } else {
        result.open_time = end > recovery_start ? end - recovery_start : 0;
        recovered_to = 0;
        result.recovery_complete = false;
      }
      result.lost_committed = driver.count_lost(recovered_to, failure_time);
      if (procedure_ok) {
        const size_t commits_before = driver.commits().size();
        Status resume = run_until(end);
        if (driver.commits().size() > commits_before) {
          result.recovered = true;
          const SimTime first_commit =
              driver.commits()[commits_before].commit_time;
          result.recovery_time = first_commit - recovery_start;
          result.first_commit_time = result.recovery_time;
          if (rt.active()) rt.finish(first_commit);
        } else {
          result.recovered = false;
          result.recovery_time =
              end > recovery_start ? end - recovery_start : 0;
          result.first_commit_time = result.recovery_time;
          if (rt.active()) rt.finish(clock.now());
        }
        if (!resume.is_ok() && clock.now() < end) {
          return make_error(resume.code(), "post-recovery workload failed: " +
                                               resume.message());
        }
      } else {
        result.recovered = false;
        result.recovery_time = end > recovery_start ? end - recovery_start : 0;
        result.first_commit_time = result.recovery_time;
        if (rt.active()) rt.finish(clock.now());
      }
      // Recounted from the driver's commit log after the resumed run.
      it.recovered_lost_recount = driver.count_lost(recovered_to, failure_time);
    }
  }

  accumulate_engine(*in.db);
  result.redo_bytes = in.db->redo().next_lsn() - redo_start_lsn;
  for (const auto& disk : in.primary.disks()) {
    result.transient_errors += disk->stats().transient_errors;
  }
  result.tpmc = driver.tpmc(start, end);
  result.tpm_total = driver.tpm_total(start, end);
  result.committed = driver.stats().committed;
  result.intentional_rollbacks = driver.stats().intentional_rollbacks;
  result.failed_attempts = driver.stats().failed_attempts;
  result.recovery_retries = driver.stats().recovery_retries;
  result.series = driver.series();
  result.series_interval = driver.series_interval();
  result.cc_protocol = txn::to_string(opts.cc_protocol);
  result.workers = driver.workers();
  result.cc_retries = driver.stats().cc_retries;
  const txn::CcStats ccs = driver.cc_stats();
  result.cc_aborts = ccs.aborts;
  result.wait_die_aborts = ccs.wait_die_aborts;
  result.occ_validate_fails = ccs.occ_validate_fails;
  result.cc_lock_waits = ccs.lock_waits;

  if (in.db->is_open()) {
    VDB_RETURN_IF_ERROR(in.db->complete_restart_recovery());
    Scope s(tracer, "tpcc", "ConsistencyChecker::run_all");
    tpcc::ConsistencyChecker checker(&tdb);
    auto report = checker.run_all();
    if (!report.is_ok()) return report.status();
    it.consistency_s = s.stop();
    result.integrity_checks = report.value().checks_run;
    result.integrity_violations = report.value().violations;
    result.integrity_messages = report.value().messages;
  }
  it.run_s = run.stop();

  if (const obs::RecoveryTrace* trace = stats.tracer().latest()) {
    for (size_t k = 0; k < obs::kRecoveryPhaseCount; ++k) {
      const auto phase = static_cast<obs::RecoveryPhase>(k);
      result.recovery_phases.emplace_back(obs::to_string(phase),
                                          trace->phase_time(phase));
    }
  }
  result.metrics = stats.snapshot();
  it.after.add(result.metrics);
  const tpcc::DriverStats& ds = driver.stats();
  it.attempted = ds.committed + ds.intentional_rollbacks + ds.failed_attempts +
                 ds.lock_retries + ds.recovery_retries + ds.cc_retries;
  it.sim_neworder_p90_ms = static_cast<double>(driver.response_percentile(
                               tpcc::TxnType::kNewOrder, 0.9)) /
                           static_cast<double>(kMillisecond);
  return it;
}

// --- fleet workload ----------------------------------------------------------

/// The fleet experiment's per-shard V$SYSSTAT view: `from`'s rows appended
/// to `into` with every name prefixed.
void merge_prefixed(obs::MetricsSnapshot* into,
                    const obs::MetricsSnapshot& from,
                    const std::string& prefix) {
  for (const auto& [name, value] : from.counters) {
    into->counters.emplace_back(prefix + name, value);
  }
  for (const auto& [name, value] : from.gauges) {
    into->gauges.emplace_back(prefix + name, value);
  }
  for (obs::WaitEventRow row : from.wait_events) {
    row.event = prefix + row.event;
    into->wait_events.push_back(std::move(row));
  }
  for (obs::HistogramRow row : from.histograms) {
    row.name = prefix + row.name;
    into->histograms.push_back(std::move(row));
  }
  for (obs::TraceRow row : from.recovery) {
    row.label = prefix + row.label;
    into->recovery.push_back(std::move(row));
  }
}

/// Shard-local TPC-C conditions plus the fleet-wide warehouse-history
/// condition, skipped when accounted redo loss split a cross-shard
/// transaction — the same checks, in the same order, as the fleet
/// experiment.
Status check_fleet_integrity(fleet::Fleet& fl, const fleet::FleetDriver& driver,
                             const std::vector<fleet::FailoverEvent>& events,
                             fleet::FleetExperimentResult* result) {
  for (std::uint32_t i = 0; i < fl.size(); ++i) {
    tpcc::ConsistencyChecker checker(&fl.tdb(i));
    tpcc::ConsistencyReport report;
    VDB_RETURN_IF_ERROR(checker.check_warehouse_ytd(&report));
    VDB_RETURN_IF_ERROR(checker.check_order_id_monotony(&report));
    VDB_RETURN_IF_ERROR(checker.check_new_order_contiguity(&report));
    VDB_RETURN_IF_ERROR(checker.check_order_line_counts(&report));
    VDB_RETURN_IF_ERROR(checker.check_delivery_flags(&report));
    VDB_RETURN_IF_ERROR(checker.check_customer_balance(&report));
    result->integrity_checks += report.checks_run;
    result->integrity_violations += report.violations;
    for (const std::string& message : report.messages) {
      result->integrity_messages.push_back("shard" + std::to_string(i) +
                                           ": " + message);
    }
  }

  bool cross_loss = false;
  std::map<std::uint32_t, std::pair<Lsn, SimTime>> promoted;
  for (const fleet::FailoverEvent& event : events) {
    promoted[event.shard] = {event.recovered_to, event.failed_at};
  }
  for (const fleet::FleetCommitRecord& record : driver.commits()) {
    if (record.branches.size() < 2) continue;
    bool lost = false;
    bool kept = false;
    for (const auto& [shard, lsn] : record.branches) {
      auto p = promoted.find(shard);
      if (p != promoted.end() && lsn > p->second.first &&
          record.commit_time < p->second.second) {
        lost = true;
      } else {
        kept = true;
      }
    }
    if (lost && kept) cross_loss = true;
  }
  for (const auto& [gtxn, g] : fl.registry().txns()) {
    bool wiped = false;
    bool committed = false;
    for (const fleet::BranchRecord& b : g.branches) {
      if (b.outcome == 'L') wiped = true;
      if (b.outcome == 'C') committed = true;
    }
    if (wiped && committed) cross_loss = true;
  }
  if (cross_loss) {
    result->history_check_skipped = true;
    result->integrity_messages.push_back(
        "W-history check skipped: cross-shard transactions wiped by "
        "accounted redo loss on promotion");
    return Status::ok();
  }

  result->integrity_checks += 1;
  std::map<std::uint32_t, double> history_sum;
  std::map<std::uint32_t, double> w_ytd;
  for (std::uint32_t i = 0; i < fl.size(); ++i) {
    tpcc::TpccDb& tdb = fl.tdb(i);
    VDB_RETURN_IF_ERROR(tdb.db().scan(
        tdb.table(tpcc::Tbl::kHistory),
        [&](RowId, std::span<const std::uint8_t> bytes) {
          auto row = tpcc::from_bytes<tpcc::HistoryRow>(bytes);
          history_sum[row.h_w_id] += row.h_amount;
          return true;
        }));
    VDB_RETURN_IF_ERROR(tdb.db().scan(
        tdb.table(tpcc::Tbl::kWarehouse),
        [&](RowId, std::span<const std::uint8_t> bytes) {
          auto row = tpcc::from_bytes<tpcc::WarehouseRow>(bytes);
          w_ytd[row.w_id] = row.w_ytd;
          return true;
        }));
  }
  const double initial_hist = 10.0 * fl.scale().districts_per_warehouse *
                              fl.scale().customers_per_district;
  for (const auto& [w, ytd] : w_ytd) {
    const double expected = 300000.0 + history_sum[w] - initial_hist;
    if (std::fabs(ytd - expected) >= 0.02) {
      result->integrity_violations += 1;
      result->integrity_messages.push_back(
          "fleet W-history: warehouse " + std::to_string(w) +
          " ytd differs from the fleet-wide history");
    }
  }
  return Status::ok();
}

/// The fleet experiment procedure (fleet::FleetExperiment::run) for a
/// fault-free run or a single-shard crash scenario.
Result<Iteration> run_fleet(const fleet::FleetExperimentOptions& opts,
                            Tracer& tracer) {
  Iteration it;
  fleet::FleetConfig fcfg = opts.fleet;
  fcfg.shards = opts.shards;
  fcfg.seed = opts.seed;
  fleet::Fleet fl(fcfg);
  {
    Scope setup(tracer, "bench", "setup");
    Scope s(tracer, "fleet", "Fleet::setup");
    VDB_RETURN_IF_ERROR(fl.setup());
    it.fleet_setup_s = s.stop();
    it.setup_s = setup.stop();
  }
  for (std::uint32_t i = 0; i < fl.size(); ++i) {
    it.before.add(fl.shard(i).obs->snapshot());
  }

  Scope run(tracer, "bench", "run");
  sim::VirtualClock& clock = fl.clock();
  obs::Observability fleet_obs;
  fleet::FleetDriverConfig dcfg;
  dcfg.seed = opts.seed;
  fleet::FleetDriver driver(&fl, &fleet_obs, dcfg);
  fleet::FailoverOrchestrator orchestrator(&fl, opts.orchestrator, &fleet_obs);
  orchestrator.start();

  const SimTime start = clock.now();
  const SimTime end = start + opts.duration;
  fleet::FleetExperimentResult& result = it.fleet_result;
  result.shard_count = fl.size();
  result.workload_start = start;
  result.lost_per_shard.assign(fl.size(), 0);
  auto run_until = [&](SimTime until) {
    return drive(clock, start, until, tracer, "fleet", "FleetDriver::run_until",
                 &it, [&](SimTime t) { return driver.run_until(t); });
  };

  SimTime crash_at = 0;
  auto kill = [&](std::uint32_t shard) {
    if (crash_at == 0) crash_at = clock.now();
    Scope s(tracer, "fleet", "Fleet::kill_shard");
    (void)fl.kill_shard(shard);
  };
  std::uint64_t failed_before = 0;
  if (!opts.scenario.has_value()) {
    Status st = run_until(end);
    if (!st.is_ok()) {
      return make_error(st.code(),
                        "workload failed without fault: " + st.message());
    }
  } else {
    Status pre = run_until(start + opts.inject_at);
    if (!pre.is_ok()) {
      return make_error(pre.code(),
                        "pre-fault workload failed: " + pre.message());
    }
    failed_before = driver.stats().failed_attempts;
    switch (*opts.scenario) {
      case faults::FleetScenario::kSingleShardCrash:
        (void)fl.active_db(0).redo().force_switch();
        kill(0);
        break;
      case faults::FleetScenario::kPromotionWithRedoLoss:
        kill(0);
        break;
      default:
        return make_error(ErrorCode::kInvalidArgument,
                          "the benchmark drives single-shard crash "
                          "scenarios only");
    }
    (void)run_until(end);
  }

  result.fault_injected = crash_at != 0;
  if (result.fault_injected) {
    while (clock.now() < end) {
      Scope s(tracer, "fleet", "FailoverOrchestrator::await_fleet_healthy");
      const bool healthy = orchestrator.await_fleet_healthy(end);
      it.promote_s += s.stop();
      if (!healthy) break;
      if (run_until(end).is_ok()) break;
    }
    it.recovery_s = it.promote_s;
    it.refused = driver.stats().failed_attempts - failed_before;
  }
  orchestrator.stop();

  const auto& events = orchestrator.events();
  result.promotions = orchestrator.promotions();
  result.in_doubt_resolved = orchestrator.in_doubt_resolved();
  if (!events.empty()) {
    const SimTime procedure_start = events.front().declared_at;
    const SimTime restored = events.back().restored_at;
    result.detection_delay = procedure_start - events.front().failed_at;
    SimTime first_commit = 0;
    for (const fleet::FleetCommitRecord& record : driver.commits()) {
      if (record.commit_time >= restored) {
        first_commit = record.commit_time;
        break;
      }
    }
    obs::RecoveryTracer& rt = fleet_obs.tracer();
    if (fl.healthy() && first_commit != 0) {
      result.recovered = true;
      result.recovery_time = first_commit - procedure_start;
      if (rt.active()) rt.finish(first_commit);
    } else {
      result.recovered = false;
      result.recovery_time =
          end > procedure_start ? end - procedure_start : 0;
      if (rt.active()) rt.finish(clock.now());
    }
    for (const fleet::FailoverEvent& event : events) {
      const std::uint64_t lost =
          driver.count_lost(event.shard, event.recovered_to, event.failed_at);
      result.lost_per_shard[event.shard] += lost;
      result.lost_committed += lost;
    }
  } else if (result.fault_injected) {
    result.recovered = false;
    result.recovery_time = end > crash_at ? end - crash_at : 0;
  } else {
    result.recovered = true;
  }
  result.fault_time = crash_at;
  result.atomicity_violations = fl.registry().atomicity_violations();
  result.cross_shard_started = driver.txns().cross_shard_started();
  result.remote_branches = driver.txns().remote_branches();
  result.tpmc = driver.tpmc(start, end);
  result.tpm_total = driver.tpm_total(start, end);
  result.committed = driver.stats().committed;
  result.cross_shard_committed = driver.stats().cross_shard_committed;
  result.intentional_rollbacks = driver.stats().intentional_rollbacks;
  result.failed_attempts = driver.stats().failed_attempts;
  result.series = driver.series();
  result.series_interval = driver.series_interval();

  if (fl.healthy()) {
    Scope s(tracer, "tpcc", "ConsistencyChecker (per shard)");
    VDB_RETURN_IF_ERROR(check_fleet_integrity(fl, driver, events, &result));
    it.consistency_s = s.stop();
  }
  it.run_s = run.stop();

  if (const obs::RecoveryTrace* trace = fleet_obs.tracer().latest()) {
    for (size_t k = 0; k < obs::kRecoveryPhaseCount; ++k) {
      const auto phase = static_cast<obs::RecoveryPhase>(k);
      result.recovery_phases.emplace_back(obs::to_string(phase),
                                          trace->phase_time(phase));
    }
  }
  result.metrics = fleet_obs.snapshot();
  it.after.add(result.metrics);
  for (std::uint32_t i = 0; i < fl.size(); ++i) {
    const obs::MetricsSnapshot shard = fl.shard(i).obs->snapshot();
    merge_prefixed(&result.metrics, shard, "shard" + std::to_string(i) + " ");
    it.after.add(shard);
  }

  const fleet::FleetDriverStats& ds = driver.stats();
  it.attempted = ds.committed + ds.intentional_rollbacks + ds.failed_attempts +
                 ds.lock_retries + ds.recovery_retries;
  it.cross_shard_committed = ds.cross_shard_committed;
  // FleetDriver has no response_percentile(); take the p90 from its commit
  // log exactly as Driver::response_percentile does.
  std::vector<SimDuration> samples;
  for (const fleet::FleetCommitRecord& record : driver.commits()) {
    if (record.type == tpcc::TxnType::kNewOrder) {
      samples.push_back(record.response_time);
    }
  }
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    const size_t index =
        std::min(samples.size() - 1,
                 static_cast<size_t>(0.9 * static_cast<double>(samples.size())));
    it.sim_neworder_p90_ms = static_cast<double>(samples[index]) /
                             static_cast<double>(kMillisecond);
  }
  it.recovered_lost_recount = 0;
  for (const fleet::FailoverEvent& event : events) {
    it.recovered_lost_recount +=
        driver.count_lost(event.shard, event.recovered_to, event.failed_at);
  }
  return it;
}


}  // namespace

// --- public interface --------------------------------------------------------

/// Create, schema, load, backup — the paper's set-up, one span per call.
Status set_up(const bench::ExperimentOptions& opts, Tracer& tracer,
              Instance* in, Iteration* it) {
  Scope setup(tracer, "bench", "setup");
  add_standard_disks(in->primary);
  in->cfg = make_db_config(opts);
  in->cfg.obs = in->stats.get();
  in->db = std::make_unique<engine::Database>(&in->primary, &in->sched,
                                              in->cfg);
  {
    Scope s(tracer, "engine", "Database::create");
    VDB_RETURN_IF_ERROR(in->db->create());
    it->create_s = s.stop();
  }
  std::vector<std::pair<std::string, std::uint32_t>> files;
  for (std::uint32_t i = 0; i < opts.datafiles; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "/data/tpcc%02u.dbf", i + 1);
    files.emplace_back(buf, opts.datafile_blocks);
  }
  UserId user;
  {
    Scope s(tracer, "engine", "Database::create_tablespace");
    auto ts = in->db->create_tablespace("TPCC", files);
    if (!ts.is_ok()) return ts.status();
  }
  {
    Scope s(tracer, "engine", "Database::create_user");
    auto u = in->db->create_user("TPCC", /*is_dba=*/false);
    if (!u.is_ok()) return u.status();
    user = u.value();
  }
  in->tdb = std::make_unique<tpcc::TpccDb>(opts.scale);
  {
    Scope s(tracer, "tpcc", "TpccDb::create_schema");
    VDB_RETURN_IF_ERROR(in->tdb->create_schema(*in->db, "TPCC", user));
    VDB_RETURN_IF_ERROR(in->tdb->attach(in->db.get()));
  }
  {
    Scope s(tracer, "tpcc", "Loader::load");
    tpcc::Loader loader(in->tdb.get(), opts.seed ^ 0x10ad5eedull);
    auto load = loader.load();
    if (!load.is_ok()) return load.status();
    it->load_s = s.stop();
  }
  in->backups =
      std::make_unique<recovery::BackupManager>(&in->primary.fs(), "/backup");
  in->rm = std::make_unique<recovery::RecoveryManager>(
      &in->primary, &in->sched, in->backups.get());
  {
    Scope s(tracer, "recovery", "BackupManager::take_backup");
    auto backup = in->backups->take_backup(*in->db);
    if (!backup.is_ok()) return backup.status();
    it->backup_s = s.stop();
  }
  it->setup_s = setup.stop();
  return Status::ok();
}


void Counters::add(const obs::MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) counters[name] += value;
  for (const obs::WaitEventRow& row : snap.wait_events) {
    wait_us[row.event] += row.time_us;
  }
}

std::uint64_t Counters::counter(const std::string& name) const {
  auto c = counters.find(name);
  return c == counters.end() ? 0 : c->second;
}

std::uint64_t Counters::wait(const std::string& event) const {
  auto w = wait_us.find(event);
  return w == wait_us.end() ? 0 : w->second;
}

Result<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.serial.duration = kWindow;
  w.serial.seed = seed;
  w.replay_width = std::min(resolve_jobs(0), host_processors());
  if (name == "steady") {
    w.serial.config = config("F40G3T10");
  } else if (name == "crash_restart") {
    w.serial.config = config("F400G3T20");
    w.serial.fault = operator_fault(faults::FaultType::kShutdownAbort);
  } else if (name == "archive_pit") {
    w.serial.config = config("F10G3T5");
    w.serial.archive_mode = true;
    w.serial.fault = operator_fault(faults::FaultType::kDeleteUserObject);
  } else if (name == "fleet_failover") {
    w.fleet = true;
    w.fleet_opts.shards = 3;
    w.fleet_opts.scenario = faults::FleetScenario::kPromotionWithRedoLoss;
    w.fleet_opts.duration = kWindow;
    w.fleet_opts.inject_at = kFaultAt;
    w.fleet_opts.seed = seed;
  } else {
    return make_error(ErrorCode::kInvalidArgument,
                      "unknown workload '" + name + "'");
  }
  return w;
}

Result<Iteration> run_iteration(const Workload& w, Tracer& tracer) {
  return w.fleet ? run_fleet(w.fleet_opts, tracer)
                 : run_serial(w.serial, tracer);
}

void scale_host_times(double factor, Iteration* it) {
  for (double* t : {&it->setup_s, &it->run_s, &it->drive_s, &it->recovery_s,
                    &it->create_s, &it->load_s, &it->backup_s,
                    &it->fleet_setup_s, &it->startup_s, &it->pit_s,
                    &it->promote_s, &it->consistency_s}) {
    *t *= factor;
  }
  for (double& ms : it->slice_ms) ms *= factor;
}

Result<Iteration> run_cc_probe(std::uint64_t seed, Tracer& tracer) {
  bench::ExperimentOptions opts;
  opts.config = config("F40G3T10");
  opts.duration = kMinute;
  opts.seed = seed;
  opts.workers = kProbeWorkers;
  opts.cc_protocol = txn::CcProtocol::k2pl;
  auto it = run_serial(opts, tracer);
  if (it.is_ok()) check_iteration(/*fleet=*/false, &it.value());
  return it;
}

Result<double> setup_only(const Workload& w, Tracer& tracer) {
  if (w.fleet) {
    fleet::FleetConfig fcfg = w.fleet_opts.fleet;
    fcfg.shards = w.fleet_opts.shards;
    fcfg.seed = w.fleet_opts.seed;
    fleet::Fleet fl(fcfg);
    Scope setup(tracer, "bench", "setup");
    Scope s(tracer, "fleet", "Fleet::setup");
    VDB_RETURN_IF_ERROR(fl.setup());
    s.stop();
    return setup.stop();
  }
  Instance in;
  Iteration it;
  VDB_RETURN_IF_ERROR(set_up(w.serial, tracer, &in, &it));
  return it.setup_s;
}

void check_iteration(bool fleet, Iteration* it) {
  auto fail = [&](const std::string& what) { it->errors.push_back(what); };
  std::uint32_t violations = 0;
  std::uint32_t checks = 0;
  bool fault = false;
  bool recovered = false;
  SimDuration recovery_time = 0;
  std::uint64_t lost = 0;
  std::uint64_t failed = 0;
  const std::vector<std::pair<std::string, SimDuration>>* phases = nullptr;
  if (fleet) {
    const fleet::FleetExperimentResult& r = it->fleet_result;
    violations = r.integrity_violations;
    checks = r.integrity_checks;
    fault = r.fault_injected;
    recovered = r.recovered;
    recovery_time = r.recovery_time;
    lost = r.lost_committed;
    failed = r.failed_attempts;
    phases = &r.recovery_phases;
    if (r.atomicity_violations != 0) {
      fail(std::to_string(r.atomicity_violations) +
           " cross-shard atomicity violations");
    }
  } else {
    const bench::ExperimentResult& r = it->serial_result;
    violations = r.integrity_violations;
    checks = r.integrity_checks;
    fault = r.fault_injected;
    recovered = r.recovered;
    recovery_time = r.recovery_time;
    lost = r.lost_committed;
    failed = r.failed_attempts;
    phases = &r.recovery_phases;
    if (fault && r.recovery_complete && lost != 0) {
      fail("complete recovery lost " + std::to_string(lost) + " commits");
    }
  }
  if (checks == 0) fail("no TPC-C consistency check ran");
  if (violations != 0) {
    fail(std::to_string(violations) + " TPC-C integrity violations");
  }
  if (failed != it->refused) {
    fail(std::to_string(failed - it->refused) +
         " transactions failed outside the injected outage");
  }
  if (lost != it->recovered_lost_recount) {
    fail("lost transactions " + std::to_string(lost) +
         " differ from the driver's count_lost " +
         std::to_string(it->recovered_lost_recount));
  }
  if (fault) {
    if (!recovered) fail("service did not return within the window");
    // Recovery phases tile the headline: Sum - Headline = 0, to the tick.
    SimDuration sum = 0;
    for (const auto& [phase, time] : *phases) {
      if (phase != "detection") sum += time;
    }
    if (sum != recovery_time) {
      fail("recovery phases sum to " + std::to_string(sum) +
           " us, headline is " + std::to_string(recovery_time) + " us");
    }
  }
}

namespace {

template <typename T>
void expect_equal(const char* field, const T& ours, const T& theirs,
                  std::vector<std::string>* errors) {
  if (!(ours == theirs)) {
    errors->push_back(std::string("simulated output '") + field +
                      "' differs from the reference experiment");
  }
}

}  // namespace

Status check_against_reference(const Workload& w, const Iteration& it,
                               std::vector<std::string>* errors) {
#define PERFBENCH_EXPECT(field) \
  expect_equal(#field, ours.field, ref.field, errors)
  if (w.fleet) {
    auto run = fleet::FleetExperiment(w.fleet_opts).run();
    if (!run.is_ok()) return run.status();
    const fleet::FleetExperimentResult& ref = run.value();
    const fleet::FleetExperimentResult& ours = it.fleet_result;
    PERFBENCH_EXPECT(tpmc);
    PERFBENCH_EXPECT(tpm_total);
    PERFBENCH_EXPECT(committed);
    PERFBENCH_EXPECT(cross_shard_committed);
    PERFBENCH_EXPECT(intentional_rollbacks);
    PERFBENCH_EXPECT(failed_attempts);
    PERFBENCH_EXPECT(series);
    PERFBENCH_EXPECT(cross_shard_started);
    PERFBENCH_EXPECT(remote_branches);
    PERFBENCH_EXPECT(fault_injected);
    PERFBENCH_EXPECT(recovered);
    PERFBENCH_EXPECT(recovery_time);
    PERFBENCH_EXPECT(detection_delay);
    PERFBENCH_EXPECT(promotions);
    PERFBENCH_EXPECT(in_doubt_resolved);
    PERFBENCH_EXPECT(atomicity_violations);
    PERFBENCH_EXPECT(lost_per_shard);
    PERFBENCH_EXPECT(lost_committed);
    PERFBENCH_EXPECT(integrity_checks);
    PERFBENCH_EXPECT(integrity_violations);
    PERFBENCH_EXPECT(history_check_skipped);
    PERFBENCH_EXPECT(fault_time);
    PERFBENCH_EXPECT(recovery_phases);
    PERFBENCH_EXPECT(metrics);
  } else {
    auto run = bench::Experiment(w.serial).run();
    if (!run.is_ok()) return run.status();
    const bench::ExperimentResult& ref = run.value();
    const bench::ExperimentResult& ours = it.serial_result;
    PERFBENCH_EXPECT(tpmc);
    PERFBENCH_EXPECT(tpm_total);
    PERFBENCH_EXPECT(committed);
    PERFBENCH_EXPECT(intentional_rollbacks);
    PERFBENCH_EXPECT(failed_attempts);
    PERFBENCH_EXPECT(series);
    PERFBENCH_EXPECT(full_checkpoints);
    PERFBENCH_EXPECT(incremental_checkpoints);
    PERFBENCH_EXPECT(log_switches);
    PERFBENCH_EXPECT(log_stall_time);
    PERFBENCH_EXPECT(redo_bytes);
    PERFBENCH_EXPECT(fault_injected);
    PERFBENCH_EXPECT(recovered);
    PERFBENCH_EXPECT(recovery_complete);
    PERFBENCH_EXPECT(recovery_time);
    PERFBENCH_EXPECT(open_time);
    PERFBENCH_EXPECT(lost_committed);
    PERFBENCH_EXPECT(archives_read);
    PERFBENCH_EXPECT(integrity_checks);
    PERFBENCH_EXPECT(integrity_violations);
    PERFBENCH_EXPECT(fault_time);
    PERFBENCH_EXPECT(recovery_phases);
    PERFBENCH_EXPECT(metrics);
  }
#undef PERFBENCH_EXPECT
  return Status::ok();
}

Result<std::array<double, 5>> time_txn_types(const Workload& w,
                                             Tracer& tracer) {
  // The fleet workload's transactions are FleetTxns; the per-type medians
  // always time the single-instance TpccTxns on the workload's scale.
  bench::ExperimentOptions opts = w.serial;
  if (w.fleet) opts.seed = w.fleet_opts.seed;
  Instance in;
  Iteration scratch;
  VDB_RETURN_IF_ERROR(set_up(opts, tracer, &in, &scratch));

  constexpr int kDecks = 100;
  tpcc::TpccRandom random(Rng{opts.seed ^ 0xdec4ull}, opts.scale);
  tpcc::TpccTxns txns(in.tdb.get(), &random);
  std::array<tpcc::TxnType, 23> deck{};
  size_t i = 0;
  for (int k = 0; k < 10; ++k) deck[i++] = tpcc::TxnType::kNewOrder;
  for (int k = 0; k < 10; ++k) deck[i++] = tpcc::TxnType::kPayment;
  deck[i++] = tpcc::TxnType::kOrderStatus;
  deck[i++] = tpcc::TxnType::kDelivery;
  deck[i++] = tpcc::TxnType::kStockLevel;

  std::array<std::vector<double>, 5> samples;
  for (int d = 0; d < kDecks; ++d) {
    for (size_t k = deck.size(); k > 1; --k) {
      std::swap(deck[k - 1], deck[static_cast<size_t>(random.rng().uniform(
                                 0, static_cast<std::int64_t>(k) - 1))]);
    }
    for (tpcc::TxnType type : deck) {
      in.sched.run_due();
      const std::uint32_t wh = random.warehouse_id();
      Scope s(tracer, "tpcc", "TpccTxns::run");
      auto outcome = txns.run(type, wh);
      const double us = s.stop() * 1e6;
      if (!outcome.is_ok()) return outcome.status();
      samples[static_cast<size_t>(type)].push_back(us);
    }
  }
  std::array<double, 5> medians{};
  for (size_t t = 0; t < samples.size(); ++t) {
    std::vector<double>& v = samples[t];
    std::sort(v.begin(), v.end());
    medians[t] = v.empty() ? 0 : v[v.size() / 2];
  }
  return medians;
}

}  // namespace perfbench
