#include "fleet/fleet_txns.hpp"

#include <cstdio>
#include <string>
#include <utility>

namespace vdb::fleet {

namespace {
/// 2PC message size on the inter-shard link (request + ack per round).
constexpr std::uint64_t kMessageBytes = 512;
}  // namespace

FleetTxns::FleetTxns(Fleet* fleet, tpcc::TpccRandom* random)
    : fleet_(fleet), random_(random) {
  for (std::uint32_t i = 0; i < fleet_->size(); ++i) {
    // Shard-local profiles share the fleet's one random stream, so the
    // input sequence is identical no matter how warehouses are spread.
    local_.push_back(
        std::make_unique<tpcc::TpccTxns>(&fleet_->tdb(i), random_));
  }
}

void FleetTxns::arm_crash(CrashPoint point,
                          std::function<void(std::uint32_t)> fire) {
  armed_ = point;
  fire_ = std::move(fire);
}

bool FleetTxns::fire_crash(CrashPoint point, std::uint32_t victim) {
  if (armed_ != point) return false;
  armed_ = CrashPoint::kNone;
  auto fire = std::move(fire_);
  fire_ = nullptr;
  if (fire) fire(victim);
  return true;
}

void FleetTxns::charge_round_trip() {
  sim::VirtualClock& clock = fleet_->clock();
  const SimTime done =
      fleet_->interconnect().transfer(clock.now(), 2 * kMessageBytes);
  if (done > clock.now()) clock.advance_to(done);
}

Result<FleetOutcome> FleetTxns::run(tpcc::TxnType type, std::uint32_t w) {
  switch (type) {
    case tpcc::TxnType::kNewOrder: return new_order(w);
    case tpcc::TxnType::kPayment: return payment(w);
    default: return delegate(type, w);
  }
}

Result<FleetOutcome> FleetTxns::delegate(tpcc::TxnType type,
                                         std::uint32_t w) {
  const std::uint32_t shard = fleet_->shard_of(w);
  auto outcome = local_[shard]->run(type, w);
  if (!outcome.is_ok()) return outcome.status();
  FleetOutcome out;
  out.type = outcome.value().type;
  out.committed = outcome.value().committed;
  out.intentional_rollback = outcome.value().intentional_rollback;
  out.commit_lsn = outcome.value().commit_lsn;
  if (out.committed) out.branches.emplace_back(shard, out.commit_lsn);
  return out;
}

Result<TxnId> FleetTxns::branch_txn(std::map<std::uint32_t, TxnId>* branches,
                                    std::uint32_t shard) {
  auto it = branches->find(shard);
  if (it != branches->end()) return it->second;
  charge_round_trip();  // branch-open message to the foreign shard
  auto txn = fleet_->active_db(shard).begin();
  if (!txn.is_ok()) return txn.status();
  branches->emplace(shard, txn.value());
  return txn.value();
}

void FleetTxns::rollback_all(const std::map<std::uint32_t, TxnId>& branches) {
  for (const auto& [shard, txn] : branches) {
    (void)fleet_->active_db(shard).rollback(txn);
  }
}

void FleetTxns::abort_branches(
    GlobalTxn* g, const std::map<std::uint32_t, TxnId>& branches) {
  for (auto& [shard, txn] : branches) {
    BranchRecord* b = g->branch(shard);
    engine::Database& db = fleet_->active_db(shard);
    if (b->prepare_lsn != 0) {
      // Prepared branches roll back only on the coordinator's order —
      // which this is. A dead shard's branch stays in doubt; recovery
      // presumes abort when no decision record ever surfaces.
      if (db.is_open()) {
        if (db.resolve_prepared(g->gtxn, /*commit=*/false).is_ok()) {
          b->outcome = 'A';
        }
      }
      continue;
    }
    // Never prepared: a live shard rolls back now; a dead one has a plain
    // loser transaction that instance recovery will roll back.
    if (db.is_open()) (void)db.rollback(txn);
    b->outcome = 'A';
  }
  g->finished = g->settled();
}

Status FleetTxns::two_phase_commit(std::uint32_t home,
                                   std::map<std::uint32_t, TxnId>* branches,
                                   FleetOutcome* out) {
  std::vector<std::uint32_t> parts;
  for (const auto& [shard, txn] : *branches) parts.push_back(shard);
  GlobalTxn& g = fleet_->registry().open(home, parts);
  cross_shard_started_ += 1;
  remote_branches_ += parts.size() - 1;
  out->cross_shard = true;
  engine::Database& hdb = fleet_->active_db(home);

  if (fire_crash(CrashPoint::kBeforePrepare, home)) {
    // Nothing is prepared anywhere: every branch is a plain loser.
    abort_branches(&g, *branches);
    return Status{ErrorCode::kNotOpen, "coordinator lost before prepare"};
  }

  // Phase 1: participants prepare first, the coordinator's own branch
  // last (its prepare doubles as the point of no return for phase 2).
  bool first_participant = true;
  for (const auto& [shard, txn] : *branches) {
    if (shard == home) continue;
    if (first_participant) {
      first_participant = false;
      fire_crash(CrashPoint::kMidPrepare, shard);
    }
    charge_round_trip();
    auto p = fleet_->active_db(shard).prepare(txn, g.gtxn, home);
    if (!p.is_ok()) {
      // Unreachable participant: the coordinator decides abort. Presumed
      // abort needs no decision record — branches that never prepare roll
      // back on their own at recovery.
      abort_branches(&g, *branches);
      return p.status();
    }
    g.branch(shard)->prepare_lsn = p.value();
  }
  auto hp = hdb.prepare(branches->at(home), g.gtxn, home);
  if (!hp.is_ok()) {
    abort_branches(&g, *branches);
    return hp.status();
  }
  g.branch(home)->prepare_lsn = hp.value();

  if (fire_crash(CrashPoint::kAfterPrepares, home)) {
    // Undecided coordinator crash: every branch is in doubt until the
    // orchestrator resolves it — presumed abort, since no decision record
    // can ever surface from the coordinator's redo.
    return Status{ErrorCode::kNotOpen, "coordinator lost before decision"};
  }

  auto decision = hdb.log_coord_decision(g.gtxn, true);
  if (!decision.is_ok()) return decision.status();
  g.decided = true;
  g.decision = true;

  if (fire_crash(CrashPoint::kAfterDecision, home)) {
    // The COMMIT decision is durable in the coordinator's redo: recovery
    // must drive every prepared branch to commit.
    return Status{ErrorCode::kNotOpen, "coordinator lost after decision"};
  }

  // Phase 2: commit everywhere, coordinator first.
  auto hc = hdb.commit(branches->at(home));
  if (!hc.is_ok()) return hc.status();
  g.branch(home)->end_lsn = hc.value();
  g.branch(home)->outcome = 'C';
  out->commit_lsn = hc.value();
  out->branches.emplace_back(home, hc.value());
  for (const auto& [shard, txn] : *branches) {
    if (shard == home) continue;
    charge_round_trip();
    auto c = fleet_->active_db(shard).commit(txn);
    if (!c.is_ok()) continue;  // died post-decision: resolves at recovery
    g.branch(shard)->end_lsn = c.value();
    g.branch(shard)->outcome = 'C';
    out->branches.emplace_back(shard, c.value());
  }
  g.finished = g.settled();
  if (g.finished) hdb.forget_decision(g.gtxn);
  out->committed = true;
  return Status::ok();
}

Result<FleetOutcome> FleetTxns::new_order(std::uint32_t w) {
  const std::uint32_t home = fleet_->shard_of(w);
  engine::Database& hdb = fleet_->active_db(home);
  tpcc::TpccDb& htdb = fleet_->tdb(home);
  Rng& rng = random_->rng();
  const std::uint32_t d = random_->district_id();
  const SimTime now = fleet_->clock().now();

  std::map<std::uint32_t, TxnId> branches;
  auto txn_r = hdb.begin();
  if (!txn_r.is_ok()) return txn_r.status();
  const TxnId txn = txn_r.value();
  branches.emplace(home, txn);

  // Inputs (clause 2.4.1) — the same draws, in the same order, as the
  // single-instance profile.
  const auto ol_cnt = static_cast<std::uint8_t>(rng.uniform(5, 15));
  const bool rollback_last = rng.chance(0.01);
  struct Line {
    std::uint32_t i_id;
    std::uint32_t supply_w;
    std::uint8_t qty;
  };
  std::vector<Line> lines;
  bool all_local = true;
  for (std::uint8_t i = 0; i < ol_cnt; ++i) {
    Line line;
    line.i_id = random_->nurand_item_id();
    if (rollback_last && i + 1 == ol_cnt) line.i_id = 0;  // unused item id
    line.supply_w = w;
    if (random_->scale().warehouses > 1 && rng.chance(0.01)) {
      do {
        line.supply_w = random_->warehouse_id();
      } while (line.supply_w == w);
      all_local = false;
    }
    line.qty = static_cast<std::uint8_t>(rng.uniform(1, 10));
    lines.push_back(line);
  }

  auto fail = [&](Status original) -> Status {
    rollback_all(branches);
    return original;
  };

  auto w_rid = htdb.warehouse_rid(w);
  auto d_rid = htdb.district_rid(w, d);
  if (!w_rid || !d_rid) {
    return fail(Status{ErrorCode::kInternal, "missing w/d"});
  }
  auto wh = htdb.read_row<tpcc::WarehouseRow>(txn, tpcc::Tbl::kWarehouse,
                                              *w_rid);
  if (!wh.is_ok()) return fail(wh.status());
  auto dist =
      htdb.read_row<tpcc::DistrictRow>(txn, tpcc::Tbl::kDistrict, *d_rid);
  if (!dist.is_ok()) return fail(dist.status());

  const std::uint32_t o_id = dist.value().d_next_o_id;
  tpcc::DistrictRow new_dist = dist.value();
  new_dist.d_next_o_id += 1;
  Status st = htdb.update_row(txn, tpcc::Tbl::kDistrict, *d_rid, new_dist);
  if (!st.is_ok()) return fail(st);

  auto c_rid = local_[home]->select_customer(w, d);
  if (!c_rid.is_ok()) return fail(c_rid.status());
  auto cust = htdb.read_row<tpcc::CustomerRow>(txn, tpcc::Tbl::kCustomer,
                                               c_rid.value());
  if (!cust.is_ok()) return fail(cust.status());

  tpcc::OrderRow order;
  order.o_id = o_id;
  order.o_d_id = d;
  order.o_w_id = w;
  order.o_c_id = cust.value().c_id;
  order.o_entry_d = now;
  order.o_carrier_id = -1;
  order.o_ol_cnt = ol_cnt;
  order.o_all_local = all_local ? 1 : 0;
  auto o_ins = htdb.insert_row(txn, tpcc::Tbl::kOrder, order);
  if (!o_ins.is_ok()) return fail(o_ins.status());

  tpcc::NewOrderRow no;
  no.no_o_id = o_id;
  no.no_d_id = d;
  no.no_w_id = w;
  auto no_ins = htdb.insert_row(txn, tpcc::Tbl::kNewOrder, no);
  if (!no_ins.is_ok()) return fail(no_ins.status());

  std::uint8_t number = 0;
  for (const Line& line : lines) {
    number += 1;
    auto i_rid = htdb.item_rid(line.i_id);
    if (!i_rid.has_value()) {
      // Invalid item: business rollback (clause 2.4.2.3) — every branch.
      rollback_all(branches);
      FleetOutcome outcome;
      outcome.type = tpcc::TxnType::kNewOrder;
      outcome.intentional_rollback = true;
      return outcome;
    }
    auto item = htdb.read_row<tpcc::ItemRow>(txn, tpcc::Tbl::kItem, *i_rid);
    if (!item.is_ok()) return fail(item.status());

    // Stock lives with the supplying warehouse — possibly a foreign shard.
    const std::uint32_t sshard = fleet_->shard_of(line.supply_w);
    tpcc::TpccDb& stdb = fleet_->tdb(sshard);
    auto s_txn = branch_txn(&branches, sshard);
    if (!s_txn.is_ok()) return fail(s_txn.status());

    auto s_rid = stdb.stock_rid(line.supply_w, line.i_id);
    if (!s_rid.has_value()) {
      return fail(Status{ErrorCode::kInternal, "stock missing"});
    }
    auto stock = stdb.read_row<tpcc::StockRow>(s_txn.value(),
                                               tpcc::Tbl::kStock, *s_rid);
    if (!stock.is_ok()) return fail(stock.status());

    tpcc::StockRow new_stock = stock.value();
    if (new_stock.s_quantity >= line.qty + 10) {
      new_stock.s_quantity -= line.qty;
    } else {
      new_stock.s_quantity = new_stock.s_quantity - line.qty + 91;
    }
    new_stock.s_ytd += line.qty;
    new_stock.s_order_cnt += 1;
    if (line.supply_w != w) new_stock.s_remote_cnt += 1;
    st = stdb.update_row(s_txn.value(), tpcc::Tbl::kStock, *s_rid, new_stock);
    if (!st.is_ok()) return fail(st);

    tpcc::OrderLineRow ol;
    ol.ol_o_id = o_id;
    ol.ol_d_id = d;
    ol.ol_w_id = w;
    ol.ol_number = number;
    ol.ol_i_id = line.i_id;
    ol.ol_supply_w_id = line.supply_w;
    ol.ol_delivery_d = 0;
    ol.ol_quantity = line.qty;
    ol.ol_amount = line.qty * item.value().i_price;
    ol.ol_dist_info = stock.value().s_dist[(d - 1) % 10];
    auto ol_ins = htdb.insert_row(txn, tpcc::Tbl::kOrderLine, ol);
    if (!ol_ins.is_ok()) return fail(ol_ins.status());
  }

  FleetOutcome outcome;
  outcome.type = tpcc::TxnType::kNewOrder;
  if (branches.size() == 1) {
    auto commit = hdb.commit(txn);
    if (!commit.is_ok()) return fail(commit.status());
    outcome.committed = true;
    outcome.commit_lsn = commit.value();
    outcome.branches.emplace_back(home, commit.value());
    return outcome;
  }
  VDB_RETURN_IF_ERROR(two_phase_commit(home, &branches, &outcome));
  return outcome;
}

Result<FleetOutcome> FleetTxns::payment(std::uint32_t w) {
  const std::uint32_t home = fleet_->shard_of(w);
  engine::Database& hdb = fleet_->active_db(home);
  tpcc::TpccDb& htdb = fleet_->tdb(home);
  Rng& rng = random_->rng();
  const std::uint32_t d = random_->district_id();
  const double amount = static_cast<double>(rng.uniform(100, 500000)) / 100.0;
  const SimTime now = fleet_->clock().now();

  // 15% remote customers when multiple warehouses exist (clause 2.5.1.2);
  // the customer's warehouse decides the shard their branch runs on.
  std::uint32_t c_w = w;
  std::uint32_t c_d = d;
  if (random_->scale().warehouses > 1 && rng.chance(0.15)) {
    do {
      c_w = random_->warehouse_id();
    } while (c_w == w);
    c_d = random_->district_id();
  }
  const std::uint32_t cshard = fleet_->shard_of(c_w);

  std::map<std::uint32_t, TxnId> branches;
  auto txn_r = hdb.begin();
  if (!txn_r.is_ok()) return txn_r.status();
  const TxnId txn = txn_r.value();
  branches.emplace(home, txn);

  auto fail = [&](Status original) -> Status {
    rollback_all(branches);
    return original;
  };

  auto w_rid = htdb.warehouse_rid(w);
  auto d_rid = htdb.district_rid(w, d);
  if (!w_rid || !d_rid) {
    return fail(Status{ErrorCode::kInternal, "missing w/d"});
  }
  auto wh = htdb.read_row<tpcc::WarehouseRow>(txn, tpcc::Tbl::kWarehouse,
                                              *w_rid);
  if (!wh.is_ok()) return fail(wh.status());
  tpcc::WarehouseRow new_wh = wh.value();
  new_wh.w_ytd += amount;
  Status st = htdb.update_row(txn, tpcc::Tbl::kWarehouse, *w_rid, new_wh);
  if (!st.is_ok()) return fail(st);

  auto dist =
      htdb.read_row<tpcc::DistrictRow>(txn, tpcc::Tbl::kDistrict, *d_rid);
  if (!dist.is_ok()) return fail(dist.status());
  tpcc::DistrictRow new_dist = dist.value();
  new_dist.d_ytd += amount;
  st = htdb.update_row(txn, tpcc::Tbl::kDistrict, *d_rid, new_dist);
  if (!st.is_ok()) return fail(st);

  // Customer (and their payment history row) live on the customer's shard.
  tpcc::TpccDb& ctdb = fleet_->tdb(cshard);
  auto c_txn = branch_txn(&branches, cshard);
  if (!c_txn.is_ok()) return fail(c_txn.status());

  auto c_rid = local_[cshard]->select_customer(c_w, c_d);
  if (!c_rid.is_ok()) return fail(c_rid.status());
  auto cust = ctdb.read_row<tpcc::CustomerRow>(c_txn.value(),
                                               tpcc::Tbl::kCustomer,
                                               c_rid.value());
  if (!cust.is_ok()) return fail(cust.status());
  tpcc::CustomerRow new_cust = cust.value();
  new_cust.c_balance -= amount;
  new_cust.c_ytd_payment += amount;
  new_cust.c_payment_cnt += 1;
  if (new_cust.c_credit == "BC") {
    char info[64];
    std::snprintf(info, sizeof(info), "%u %u %u %u %u %.2f|",
                  new_cust.c_id, c_d, c_w, d, w, amount);
    new_cust.c_data = std::string(info) + new_cust.c_data;
    if (new_cust.c_data.size() > 500) new_cust.c_data.resize(500);
  }
  st = ctdb.update_row(c_txn.value(), tpcc::Tbl::kCustomer, c_rid.value(),
                       new_cust);
  if (!st.is_ok()) return fail(st);

  tpcc::HistoryRow hist;
  hist.h_c_id = new_cust.c_id;
  hist.h_c_d_id = c_d;
  hist.h_c_w_id = c_w;
  hist.h_d_id = d;
  hist.h_w_id = w;
  hist.h_date = now;
  hist.h_amount = amount;
  hist.h_data = wh.value().w_name + "    " + dist.value().d_name;
  auto h_ins = ctdb.insert_row(c_txn.value(), tpcc::Tbl::kHistory, hist);
  if (!h_ins.is_ok()) return fail(h_ins.status());

  FleetOutcome outcome;
  outcome.type = tpcc::TxnType::kPayment;
  if (branches.size() == 1) {
    auto commit = hdb.commit(txn);
    if (!commit.is_ok()) return fail(commit.status());
    outcome.committed = true;
    outcome.commit_lsn = commit.value();
    outcome.branches.emplace_back(home, commit.value());
    return outcome;
  }
  VDB_RETURN_IF_ERROR(two_phase_commit(home, &branches, &outcome));
  return outcome;
}

}  // namespace vdb::fleet
