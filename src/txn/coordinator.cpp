#include "txn/coordinator.hpp"

#include <algorithm>

#include "obs/observability.hpp"
#include "sim/virtual_clock.hpp"

namespace vdb::txn {

namespace {

/// Shared machinery for both protocols: a blocking wait-die lock table
/// over LockTarget, per-transaction contexts, and the observability
/// wiring. Wait-die priorities are TxnIds (assigned monotonically under
/// the engine latch): smaller id = older transaction. A requester may wait
/// only if it is older than every conflicting holder; otherwise it dies
/// with kDeadlock. Every wait-for edge therefore points old -> young, so
/// the wait graph is acyclic and deadlock is impossible.
///
/// Virtual-time coupling: workers run on frozen-clock private timelines
/// (VirtualClock local sinks), so a real-thread block has no simulated
/// cost by itself. Instead the releaser stamps the lock entry with its
/// own sink offset at release, and a woken waiter raises its sink to that
/// offset — the lock became available at that instant of the round, and
/// the difference is charged to enq_lock_wait.
class CcBase : public ConcurrencyControl {
 public:
  Status validate(TxnId) override { return Status::ok(); }
  void publish(TxnId) override {}

  void end(TxnId txn, bool committed) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = ctx_.find(txn);
    if (it == ctx_.end()) return;
    release_locked(it->second, committed);
    retire_ctx_locked(it);
    waiters_.notify_all();
  }

  void release_thread_residue() override {
    std::lock_guard<std::mutex> lk(mu_);
    const std::thread::id self = std::this_thread::get_id();
    bool released = false;
    for (auto it = ctx_.begin(); it != ctx_.end();) {
      if (it->second.owner != self) {
        ++it;
        continue;
      }
      release_locked(it->second, /*committed=*/false);
      retire_ctx_locked(it++);
      released = true;
    }
    if (released) waiters_.notify_all();
  }

  CcStats stats() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

  size_t locked_count() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return table_.size();
  }

  void set_observability(obs::Observability* obs) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (obs == nullptr) {
      waits_ = nullptr;
      return;
    }
    waits_ = &obs->waits();
    obs::MetricsRegistry& reg = obs->registry();
    wait_die_aborts_ = reg.counter("cc wait_die aborts");
    occ_validate_fails_ = reg.counter("cc occ validate fails");
    lock_waits_ = reg.counter("cc lock waits");
    txns_begun_ = reg.counter("cc txns begun");
    txns_committed_ = reg.counter("cc txns committed");
    txns_aborted_ = reg.counter("cc txns aborted");
  }

 protected:
  /// One locked resource. An entry exists only while it has a holder or a
  /// blocked waiter: the waiter count keeps a released entry, and the
  /// `release_offset` its waiters read, alive until they have woken.
  struct Entry {
    bool exclusive = false;
    std::vector<TxnId> holders;  // distinct: re-acquisition adds nobody
    std::uint32_t waiters = 0;   // blocked in mediate on this resource
    /// Sink offset of the most recent releaser this round; woken waiters
    /// raise their private timeline to it.
    SimDuration release_offset = 0;
  };
  using Table = std::map<LockTarget, Entry>;

  struct Ctx {
    TxnId id{};
    std::thread::id owner;
    SimDuration begin_offset = 0;  // sink offset at first mediation
    std::vector<LockTarget> held;  // distinct, in grant order
    /// OCC read set: target -> version observed at first read.
    std::map<LockTarget, std::uint64_t> read_versions;
  };
  using CtxMap = std::unordered_map<TxnId, Ctx>;

  Ctx& ensure_ctx_locked(TxnId txn) {
    auto it = ctx_.find(txn);
    if (it != ctx_.end()) return it->second;
    if (free_ctxs_.empty()) {
      it = ctx_.try_emplace(txn).first;
    } else {
      // A retired context: its `held` keeps the capacity it grew to.
      CtxMap::node_type node = std::move(free_ctxs_.back());
      free_ctxs_.pop_back();
      node.key() = txn;
      it = ctx_.insert(std::move(node)).position;
    }
    Ctx& ctx = it->second;
    ctx.id = txn;
    ctx.owner = std::this_thread::get_id();
    ctx.begin_offset = sim::VirtualClock::local_elapsed();
    stats_.begun += 1;
    if (txns_begun_ != nullptr) txns_begun_->inc();
    return ctx;
  }

  /// Removes an ended transaction's context, keeping its node for reuse
  /// unless its `held` grew past a transaction's usual size.
  /// release_locked has already emptied `held`.
  void retire_ctx_locked(CtxMap::iterator it) {
    CtxMap::node_type node = ctx_.extract(it);
    if (free_ctxs_.size() >= kMaxFreeCtxs ||
        node.mapped().held.capacity() > kMaxRecycledHeld) {
      return;  // node frees itself
    }
    node.mapped().read_versions.clear();
    free_ctxs_.push_back(std::move(node));
  }

  /// The entry for `target`, created (from a recycled node when one is
  /// free) if the resource is not locked yet.
  Entry& entry_locked(const LockTarget& target) {
    auto it = table_.lower_bound(target);
    if (it != table_.end() && it->first == target) return it->second;
    if (free_entries_.empty()) {
      return table_.emplace_hint(it, target, Entry{})->second;
    }
    Table::node_type node = std::move(free_entries_.back());
    free_entries_.pop_back();
    node.key() = target;
    return table_.insert(it, std::move(node))->second;
  }

  static bool is_holder(const Entry& e, TxnId txn) {
    return std::find(e.holders.begin(), e.holders.end(), txn) !=
           e.holders.end();
  }

  bool holds_locked(TxnId txn, const LockTarget& t) const {
    auto it = table_.find(t);
    return it != table_.end() && is_holder(it->second, txn);
  }

  /// True if a request may be granted now: a free resource, re-acquisition
  /// by a holder (shared->exclusive only as the sole holder), or shared
  /// alongside other shared holders.
  static bool can_grant(const Entry& e, bool holder, bool exclusive) {
    if (e.holders.empty()) return true;
    if (holder) return !exclusive || e.exclusive || e.holders.size() == 1;
    return !e.exclusive && !exclusive;
  }

  /// Wait-die: may wait only if strictly older than every conflicting
  /// holder (self never conflicts with itself).
  static bool older_than_all(const Entry& e, TxnId txn) {
    for (TxnId h : e.holders) {
      if (h != txn && h <= txn) return false;
    }
    return true;
  }

  /// Blocks on `e` until woken; `mu_` must be held through `lk`. The
  /// waiter count pins the entry (and its reference) across the wait.
  void wait_on_locked(std::unique_lock<std::mutex>& lk, Entry& e) {
    e.waiters += 1;
    waiters_.wait(lk);
    e.waiters -= 1;
  }

  /// A blocked request went through: inherit the releaser's instant and
  /// charge the difference to enq_lock_wait.
  void charge_wait_locked(const Entry& e, SimDuration entered_at) {
    sim::VirtualClock::raise_local(e.release_offset);
    const SimDuration waited = sim::VirtualClock::local_elapsed() - entered_at;
    stats_.lock_waits += 1;
    if (lock_waits_ != nullptr) lock_waits_->inc();
    if (waits_ != nullptr && waited > 0) {
      waits_->add_wait(obs::WaitEvent::kEnqLockWait, waited);
    }
  }

  Status die_locked(const char* why) {
    stats_.wait_die_aborts += 1;
    if (wait_die_aborts_ != nullptr) wait_die_aborts_->inc();
    return make_error(ErrorCode::kDeadlock, why);
  }

  /// Grants or wait-die-aborts one lock request. Returns kDeadlock when
  /// the requester must die. `mu_` must be held; may release it while
  /// blocked.
  Status acquire_locked(std::unique_lock<std::mutex>& lk, Ctx& ctx,
                        const LockTarget& target, bool exclusive,
                        bool may_wait) {
    const TxnId txn = ctx.id;
    const SimDuration entered_at = sim::VirtualClock::local_elapsed();
    bool blocked = false;
    Entry& e = entry_locked(target);  // std::map: stable across waits
    for (;;) {
      const bool holder = is_holder(e, txn);
      if (can_grant(e, holder, exclusive)) {
        if (!holder) {
          e.holders.push_back(txn);
          ctx.held.push_back(target);
        }
        e.exclusive = e.exclusive || exclusive;
        if (blocked) charge_wait_locked(e, entered_at);
        return Status::ok();
      }
      if (!may_wait || !older_than_all(e, txn)) {
        return die_locked(
            "wait-die: conflicting lock held by an older or non-waitable "
            "request");
      }
      blocked = true;
      wait_on_locked(lk, e);
    }
  }

  /// Drops `it` once nobody holds or waits on it, keeping the node (and
  /// its holders capacity) for reuse with its state reset.
  void erase_if_idle_locked(Table::iterator it) {
    if (!it->second.holders.empty() || it->second.waiters != 0) return;
    Table::node_type node = table_.extract(it);
    if (free_entries_.size() >= kMaxFreeEntries) return;  // node frees itself
    Entry& e = node.mapped();
    e.exclusive = false;
    e.release_offset = 0;
    free_entries_.push_back(std::move(node));
  }

  /// Releases everything `ctx` holds; `mu_` must be held. The releaser's
  /// sink offset is stamped on each entry for its waiters.
  void release_locked(Ctx& ctx, bool committed) {
    const SimDuration at = sim::VirtualClock::local_elapsed();
    for (const LockTarget& t : ctx.held) {
      auto it = table_.find(t);
      if (it == table_.end()) continue;
      Entry& e = it->second;
      e.holders.erase(std::remove(e.holders.begin(), e.holders.end(), ctx.id),
                      e.holders.end());
      e.release_offset = at;
      if (e.holders.empty()) e.exclusive = false;
      erase_if_idle_locked(it);
    }
    ctx.held.clear();
    if (committed) {
      stats_.committed += 1;
      if (txns_committed_ != nullptr) txns_committed_->inc();
    } else {
      stats_.aborts += 1;
      if (txns_aborted_ != nullptr) txns_aborted_->inc();
    }
  }

  void charge_occ_fail_locked(const Ctx& ctx) {
    stats_.occ_validate_fails += 1;
    if (occ_validate_fails_ != nullptr) occ_validate_fails_->inc();
    if (waits_ != nullptr) {
      const SimDuration wasted =
          sim::VirtualClock::local_elapsed() - ctx.begin_offset;
      if (wasted > 0) {
        waits_->add_wait(obs::WaitEvent::kOccValidateFail, wasted);
      }
    }
  }

  /// Caps on the recycled nodes: enough for a serial TPC-C transaction's
  /// row locks (about 60) times a few workers, and for one context per
  /// worker, without holding on to a burst's worth of memory.
  static constexpr size_t kMaxFreeEntries = 256;
  static constexpr size_t kMaxFreeCtxs = 16;
  /// A bulk-load batch locks about 2,000 rows. Keeping its `held` buffer
  /// alive for reuse pinned it in the heap and raised the fleet workload's
  /// peak RSS by about 13 MB, so such contexts are freed instead.
  static constexpr size_t kMaxRecycledHeld = 256;

  mutable std::mutex mu_;
  std::condition_variable waiters_;
  Table table_;
  CtxMap ctx_;
  /// Idle lock-table entries and retired contexts, reused instead of
  /// allocating a map node, a holders vector and a held vector per grant
  /// and per transaction.
  std::vector<Table::node_type> free_entries_;
  std::vector<CtxMap::node_type> free_ctxs_;
  CcStats stats_;

  obs::WaitEventTable* waits_ = nullptr;
  obs::Counter* wait_die_aborts_ = nullptr;
  obs::Counter* occ_validate_fails_ = nullptr;
  obs::Counter* lock_waits_ = nullptr;
  obs::Counter* txns_begun_ = nullptr;
  obs::Counter* txns_committed_ = nullptr;
  obs::Counter* txns_aborted_ = nullptr;
};

/// Strict 2PL: reads take shared locks, writes exclusive, all held to
/// transaction end; conflicts resolved wait-die.
class TwoPhaseLockingCc final : public CcBase {
 public:
  CcProtocol protocol() const override { return CcProtocol::k2pl; }

  Status mediate(TxnId txn, const LockTarget& target, AccessMode mode,
                 bool may_wait) override {
    std::unique_lock<std::mutex> lk(mu_);
    return acquire_locked(lk, ensure_ctx_locked(txn), target,
                          /*exclusive=*/mode == AccessMode::kWrite, may_wait);
  }
};

/// OCC (TicToc-flavoured): reads are lock-free but version-stamped and
/// re-validated at commit; writes take wait-die exclusive locks (updates
/// are in-place with logical undo, so uncommitted data must never be
/// overwritten or read). A read of a write-locked row waits for the
/// writer; a write to a row the transaction already read with a stale
/// version dies immediately (early validation) rather than doing work a
/// commit-time check is guaranteed to discard.
///
/// The version is a write-INTENT stamp, bumped when a write lock is first
/// granted — not at commit. The stamp is recorded here in mediate but the
/// row bytes are read later, under the engine latch, so a writer can
/// lock + update in place inside that window; if the stamp only moved at
/// commit, a reader that saw the dirty bytes of a writer that then
/// ABORTED would pass validation and commit data derived from rolled-back
/// state. Bumping at acquisition makes any reader whose stamp predates a
/// writer's lock tenure fail validation, committed or not — conservative
/// (a spurious abort when the read in fact happened before the writer's
/// bytes landed), but the retry loop absorbs that.
class OccCc final : public CcBase {
 public:
  CcProtocol protocol() const override { return CcProtocol::kOcc; }

  Status mediate(TxnId txn, const LockTarget& target, AccessMode mode,
                 bool may_wait) override {
    std::unique_lock<std::mutex> lk(mu_);
    Ctx& ctx = ensure_ctx_locked(txn);
    if (mode == AccessMode::kRead) {
      // Wait out (or die to) a concurrent writer: with in-place updates
      // the row's bytes are dirty until the writer resolves. Only writes
      // lock, so a lookup (never an insert) finds any writer.
      auto it = table_.find(target);
      if (it != table_.end()) {
        Entry& e = it->second;
        if (is_holder(e, txn)) return Status::ok();  // own write
        const SimDuration entered_at = sim::VirtualClock::local_elapsed();
        bool blocked = false;
        while (!e.holders.empty()) {
          if (!may_wait || !older_than_all(e, txn)) {
            return die_locked("wait-die: row write-locked by an older writer");
          }
          blocked = true;
          wait_on_locked(lk, e);
        }
        if (blocked) charge_wait_locked(e, entered_at);
        erase_if_idle_locked(it);
      }
      ctx.read_versions.try_emplace(target, version_of(target));
      return Status::ok();
    }
    // Write: exclusive wait-die lock, held to end. Whether the txn held
    // it before matters below; the bool survives the wait (only the txn
    // itself could change its own holdings, and it is blocked here).
    const bool already_held = holds_locked(txn, target);
    VDB_RETURN_IF_ERROR(
        acquire_locked(lk, ctx, target, /*exclusive=*/true, may_wait));
    // Early validation: writing a row this transaction read at a version
    // that has since moved is a guaranteed commit-time failure — die now,
    // before generating redo/undo for doomed work. Checked before the
    // txn's own intent bump so it never trips on itself.
    auto seen = ctx.read_versions.find(target);
    if (seen != ctx.read_versions.end() &&
        seen->second != version_of(target)) {
      charge_occ_fail_locked(ctx);
      return make_error(ErrorCode::kTxnAborted,
                        "occ: read version moved before write");
    }
    if (!already_held) versions_[target] += 1;
    return Status::ok();
  }

  Status validate(TxnId txn) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = ctx_.find(txn);
    if (it == ctx_.end()) return Status::ok();  // read-nothing transaction
    Ctx& ctx = it->second;
    for (const auto& [target, version] : ctx.read_versions) {
      // Targets this transaction write-locked are stable (only the lock
      // holder can publish); unlocked read-set entries must still be at
      // the observed version.
      if (holds_locked(txn, target)) continue;
      if (version_of(target) != version) {
        charge_occ_fail_locked(ctx);
        return make_error(ErrorCode::kTxnAborted,
                          "occ: validation failed (stale read set)");
      }
    }
    return Status::ok();
  }

  // publish() is the CcBase no-op: the write-intent stamp already moved
  // at lock acquisition, which is what readers validate against.

 private:
  std::uint64_t version_of(const LockTarget& t) const {
    auto it = versions_.find(t);
    return it == versions_.end() ? 0 : it->second;
  }

  std::map<LockTarget, std::uint64_t> versions_;
};

}  // namespace

std::unique_ptr<ConcurrencyControl> make_concurrency_control(CcProtocol p) {
  if (p == CcProtocol::kOcc) return std::make_unique<OccCc>();
  return std::make_unique<TwoPhaseLockingCc>();
}

TxnCoordinator::TxnCoordinator(Config cfg)
    : cc_(make_concurrency_control(cfg.protocol)) {
  if (cfg.obs != nullptr) cc_->set_observability(cfg.obs);
  const unsigned n = std::max(1u, cfg.workers);
  threads_.reserve(n);
  for (unsigned k = 0; k < n; ++k) {
    threads_.emplace_back([this, k] { worker_main(k); });
  }
}

TxnCoordinator::~TxnCoordinator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  round_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TxnCoordinator::run_round(const std::function<void(unsigned)>& fn) {
  std::unique_lock<std::mutex> lk(mu_);
  task_ = &fn;
  round_seq_ += 1;
  running_ = workers();
  round_start_.notify_all();
  round_done_.wait(lk, [&] { return running_ == 0; });
  task_ = nullptr;
}

void TxnCoordinator::worker_main(unsigned index) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      round_start_.wait(lk, [&] { return stop_ || round_seq_ != seen; });
      if (stop_) return;
      seen = round_seq_;
      task = task_;
    }
    (*task)(index);
    {
      std::lock_guard<std::mutex> lk(mu_);
      running_ -= 1;
      if (running_ == 0) round_done_.notify_one();
    }
  }
}

}  // namespace vdb::txn
