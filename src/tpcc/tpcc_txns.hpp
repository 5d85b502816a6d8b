// The five TPC-C transaction profiles (clauses 2.4-2.8) implemented against
// the engine through the TpccDb access paths.
//
// Each profile returns the commit LSN on success (0 for read-only work).
// The 1% intentionally-invalid New-Order item triggers a real transaction
// rollback, exercising the undo path continuously during every benchmark
// run. Service failures (media errors, instance down) surface as error
// statuses the driver uses to detect fault activation.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "tpcc/tpcc_db.hpp"
#include "tpcc/tpcc_random.hpp"

namespace vdb::tpcc {

enum class TxnType : std::uint8_t {
  kNewOrder = 0,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};
constexpr size_t kTxnTypes = 5;
const char* to_string(TxnType t);

struct TxnOutcome {
  TxnType type;
  bool committed = false;
  /// Rolled back by business rule (invalid item) — counts as a completed
  /// interaction per the spec, not as a failure.
  bool intentional_rollback = false;
  Lsn commit_lsn = 0;
};

class TpccTxns {
 public:
  TpccTxns(TpccDb* db, TpccRandom* random) : db_(db), random_(random) {}

  /// Runs one transaction of the given type (inputs drawn per spec).
  Result<TxnOutcome> run(TxnType type, std::uint32_t home_warehouse);

  Result<TxnOutcome> new_order(std::uint32_t w);
  Result<TxnOutcome> payment(std::uint32_t w);
  Result<TxnOutcome> order_status(std::uint32_t w);
  Result<TxnOutcome> delivery(std::uint32_t w);
  Result<TxnOutcome> stock_level(std::uint32_t w);

  /// 60%: by last name (median match); 40%: by NURand id.
  Result<RowId> select_customer(std::uint32_t w, std::uint32_t d);

 private:
  TpccDb* db_;
  TpccRandom* random_;
};

}  // namespace vdb::tpcc
