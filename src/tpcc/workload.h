// The five TPC-C transactions (standard §2.4–§2.8) against the engine, and
// the weighted-mix driver that issues them: the paper's workload, and the
// testbed's default workload::Workload (workload/tpcc_workload.h builds it).
// Keying and think times are zero, like the paper's BenchmarkSQL runs: the
// system is I/O bound and the metric is throughput.
//
// Simplifications kept from common research practice (all documented in
// DESIGN.md): Delivery runs inline rather than deferred/queued, and the
// driver picks transaction types by weighted random rather than card-deck.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "engine/database.h"
#include "tpcc/tables.h"
#include "workload/workload.h"

namespace face {
namespace tpcc {

/// The five transaction profiles.
enum class TxnType : uint8_t {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
};

/// Printable transaction-type name.
const char* TxnTypeName(TxnType type);

/// TPC-C transaction mix over one database of `warehouses` warehouses;
/// see file comment. The mix is §5.2.3's standard one: 45% NewOrder, 43%
/// Payment, 4% each OrderStatus, Delivery and StockLevel. NewOrder is the
/// primary (tpmC) transaction; the §2.4.1.4 rollbacks count as
/// user_aborts.
class Workload : public workload::Workload {
 public:
  explicit Workload(uint32_t warehouses)
      : warehouses_(warehouses), rnd_(/*seed=*/0) {}  // Setup reseeds rnd_

  const char* name() const override { return "tpcc"; }
  uint32_t num_txn_types() const override { return 5; }
  const char* txn_type_name(uint8_t type) const override {
    return TxnTypeName(static_cast<TxnType>(type));
  }

  /// Open the tables and seed the NURand stream with `seed`.
  Status Setup(Database& db, uint64_t seed) override;
  /// Pick a type per the mix and run it to commit (or §2.4.1.4 rollback).
  /// Returns the type that ran. TPC-C keeps its own NURand generator state,
  /// seeded at Setup, so `rnd` is unused.
  StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) override;
  /// The Payment-shaped uncommitted update the paper's kill -9 protocol
  /// strands (~50 backends mid-flight).
  Status InjectStranded(Database& db, Random& rnd) override;
  /// The consistency conditions of spec §3.3.2.1–4, per warehouse and
  /// district, over heap scans; each scanned table's primary-key index
  /// must count as many rows, and every index must pass
  /// BPlusTree::CheckInvariants. They hold after any prefix of committed
  /// transactions, so the one a crash cut needs no in-doubt rule.
  Status Audit(Database& db, workload::AuditReport* report) override;

  // Individual transactions, each a complete begin..commit unit.
  // `w_id` is the home warehouse (the paper's clients are not partitioned,
  // so the driver picks it uniformly).
  Status NewOrder(uint32_t w_id);
  Status Payment(uint32_t w_id);
  Status OrderStatus(uint32_t w_id);
  Status Delivery(uint32_t w_id);
  Status StockLevel(uint32_t w_id, uint32_t d_id);

  /// The opened tables (null before Setup).
  Tables* tables() { return t_.get(); }

 private:
  /// §2.5.2.2: select a customer 60 % by last name (midpoint rule), 40 % by
  /// NURand id. Returns the customer heap Rid.
  StatusOr<Rid> SelectCustomer(uint32_t w_id, uint32_t d_id);

  /// Read a heap row through a PK index.
  StatusOr<Rid> LookupRid(const BPlusTree& index, const std::string& key);

  uint32_t warehouses_;
  Database* db_ = nullptr;
  std::unique_ptr<Tables> t_;
  TpccRandom rnd_;
  uint64_t date_counter_ = 1000;  ///< monotonically increasing "now"
  std::string rid_buf_;  ///< reused index-lookup value buffer
};

}  // namespace tpcc
}  // namespace face
