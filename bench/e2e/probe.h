// Bench-side Workload/WorkloadFactory decorator: measures every transaction
// from outside the engine by reading public clocks and counters around the
// inner driver's NextTxn. It never advances a clock or touches a device, so
// the testbed simulates exactly as it does without it.
//
// Per transaction it records the virtual latency (scheduler span clock at
// exit minus entry, plus the testbed's fixed CPU charge), whether the
// transaction logged anything (an update transaction, which forces the WAL
// at commit; read-only ones commit without logging), the service time each
// device station spent on this transaction's own requests, the pages each
// device wrote in the foreground, and the host time spent inside the
// driver. Whatever the device counters moved outside NextTxn is background
// work (checkpointer, cache destaging between transactions).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "testbed/testbed.h"
#include "workload/workload.h"

namespace face {
namespace bench {
namespace e2e {

enum Dev { kDb = 0, kFlash = 1, kLog = 2, kNumDevs = 3 };
inline constexpr const char* kDevName[kNumDevs] = {"db", "flash", "log"};

/// What the decorator collected while recording was on.
struct TxnLedger {
  uint64_t txns = 0;
  SimNanos latency_sum_ns = 0;
  /// Latencies of the update transactions, one entry each. Read-only
  /// latencies are only summed: on a resident cache they take a few fixed
  /// values (CPU only, or CPU plus one flash read), so their percentiles
  /// carry no information.
  std::vector<SimNanos> update_latency_ns;
  SimNanos service_ns[kNumDevs] = {};
  uint64_t fg_pages_written[kNumDevs] = {};
  uint64_t host_ns = 0;  ///< host time inside the inner NextTxn
};

/// Shared between the factory, every workload it creates, and the bench.
/// Bind() after the testbed is constructed: the devices live as long as the
/// testbed, across crashes included.
class Probe {
 public:
  void Bind(Testbed* tb) {
    sched_ = tb->sched();
    dev_[kDb] = tb->db_dev();
    dev_[kFlash] = tb->flash_dev();
    dev_[kLog] = tb->log_dev();
    cpu_ns_ = tb->options().cpu_per_txn_ns;
  }

  bool recording = false;
  TxnLedger ledger;

 private:
  friend class ProbeWorkload;

  struct Snap {
    SimNanos clock = 0;
    uint64_t log_records = 0;
    SimNanos busy[kNumDevs] = {};
    uint64_t written[kNumDevs] = {};
  };

  Snap Take(Database& db) const {
    Snap s;
    s.clock = sched_->span_time();
    s.log_records = db.log()->stats().records_appended;
    for (int d = 0; d < kNumDevs; ++d) {
      if (dev_[d] == nullptr) continue;
      s.busy[d] = dev_[d]->stats().busy_ns;
      s.written[d] = dev_[d]->stats().pages_written;
    }
    return s;
  }

  void Record(const Snap& a, const Snap& b, uint64_t host_ns) {
    // The testbed charges the CPU time before calling NextTxn, inside the
    // same scheduler span, so entry is already cpu_ns_ past the txn start.
    const SimNanos latency = b.clock - a.clock + cpu_ns_;
    ++ledger.txns;
    ledger.latency_sum_ns += latency;
    if (b.log_records != a.log_records) {
      ledger.update_latency_ns.push_back(latency);
    }
    for (int d = 0; d < kNumDevs; ++d) {
      ledger.service_ns[d] += b.busy[d] - a.busy[d];
      ledger.fg_pages_written[d] += b.written[d] - a.written[d];
    }
    ledger.host_ns += host_ns;
  }

  const IoScheduler* sched_ = nullptr;
  const SimDevice* dev_[kNumDevs] = {};
  SimNanos cpu_ns_ = 0;
};

/// Forwards everything to the inner driver; times NextTxn.
class ProbeWorkload final : public workload::Workload {
 public:
  ProbeWorkload(std::unique_ptr<workload::Workload> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  const char* name() const override { return inner_->name(); }
  uint32_t num_txn_types() const override { return inner_->num_txn_types(); }
  const char* txn_type_name(uint8_t type) const override {
    return inner_->txn_type_name(type);
  }

  Status Setup(Database& db, uint64_t seed) override {
    const Status s = inner_->Setup(db, seed);
    stats_ = inner_->stats();
    return s;
  }

  StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) override {
    if (!probe_->recording) {
      auto type = inner_->NextTxn(db, rnd);
      stats_ = inner_->stats();
      return type;
    }
    const Probe::Snap before = probe_->Take(db);
    const auto h0 = std::chrono::steady_clock::now();
    auto type = inner_->NextTxn(db, rnd);
    const auto h1 = std::chrono::steady_clock::now();
    stats_ = inner_->stats();
    if (type.ok()) {
      probe_->Record(
          before, probe_->Take(db),
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(h1 - h0)
                  .count()));
    }
    return type;
  }

  Status InjectStranded(Database& db, Random& rnd) override {
    return inner_->InjectStranded(db, rnd);
  }
  Status OnInflightRolledBack(Database& db) override {
    return inner_->OnInflightRolledBack(db);
  }
  void ResetStats() override {
    inner_->ResetStats();
    stats_ = inner_->stats();
  }

 private:
  std::unique_ptr<workload::Workload> inner_;
  Probe* probe_;
};

/// Wraps every driver the inner factory creates in a ProbeWorkload. The
/// probe must outlive every testbed that uses this factory.
class ProbeFactory final : public workload::WorkloadFactory {
 public:
  ProbeFactory(std::shared_ptr<const workload::WorkloadFactory> inner,
               Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  const char* name() const override { return inner_->name(); }
  uint64_t CapacityPages() const override { return inner_->CapacityPages(); }
  Status Load(Database& db, uint64_t seed) const override {
    return inner_->Load(db, seed);
  }
  std::unique_ptr<workload::Workload> Create() const override {
    return std::make_unique<ProbeWorkload>(inner_->Create(), probe_);
  }

 private:
  std::shared_ptr<const workload::WorkloadFactory> inner_;
  Probe* probe_;
};

}  // namespace e2e
}  // namespace bench
}  // namespace face
