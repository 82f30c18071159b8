// TPC-C as a plug-in workload: TpccFactory loads golden images with
// tpcc::Loader and builds tpcc::Workload drivers (tpcc/workload.h), so the
// paper's workload is just the default the testbed runs.
#pragma once

#include <memory>

#include "tpcc/workload.h"
#include "workload/workload.h"

namespace face {
namespace workload {

/// Builds TPC-C golden images (tpcc::Loader) and tpcc::Workload drivers.
class TpccFactory : public WorkloadFactory {
 public:
  explicit TpccFactory(uint32_t warehouses) : warehouses_(warehouses) {}

  const char* name() const override { return "tpcc"; }
  uint64_t CapacityPages() const override {
    return CapacityPagesFor(warehouses_);
  }
  Status Load(Database& db, uint64_t seed) const override;
  std::unique_ptr<Workload> Create() const override {
    return std::make_unique<tpcc::Workload>(warehouses_);
  }

  /// Partition by warehouse: shard `shard` owns its slice of the warehouse
  /// range (TPC-C's natural sharding key). Null once shards outnumber
  /// warehouses.
  std::shared_ptr<const WorkloadFactory> Partition(
      uint32_t shard, uint32_t num_shards) const override {
    const uint64_t w = ShardSlice(warehouses_, shard, num_shards);
    if (w == 0) return nullptr;
    return std::make_shared<TpccFactory>(static_cast<uint32_t>(w));
  }

  /// Device pages a `warehouses`-scale image provisions (the historical
  /// GoldenImage sizing rule).
  static uint64_t CapacityPagesFor(uint32_t warehouses) {
    return 40000ull * warehouses + 20000ull;
  }

  uint32_t warehouses() const { return warehouses_; }

 private:
  uint32_t warehouses_;
};

}  // namespace workload
}  // namespace face
