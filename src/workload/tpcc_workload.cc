#include "workload/tpcc_workload.h"

#include "tpcc/loader.h"

namespace face {
namespace workload {

Status TpccFactory::Load(Database& db, uint64_t seed) const {
  tpcc::LoadConfig load;
  load.warehouses = warehouses_;
  load.seed = seed;
  tpcc::Loader loader(&db, load);
  return loader.Load().status();
}

}  // namespace workload
}  // namespace face
