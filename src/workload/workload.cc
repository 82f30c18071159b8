#include "workload/workload.h"

#include <sstream>

namespace face {
namespace workload {

namespace {
constexpr size_t kMaxDetails = 12;
}  // namespace

void AuditReport::AddDivergence(const std::string& what) {
  ++divergences;
  if (details.size() < kMaxDetails) details.push_back(what);
}

void AuditReport::AddViolation(const std::string& what) {
  ++invariant_violations;
  if (details.size() < kMaxDetails) details.push_back(what);
}

void AuditReport::Merge(const AuditReport& other) {
  rows_checked += other.rows_checked;
  divergences += other.divergences;
  invariant_violations += other.invariant_violations;
  frames_audited += other.frames_audited;
  // The first audit after a restart resolves the in-flight write; later
  // merged audits have none.
  if (pending_outcome == PendingOutcome::kNone) {
    pending_outcome = other.pending_outcome;
  }
  for (const std::string& d : other.details) {
    if (details.size() >= kMaxDetails) break;
    details.push_back(d);
  }
}

std::string AuditReport::ToString() const {
  std::ostringstream os;
  os << "audit: rows=" << rows_checked << " divergences=" << divergences
     << " invariant_violations=" << invariant_violations
     << " frames_audited=" << frames_audited;
  for (const std::string& d : details) os << "\n  - " << d;
  return os.str();
}

Status Workload::InjectStranded(Database& db, Random& rnd) {
  (void)db;
  (void)rnd;
  return Status::InvalidArgument(
      "workload does not support stranded-transaction injection");
}

std::shared_ptr<const WorkloadFactory> WorkloadFactory::Partition(
    uint32_t shard, uint32_t num_shards) const {
  (void)shard;
  (void)num_shards;
  return nullptr;  // not partitionable (custom factories)
}

}  // namespace workload
}  // namespace face
