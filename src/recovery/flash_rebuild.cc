#include "recovery/flash_rebuild.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/redo.h"

namespace face {

StatusOr<FlashRebuildReport> FlashRebuild::Rebuild(
    const std::vector<FlashOnlyPage>& lost, Lsn fallback_floor) {
  FlashRebuildReport report;
  report.target_pages = lost.size();
  if (lost.empty()) return report;
  obs::ScopedSpan span("recovery", "flash_rebuild");

  // The scan reads the durable log; everything appended so far must be on
  // the device (the degrade sequence forces the WAL anyway — this makes
  // the rebuild safe to call standalone).
  FACE_RETURN_IF_ERROR(log_->FlushAll());

  Lsn floor = kInvalidLsn;
  for (const FlashOnlyPage& p : lost) {
    Lsn f = p.redo_lsn != kInvalidLsn ? p.redo_lsn : fallback_floor;
    if (f == kInvalidLsn) f = LogManager::kLogStartLsn;
    if (floor == kInvalidLsn || f < floor) floor = f;
  }
  report.floor = floor;

  // The page filter is binary-searched, so sort it: a scrub reports its
  // lost pages in queue order, not page order.
  std::vector<PageId> ids;
  ids.reserve(lost.size());
  for (const FlashOnlyPage& p : lost) ids.push_back(p.page_id);
  std::sort(ids.begin(), ids.end());
  // Only update and CLR records name a page: keep the lost pages' ones.
  std::vector<LogRecord> records;
  LogReader reader(log_->device());
  FACE_RETURN_IF_ERROR(reader.Seek(floor));
  FACE_RETURN_IF_ERROR(reader.Scan([&](LogRecord&& rec) {
    if (std::binary_search(ids.begin(), ids.end(), rec.page_id)) {
      records.push_back(std::move(rec));
    }
    return Status::OK();
  }));
  RedoStats redo;
  FACE_RETURN_IF_ERROR(RedoWithReadAhead(records, pool_, storage_, sched_,
                                         /*lead=*/nullptr, &redo));
  report.records_scanned = redo.records;
  report.records_applied = redo.applied;

  // The reconstructed tips become durable at their home location: after
  // this, disk alone carries every committed version the flash held.
  FACE_RETURN_IF_ERROR(pool_->FlushPagesToDisk(ids));
  report.pages_written = lost.size();

  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    thread_local obs::Counter* rebuilds =
        reg.GetCounter("recovery.flash_rebuilds");
    thread_local obs::Hist* pages =
        reg.GetHistogram("recovery.flash_rebuild_pages");
    thread_local obs::Hist* applied =
        reg.GetHistogram("recovery.flash_rebuild_applied");
    rebuilds->Increment();
    pages->Add(report.target_pages);
    applied->Add(report.records_applied);
  }
  return report;
}

}  // namespace face
