#include "recovery/redo.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace face {

namespace {

/// recovery.readahead_* handles, resolved once per thread.
struct ReadAheadObs {
  obs::Counter* batches;
  obs::Counter* pages;
};

ReadAheadObs& GetReadAheadObs() {
  thread_local ReadAheadObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    return ReadAheadObs{reg.GetCounter("recovery.readahead_batches"),
                        reg.GetCounter("recovery.readahead_pages")};
  }();
  return o;
}

/// Fault `pages` into the pool as one lane batch, one lane per page.
Status FetchWindow(BufferPool* pool, IoScheduler* sched,
                   const std::vector<PageId>& pages) {
  obs::ScopedSpan span("recovery", "readahead");
  ScopedIoBatch batch(sched);
  for (PageId pid : pages) {
    batch.NextLane();
    // The handle unpins at once: the page stays resident because a window
    // is at most half the pool and its pages are the most recently used.
    FACE_RETURN_IF_ERROR(pool->FetchPageForRedo(pid).status());
  }
  return Status::OK();
}

}  // namespace

Status RedoWithReadAhead(SimDevice* log_device, BufferPool* pool,
                         DbStorage* storage, IoScheduler* sched, Lsn from,
                         const std::vector<PageId>* targets,
                         RedoStats* stats) {
  const size_t window_pages =
      std::min<size_t>(kRedoReadAheadPages, pool->capacity() / 2);
  LogReader reader(log_device);
  FACE_RETURN_IF_ERROR(reader.Seek(from));

  std::vector<LogRecord> window;
  std::vector<PageId> fetch;  // distinct non-resident pages, first touch
  bool end_of_log = false;
  while (!end_of_log) {
    window.clear();
    fetch.clear();
    while (fetch.size() < window_pages) {
      auto rec_or = reader.Next();
      if (!rec_or.ok()) {  // end of the valid log
        end_of_log = true;
        break;
      }
      LogRecord& rec = rec_or.value();
      if (rec.type != LogRecordType::kUpdate &&
          rec.type != LogRecordType::kClr) {
        continue;
      }
      if (targets != nullptr &&
          !std::binary_search(targets->begin(), targets->end(),
                              rec.page_id)) {
        continue;
      }
      ++stats->records;
      storage->ObservePage(rec.page_id);
      if (!pool->IsResident(rec.page_id) &&
          std::find(fetch.begin(), fetch.end(), rec.page_id) == fetch.end()) {
        fetch.push_back(rec.page_id);
      }
      window.push_back(std::move(rec));
    }

    if (!fetch.empty()) {
      FACE_RETURN_IF_ERROR(FetchWindow(pool, sched, fetch));
      ++stats->readahead_batches;
      stats->readahead_pages += fetch.size();
      if (obs::Enabled()) {
        ReadAheadObs& o = GetReadAheadObs();
        o.batches->Increment();
        o.pages->Add(fetch.size());
      }
    }

    for (const LogRecord& rec : window) {
      FACE_ASSIGN_OR_RETURN(PageHandle page,
                            pool->FetchPageForRedo(rec.page_id));
      // pageLSN test: the effect is already present iff pageLSN >= rec LSN.
      if (page.view().lsn() >= rec.lsn) continue;
      memcpy(page.data() + rec.offset, rec.after.data(), rec.after.size());
      page.MarkDirtyRange(rec.lsn, rec.offset,
                          static_cast<uint32_t>(rec.after.size()));
      ++stats->applied;
    }
  }
  return Status::OK();
}

}  // namespace face
