#include "recovery/redo.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/page_map.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"

namespace face {

namespace {

/// recovery.readahead_* and recovery.redo_skipped handles, resolved once
/// per thread.
struct ReadAheadObs {
  obs::Counter* batches;
  obs::Counter* pages;
  obs::Counter* skipped;
};

ReadAheadObs& GetReadAheadObs() {
  thread_local ReadAheadObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    return ReadAheadObs{reg.GetCounter("recovery.readahead_batches"),
                        reg.GetCounter("recovery.readahead_pages"),
                        reg.GetCounter("recovery.redo_skipped")};
  }();
  return o;
}

/// Re-apply one record to a page whose pageLSN is below the record's: an
/// update's image turns the before image into the after image, a CLR's
/// compensation image is copied.
void ApplyRecord(const LogRecord& rec, PageHandle* page) {
  const uint32_t n = static_cast<uint32_t>(rec.image.size());
  if (rec.type == LogRecordType::kUpdate) {
    rec.XorImageInto(page->data());
  } else {
    memcpy(page->data() + rec.offset, rec.image.data(), n);
  }
  page->MarkDirtyRange(rec.lsn, rec.offset, n);
}

/// One window's lane batch, traced as one recovery/readahead span. Both
/// open with the first lane and close at Close or destruction, the batch
/// first.
class ReadAheadBatch {
 public:
  explicit ReadAheadBatch(IoScheduler* sched) : sched_(sched) {}

  /// Start the next lane at the batch start, or run `lead` as the next
  /// lane (ScopedIoBatch::RunLead), opening the batch and its span at the
  /// first.
  void NextLane() {
    Open();
    batch_->NextLane();
  }
  Status RunLead(const IoLead& lead) {
    Open();
    return batch_->RunLead(lead);
  }

  void Close() {
    batch_.reset();
    span_.reset();
  }

 private:
  void Open() {
    if (batch_ != nullptr) return;
    span_ = std::make_unique<obs::ScopedSpan>("recovery", "readahead");
    batch_ = std::make_unique<ScopedIoBatch>(sched_);
  }

  IoScheduler* sched_;
  std::unique_ptr<obs::ScopedSpan> span_;
  std::unique_ptr<ScopedIoBatch> batch_;
};

}  // namespace

Status RedoWithReadAhead(LogReader* reader, BufferPool* pool,
                         DbStorage* storage, IoScheduler* sched, Lsn from,
                         const std::vector<PageId>* targets,
                         const IoLead* lead, RedoStats* stats) {
  const size_t window_pages = std::max<size_t>(1, pool->capacity() / 2);
  const CacheExtension* cache = pool->cache();
  FACE_RETURN_IF_ERROR(reader->Seek(from));

  std::vector<LogRecord> window;
  std::vector<PageId> fetch;  // distinct non-resident pages, first touch
  PageMap<bool> covered;      // page -> only ever skipped, never fetched
  bool end_of_log = false;
  while (!end_of_log) {
    window.clear();
    fetch.clear();
    ReadAheadBatch batch(sched);
    if (lead != nullptr) {
      // The lead takes the first lane; the window below is decoded after it
      // (see file comment).
      FACE_RETURN_IF_ERROR(batch.RunLead(*lead));
      lead = nullptr;
    }
    while (fetch.size() < window_pages) {
      auto rec_or = reader->Next();
      if (rec_or.status().IsNotFound()) {  // end of the valid log
        end_of_log = true;
        break;
      }
      FACE_RETURN_IF_ERROR(rec_or.status());
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
      if (!pool->IsResident(rec.page_id)) {
        // The copy a fetch would bring in already holds the effect: the
        // pageLSN test would skip the record, so skip it without the fetch.
        const Lsn cached = cache->PersistentCopyLsn(rec.page_id);
        if (cached != kInvalidLsn && cached >= rec.lsn) {
          ++stats->skipped;
          covered.TryEmplace(rec.page_id, true);
          if (obs::Enabled()) GetReadAheadObs().skipped->Increment();
          continue;
        }
        if (std::find(fetch.begin(), fetch.end(), rec.page_id) ==
            fetch.end()) {
          fetch.push_back(rec.page_id);
          covered.InsertOrAssign(rec.page_id, false);
        }
      }
      window.push_back(std::move(rec));
    }

    for (PageId pid : fetch) {
      batch.NextLane();
      // The handle unpins at once: the page stays resident because a window
      // is at most half the pool and its pages are the most recently used.
      FACE_RETURN_IF_ERROR(pool->FetchPageForRedo(pid).status());
    }
    batch.Close();
    if (!fetch.empty()) {
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
      ApplyRecord(rec, &page);
      ++stats->applied;
    }
  }
  covered.ForEach([stats](PageId, bool only_skipped) {
    stats->skipped_pages += only_skipped ? 1 : 0;
  });
  return Status::OK();
}

}  // namespace face
