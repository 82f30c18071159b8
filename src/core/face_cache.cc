#include "core/face_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/crc32c.h"
#include "obs/trace.h"
#include "storage/page.h"

namespace face {

namespace {

/// "core.face.*" handles: the mvFIFO admission/replacement counters plus
/// the group-size distributions the paper's Figure 9 is about.
struct FaceObs {
  obs::Counter* enqueues;
  obs::Counter* invalidations;
  obs::Counter* second_chances;
  obs::Counter* meta_seg_flushes;
  obs::Counter* delta_appends;
  obs::Counter* delta_consolidations;
  obs::Counter* restore_frames_scanned;
  obs::Counter* restore_dirty_entries;
  obs::Hist* group_flush_pages;
  obs::Hist* group_dequeue_pages;
};

FaceObs& GetFaceObs() {
  thread_local FaceObs o = [] {
    auto& reg = obs::MetricsRegistry::Instance();
    FaceObs f;
    f.enqueues = reg.GetCounter("core.face.enqueues");
    f.invalidations = reg.GetCounter("core.face.invalidations");
    f.second_chances = reg.GetCounter("core.face.second_chances");
    f.meta_seg_flushes = reg.GetCounter("core.face.meta_seg_flushes");
    f.delta_appends = reg.GetCounter("core.face.delta_appends");
    f.delta_consolidations = reg.GetCounter("core.face.delta_consolidations");
    f.restore_frames_scanned =
        reg.GetCounter("core.face.restore_frames_scanned");
    f.restore_dirty_entries = reg.GetCounter("core.face.restore_dirty_entries");
    f.group_flush_pages = reg.GetHistogram("core.face.group_flush_pages");
    f.group_dequeue_pages = reg.GetHistogram("core.face.group_dequeue_pages");
    return f;
  }();
  return o;
}

constexpr uint64_t kSuperMagic = 0xFACEAC4E2012ull;

// The frame stamp in the page-header flags word: bit 31 is the frame's
// enqueue-time dirty flag, the low 31 bits its enqueue sequence.
constexpr uint32_t kStampDirty = 1u << 31;
constexpr uint32_t kStampSeqMask = kStampDirty - 1;

/// True iff `frame` carries the stamp of enqueue sequence `seq`.
bool StampedWith(const char* frame, uint64_t seq) {
  return (ConstPageView(frame).flags() & kStampSeqMask) ==
         (static_cast<uint32_t>(seq) & kStampSeqMask);
}

/// The dirty flag `frame` was enqueued with.
bool StampedDirty(const char* frame) {
  return (ConstPageView(frame).flags() & kStampDirty) != 0;
}

/// Since when `page`, admitted dirty, has been newer than its disk copy:
/// its recLSN, or its pageLSN for a frame never re-dirtied in DRAM (fetched
/// dirty from flash, or absorbed by a checkpoint).
Lsn ExposedSince(Lsn rec_lsn, const char* page) {
  return rec_lsn != kInvalidLsn ? rec_lsn : ConstPageView(page).lsn();
}

// Superblock layout within block 0:
//   [0..8) magic  [8..16) n_frames  [16..20) seg_entries
//   [20..28) front_seq  [28..36) rear_seq  [36..40) masked crc
struct Superblock {
  uint64_t n_frames;
  uint32_t seg_entries;
  uint64_t front_seq;
  uint64_t rear_seq;

  void EncodeTo(char* block) const {
    memset(block, 0, kPageSize);
    EncodeFixed64(block, kSuperMagic);
    EncodeFixed64(block + 8, n_frames);
    EncodeFixed32(block + 16, seg_entries);
    EncodeFixed64(block + 20, front_seq);
    EncodeFixed64(block + 28, rear_seq);
    EncodeFixed32(block + 36, crc32c::Mask(crc32c::Value(block, 36)));
  }

  static StatusOr<Superblock> DecodeFrom(const char* block) {
    if (DecodeFixed64(block) != kSuperMagic) {
      return Status::NotFound("no flash-cache superblock");
    }
    if (crc32c::Mask(crc32c::Value(block, 36)) != DecodeFixed32(block + 36)) {
      return Status::Corruption("flash-cache superblock crc mismatch");
    }
    Superblock sb;
    sb.n_frames = DecodeFixed64(block + 8);
    sb.seg_entries = DecodeFixed32(block + 16);
    sb.front_seq = DecodeFixed64(block + 20);
    sb.rear_seq = DecodeFixed64(block + 28);
    return sb;
  }
};

}  // namespace

FaceOptions FaceOptions::Base(uint64_t n_frames) {
  FaceOptions o;
  o.n_frames = n_frames;
  return o;
}

FaceOptions FaceOptions::GroupReplace(uint64_t n_frames) {
  FaceOptions o = Base(n_frames);
  o.replacement = FaceReplacement::kGroupReplace;
  return o;
}

FaceOptions FaceOptions::GroupSecondChance(uint64_t n_frames) {
  FaceOptions o = Base(n_frames);
  o.replacement = FaceReplacement::kGroupSecondChance;
  return o;
}

FaceCache::FaceCache(const FaceOptions& options, SimDevice* flash,
                     DbStorage* storage)
    : options_(options),
      layout_(FlashLayout::Compute(options.n_frames, options.seg_entries)),
      flash_(flash),
      storage_(storage),
      delta_(DeltaRingOptions{layout_.delta_base,
                              static_cast<uint32_t>(layout_.delta_blocks)},
             flash, &stats_) {
  assert(options_.n_frames >= 2);
  assert(flash_->capacity_pages() >= layout_.total_blocks);
  newest_.Reserve(options_.n_frames);  // steady state never rehashes
  scratch_.resize(kPageSize);
  consolidate_buf_.resize(kPageSize);
  staging_buf_.resize(static_cast<size_t>(StagingCapacity()) * kPageSize);
  delta_.SetConsolidateFn([this](const std::vector<PageId>& pids) {
    return ConsolidateDeltaPages(pids);
  });
}

const char* FaceCache::name() const {
  if (second_chance()) return "FaCE+GSC";
  if (grouped()) return "FaCE+GR";
  return "FaCE";
}

void FaceCache::Forget() {
  front_seq_ = rear_seq_ = staged_base_ = 0;
  staged_count_ = 0;
  scrub_seq_ = 0;
  entries_.clear();
  newest_.Clear();
  seg_buf_.clear();
  sb_front_seq_ = sb_rear_seq_ = 0;
  delta_.DropAll();
  finish_pending_ = false;
}

Status FaceCache::Format() {
  Forget();
  FACE_RETURN_IF_ERROR(delta_.Reset());
  return WriteSuperblock();
}

Status FaceCache::WriteSuperblock() {
  Superblock sb{options_.n_frames, options_.seg_entries, sb_front_seq_,
                sb_rear_seq_};
  std::string block(kPageSize, '\0');
  sb.EncodeTo(block.data());
  ++stats_.meta_flash_writes;
  return flash_->Write(0, block.data());
}

void FaceCache::StampInto(char* dst, const char* page, PageId page_id,
                          Lsn lsn, uint64_t seq, bool dirty) {
  memcpy(dst, page, kPageSize);
  PageView view(dst);
  view.set_page_id(page_id);
  if (view.lsn() == kInvalidLsn && lsn != kInvalidLsn) view.set_lsn(lsn);
  // Stamp the enqueue sequence number and the dirty flag into the page
  // flags. Restart uses the sequence to tell frames written this lap of the
  // ring from leftovers of the previous lap — frame(seq) and
  // frame(seq ± n_frames) share a device block but differ in the stamp —
  // and the flag to restore a scanned frame exactly (see RecoverAfterCrash).
  view.set_flags((static_cast<uint32_t>(seq) & kStampSeqMask) |
                 (dirty ? kStampDirty : 0));
  view.StampChecksum();
}

Status FaceCache::WriteFrame(uint64_t seq, const char* page, PageId page_id,
                             Lsn lsn, bool dirty) {
  if (staged_count_ == 0) staged_base_ = seq;
  assert(staged_base_ + staged_count_ == seq);
  StampInto(StagingSlot(staged_count_), page, page_id, lsn, seq, dirty);
  ++staged_count_;
  if (staged_count_ >= StagingCapacity()) return FlushStaging();
  return Status::OK();
}

Status FaceCache::FlushStaging() {
  if (staged_count_ == 0) return Status::OK();
  // Base FaCE stages one frame at a time: only group flushes are traced.
  obs::ScopedSpan span("core.face", "group_flush", grouped());
  const uint64_t count = staged_count_;
  if (grouped() && obs::Enabled()) {
    GetFaceObs().group_flush_pages->Add(count);
  }
  const uint64_t frame0 = staged_base_ % layout_.n_frames;
  const uint64_t span1 = std::min<uint64_t>(count, layout_.n_frames - frame0);
  // The frames count as written and the arena is free again even if a
  // write fails, so the next enqueue starts a fresh batch.
  stats_.flash_writes += count;
  staged_count_ = 0;
  staged_base_ = rear_seq_;

  FACE_RETURN_IF_ERROR(flash_->WriteBatch(layout_.frame_base + frame0,
                                          static_cast<uint32_t>(span1),
                                          staging_buf_.data()));
  if (span1 < count) {
    FACE_RETURN_IF_ERROR(flash_->WriteBatch(
        layout_.frame_base, static_cast<uint32_t>(count - span1),
        StagingSlot(span1)));
  }
  return Status::OK();
}

Status FaceCache::ReadFrame(uint64_t seq, char* out) {
  if (staged_count_ > 0 && seq >= staged_base_) {
    // Still in the controller write buffer: serve from memory.
    memcpy(out, StagingSlot(seq - staged_base_), kPageSize);
    return Status::OK();
  }
  FACE_RETURN_IF_ERROR(flash_->Read(layout_.FrameBlock(seq), out));
  ++stats_.flash_reads;
  return Status::OK();
}

Status FaceCache::ReadFrames(uint64_t seq, uint32_t count, char* out) {
  const uint64_t frame0 = seq % layout_.n_frames;
  const uint64_t span1 = std::min<uint64_t>(count, layout_.n_frames - frame0);
  FACE_RETURN_IF_ERROR(flash_->ReadBatch(layout_.frame_base + frame0,
                                         static_cast<uint32_t>(span1), out));
  if (span1 < count) {
    FACE_RETURN_IF_ERROR(flash_->ReadBatch(
        layout_.frame_base, static_cast<uint32_t>(count - span1),
        out + span1 * kPageSize));
  }
  stats_.flash_reads += count;
  return Status::OK();
}

Status FaceCache::AppendMeta(const FlashMetaEntry& entry) {
  char buf[FlashMetaEntry::kEncodedSize];
  entry.EncodeTo(buf);
  seg_buf_.append(buf, sizeof(buf));
  return hold_segments_ ? Status::OK() : FlushSegments();
}

Status FaceCache::FlushSegments() {
  const size_t seg_bytes =
      static_cast<size_t>(options_.seg_entries) * FlashMetaEntry::kEncodedSize;
  if (seg_buf_.size() < seg_bytes) return Status::OK();
  // Frames first: a persisted metadata entry must never describe a frame
  // whose bytes are still in the staging buffer.
  FACE_RETURN_IF_ERROR(FlushStaging());
  // seg_buf_ starts at a segment boundary.
  uint64_t seg_no = layout_.SegmentOf(
      rear_seq_ - seg_buf_.size() / FlashMetaEntry::kEncodedSize);
  std::string blocks(static_cast<size_t>(layout_.seg_blocks) * kPageSize,
                     '\0');
  size_t done = 0;
  for (; seg_buf_.size() - done >= seg_bytes; done += seg_bytes, ++seg_no) {
    memcpy(blocks.data(), seg_buf_.data() + done, seg_bytes);
    FACE_RETURN_IF_ERROR(flash_->WriteBatch(layout_.SegmentBlock(seg_no),
                                            layout_.seg_blocks,
                                            blocks.data()));
    stats_.meta_flash_writes += layout_.seg_blocks;
    if (obs::Enabled()) GetFaceObs().meta_seg_flushes->Increment();
  }
  seg_buf_.erase(0, done);
  sb_front_seq_ = front_seq_;
  sb_rear_seq_ = seg_no * static_cast<uint64_t>(options_.seg_entries);
  return WriteSuperblock();
}

Lsn FaceCache::PersistentCopyLsn(PageId page_id) const {
  const uint64_t* seq = newest_.Find(page_id);
  return seq == nullptr ? kInvalidLsn : EntryAt(*seq).lsn;
}

StatusOr<FlashReadResult> FaceCache::ReadPage(PageId page_id, char* out) {
  assert(!finish_pending_ && "a frame read before its chain re-attached");
  const uint64_t* found = newest_.Find(page_id);
  if (found == nullptr) return Status::NotFound("page not in flash cache");
  const uint64_t seq = *found;
  Entry& e = EntryAt(seq);
  e.referenced = true;

  FACE_RETURN_IF_ERROR(ReadFrame(seq, out));
  ConstPageView view(out);
  if (!view.VerifyChecksum() || view.page_id() != page_id) {
    return Status::Corruption("flash cache frame failed validation");
  }
  // The frame is the chain *base*; patch any delta records on top and hand
  // the caller the tip version so it can delta against this copy later.
  delta_.ApplyChain(page_id, out);
  FlashReadResult result{e.dirty, kInvalidLsn};
  DeltaRing::ChainView cv;
  if (delta_.GetChain(page_id, &cv)) result.flash_version = cv.tip_version;
  return result;
}

Status FaceCache::Enqueue(PageId page_id, const char* page, bool dirty,
                          Lsn lsn, Lsn since, uint64_t* out_version) {
  assert(live_entries() < options_.n_frames);
  const uint64_t seq = rear_seq_;

  auto [slot, inserted] = newest_.TryEmplace(page_id, seq);
  if (!inserted) {
    Entry& old = EntryAt(*slot);
    old.valid = false;
    // The disk copy has been stale since the older version's exposure.
    if (old.since != kInvalidLsn) since = old.since;
    ++stats_.invalidations;
    if (obs::Enabled()) GetFaceObs().invalidations->Increment();
    *slot = seq;
  }
  entries_.push_back(
      Entry{page_id, lsn, dirty ? since : kInvalidLsn, dirty, true, false});
  ++rear_seq_;
  ++stats_.enqueues;
  if (obs::Enabled()) GetFaceObs().enqueues->Increment();

  // A full image re-bases the page's delta chain (drops older records).
  const uint64_t version = delta_.BeginFull(page_id, seq);
  if (out_version != nullptr) *out_version = version;

  FACE_RETURN_IF_ERROR(WriteFrame(seq, page, page_id, lsn, dirty));
  return AppendMeta(FlashMetaEntry{page_id, lsn, dirty, true});
}

StatusOr<uint64_t> FaceCache::DequeueFront(uint64_t n,
                                           const std::vector<uint64_t>& keep,
                                           char* group, ScopedIoBatch* batch,
                                           std::vector<Survivor>* survivors) {
  assert(n <= live_entries());
  if (group == nullptr && dequeue_buf_.size() < keep.size() * kPageSize) {
    dequeue_buf_.resize(keep.size() * kPageSize);
  }
  uint64_t destages = 0;
  size_t kept = 0;
  for (uint64_t k = 0; k < n; ++k) {
    const Entry& e = entries_.front();
    const bool survives = kept < keep.size() && keep[kept] == front_seq_;
    if (survives || (e.valid && e.dirty)) {
      batch->NextLane();
      // A page either survives or is destaged, never both, so a destage
      // may stamp its group slot in place.
      char* img = group != nullptr ? group + k * kPageSize
                  : survives       ? dequeue_buf_.data() + kept * kPageSize
                                   : scratch_.data();
      if (group == nullptr) FACE_RETURN_IF_ERROR(ReadFrame(front_seq_, img));
      // The frame is a chain base: the tip image carries every refresh
      // since the full write.
      delta_.ApplyChain(e.page_id, img);
      if (survives) {
        survivors->push_back(Survivor{e, img});
        ++kept;
      } else {
        FACE_RETURN_IF_ERROR(storage_->WritePage(e.page_id, img));
        ++stats_.disk_writes;
        ++destages;
      }
    }
    PopFront();
  }
  return destages;
}

template <typename Eligible>
void FaceCache::KeepSecondChances(uint64_t seq, uint64_t count,
                                  const Eligible& eligible,
                                  std::vector<uint64_t>* keep) const {
  uint64_t referenced = 0;  // leading referenced valid entries
  while (referenced < count && EntryAt(seq + referenced).valid &&
         EntryAt(seq + referenced).referenced) {
    ++referenced;
  }
  // Rule (a): the first entry of an all-referenced group gets no chance.
  for (uint64_t k = referenced == count ? 1 : 0; k < count; ++k) {
    const Entry& e = EntryAt(seq + k);
    if (!e.valid || !e.referenced || !eligible(e)) continue;
    // Rule (b). The new frame differs from the old one beyond the header
    // sector only if a delta chain patched it.
    DeltaRing::ChainView cv;
    if (e.dirty &&
        layout_.FrameBlock(rear_seq_ + keep->size()) ==
            layout_.FrameBlock(seq + k) &&
        delta_.GetChain(e.page_id, &cv) && cv.len > 0) {
      continue;
    }
    keep->push_back(seq + k);
  }
}

Status FaceCache::ReenqueueSurvivors(const std::vector<Survivor>& survivors) {
  // A segment boundary inside this loop waits until every survivor is
  // staged: the flush then writes them before it persists the front.
  hold_segments_ = true;
  Status s;
  for (const Survivor& sv : survivors) {
    ++stats_.second_chances;
    if (obs::Enabled()) GetFaceObs().second_chances->Increment();
    const Entry& e = sv.entry;
    s = Enqueue(e.page_id, sv.bytes, e.dirty, e.lsn, e.since);
    if (!s.ok()) break;
  }
  hold_segments_ = false;
  FACE_RETURN_IF_ERROR(s);
  return FlushSegments();
}

Status FaceCache::MakeRoom() {
  if (live_entries() < options_.n_frames) return Status::OK();
  ScopedIoBatch serial(nullptr);
  if (!grouped()) {
    return DequeueFront(1, {}, nullptr, &serial, nullptr).status();
  }
  // GR/GSC: the front group leaves through one flash read request.
  const uint32_t n = static_cast<uint32_t>(
      std::min<uint64_t>(options_.group_size, live_entries()));
  obs::ScopedSpan span("core.face", "group_dequeue");
  if (obs::Enabled()) GetFaceObs().group_dequeue_pages->Add(n);
  // Never read frames whose bytes are still staged in memory.
  if (staged_count_ > 0 && front_seq_ + n > staged_base_) {
    FACE_RETURN_IF_ERROR(FlushStaging());
  }
  if (dequeue_buf_.size() < static_cast<size_t>(n) * kPageSize) {
    dequeue_buf_.resize(static_cast<size_t>(n) * kPageSize);
  }
  FACE_RETURN_IF_ERROR(ReadFrames(front_seq_, n, dequeue_buf_.data()));
  std::vector<uint64_t> keep;
  if (second_chance()) {
    KeepSecondChances(front_seq_, n, [](const Entry&) { return true; }, &keep);
  }
  std::vector<Survivor> survivors;
  FACE_RETURN_IF_ERROR(
      DequeueFront(n, keep, dequeue_buf_.data(), &serial, &survivors)
          .status());
  return ReenqueueSurvivors(survivors);
}

Status FaceCache::FillBatchFromDram() {
  if (pull_ == nullptr || staged_count_ == 0) return Status::OK();
  std::string page(kPageSize, '\0');
  uint32_t attempts = 0;
  while (staged_count_ < options_.group_size &&
         live_entries() < options_.n_frames &&
         attempts < options_.group_size) {
    ++attempts;
    bool dirty = false;
    bool fdirty = false;
    Lsn rec_lsn = kInvalidLsn;
    const PageId pid = pull_->PullVictim(page.data(), &dirty, &fdirty,
                                         &rec_lsn);
    if (pid == kInvalidPageId) break;
    ++stats_.pulled_from_dram;
    FACE_RETURN_IF_ERROR(
        Admit(pid, page.data(), dirty, fdirty, rec_lsn, nullptr).status());
  }
  return Status::OK();
}

StatusOr<bool> FaceCache::TryDeltaRefresh(PageId page_id, const char* page,
                                          bool dirty, Lsn since,
                                          DeltaWriteHint* hint) {
  if (!DeltaRing::Tracks(hint)) return false;  // no lookup for untracked pages
  const uint64_t* seqp = newest_.Find(page_id);
  if (seqp == nullptr) return false;  // chain would be unmatched at restart
  const uint64_t seq = *seqp;
  if (!EntryAt(seq).valid) return false;
  FACE_ASSIGN_OR_RETURN(const bool refreshed,
                        delta_.TryRefresh(page_id, page, dirty, hint));
  if (!refreshed) return false;

  // The entry now describes base + chain: its LSN advances to the record's
  // (recovery's duplicate resolution and the destage path both rely on it),
  // and a dirty record makes the flash copy newer than disk.
  Entry& e = EntryAt(seq);
  e.lsn = ConstPageView(page).lsn();
  if (dirty) {
    e.dirty = true;
    if (e.since == kInvalidLsn) e.since = since;
  }
  if (obs::Enabled()) GetFaceObs().delta_appends->Increment();
  return true;
}

Status FaceCache::ConsolidateDeltaPages(const std::vector<PageId>& pids) {
  for (PageId pid : pids) {
    const uint64_t* seqp = newest_.Find(pid);
    if (seqp == nullptr) continue;  // destaged earlier in this sweep
    const uint64_t seq = *seqp;
    const Entry& e = EntryAt(seq);
    if (!e.valid) continue;
    DeltaRing::ChainView cv;
    if (!delta_.GetChain(pid, &cv) || cv.len == 0 || cv.base_tag != seq) {
      continue;
    }
    // Rebuild the tip image (base + chain) and re-enqueue it as a fresh
    // full frame; Enqueue re-bases the chain, freeing the doomed records.
    char* img = consolidate_buf_.data();
    FACE_RETURN_IF_ERROR(ReadFrame(seq, img));
    delta_.ApplyChain(pid, img);
    const bool dirty = e.dirty;
    const Lsn lsn = e.lsn;
    FACE_RETURN_IF_ERROR(MakeRoom());
    // The new frame keeps this entry's exposure, unless making room just
    // destaged the entry: disk is current then.
    FACE_RETURN_IF_ERROR(Enqueue(pid, img, dirty, lsn, kInvalidLsn));
    if (obs::Enabled()) GetFaceObs().delta_consolidations->Increment();
  }
  // The fresh full frames must hit the media before the ring slot is
  // reused — in group-replace mode they are sitting in the staging arena.
  return FlushStaging();
}

StatusOr<bool> FaceCache::Admit(PageId page_id, char* page, bool dirty,
                                bool fdirty, Lsn rec_lsn,
                                DeltaWriteHint* hint) {
  if (dirty) ++stats_.dirty_evictions;

  // Design-choice ablations (§3.2 "caching clean and dirty"). When a dirty
  // page bypasses the cache to disk, any older flash copy is now stale and
  // must be dropped, or later reads and restarts would serve it.
  if (dirty && !options_.cache_dirty) {
    FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
    ++stats_.disk_writes;
    if (const uint64_t* seq = newest_.Find(page_id)) {
      FACE_RETURN_IF_ERROR(Invalidate(*seq));
    }
    return false;
  }
  if (!dirty && !options_.cache_clean) return false;

  // Algorithm 1: unconditional enqueue when fdirty, conditional (absent-only)
  // otherwise.
  if (!fdirty && Contains(page_id)) return false;

  if (options_.write_through && dirty) {
    FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
    ++stats_.disk_writes;
    // Disk is current: the cached copy exposes nothing any more.
    if (const uint64_t* seq = newest_.Find(page_id)) {
      EntryAt(*seq).since = kInvalidLsn;
    }
    dirty = false;
  }
  const Lsn since = ExposedSince(rec_lsn, page);

  // Page-differential fast path: a small refresh of a page whose chain tip
  // matches the evicted frame's version becomes a compact delta record in
  // the shared ring — no frame write, no metadata append.
  FACE_ASSIGN_OR_RETURN(const bool refreshed,
                        TryDeltaRefresh(page_id, page, dirty, since, hint));
  if (refreshed) return false;

  const bool was_full = live_entries() >= options_.n_frames;
  FACE_RETURN_IF_ERROR(MakeRoom());
  uint64_t version = kNoFlashVersion;
  FACE_RETURN_IF_ERROR(Enqueue(page_id, page, dirty, ConstPageView(page).lsn(),
                               since, &version));
  if (hint != nullptr) hint->new_version = version;
  return was_full;
}

Status FaceCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                              bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  FACE_ASSIGN_OR_RETURN(const bool made_room,
                        Admit(page_id, page, dirty, fdirty, rec_lsn, hint));
  // GSC: the group dequeue freed slots; fill the staged batch from DRAM.
  if (made_room && second_chance()) return FillBatchFromDram();
  return Status::OK();
}

Status FaceCache::CheckpointPages(std::vector<CheckpointOffer>* offers,
                                  const IoLead& force, IoScheduler* lanes,
                                  WriteBackStats* stats) {
  if (lanes != nullptr) return AbsorbBatch(offers, force, lanes, stats);
  FACE_RETURN_IF_ERROR(force.run());
  for (CheckpointOffer& o : *offers) FACE_RETURN_IF_ERROR(AbsorbOne(&o));
  return Status::OK();
}

Status FaceCache::AbsorbOne(CheckpointOffer* o) {
  // A checkpointed dirty page enters the flash cache instead of disk; the
  // flash copy becomes the persistent version (still newer than disk). A
  // small refresh rides the delta ring (made durable by OnCheckpoint's
  // Flush before the checkpoint completes) and needs no frame.
  o->absorbed = true;
  FACE_ASSIGN_OR_RETURN(
      const bool refreshed,
      TryDeltaRefresh(o->page_id, o->page, /*dirty=*/true,
                      ExposedSince(o->rec_lsn, o->page), &o->hint));
  if (refreshed) return Status::OK();
  FACE_RETURN_IF_ERROR(MakeRoom());
  return EnqueueOffer(o);
}

Status FaceCache::EnqueueOffer(CheckpointOffer* o) {
  return Enqueue(o->page_id, o->page, /*dirty=*/true,
                 ConstPageView(o->page).lsn(), ExposedSince(o->rec_lsn, o->page),
                 &o->hint.new_version);
}

Status FaceCache::AbsorbBatch(std::vector<CheckpointOffer>* offers,
                              const IoLead& force, IoScheduler* lanes,
                              WriteBackStats* stats) {
  // 1. Plan. An offer whose chain takes its refresh gets a delta record,
  //    every other one a full frame. The ring names the live chains the
  //    planned appends would displace: an offered page among them takes a
  //    full frame instead, any other is rewritten as its tip image.
  enum Role : uint8_t {
    kDelta,  ///< a delta record, appended last
    kFull,   ///< a new full frame
    kTip,    ///< not offered: its tip image as a full frame
  };
  struct Plan {
    uint32_t offer;
    Role role;
  };
  PageMap<Plan> plan(offers->size());
  std::vector<CheckpointOffer*> delta, full;
  std::vector<uint32_t> sizes;
  for (uint32_t i = 0; i < offers->size(); ++i) {
    CheckpointOffer& o = (*offers)[i];
    o.absorbed = true;
    const uint32_t size = delta_.RefreshSize(o.page_id, &o.hint);
    plan.TryEmplace(o.page_id, Plan{i, size > 0 ? kDelta : kFull});
    if (size > 0) {
      delta.push_back(&o);
      sizes.push_back(size);
    } else {
      full.push_back(&o);
    }
  }
  std::vector<PageId> displaced;
  const size_t fit = delta_.PlanAppends(sizes, &displaced);
  auto to_full = [&](Plan* p) {
    p->role = kFull;
    full.push_back(&(*offers)[p->offer]);
  };
  for (size_t i = fit; i < delta.size(); ++i) {
    to_full(plan.Find(delta[i]->page_id));  // would overwrite its own batch
  }
  delta.resize(fit);
  std::vector<PageId> tips;
  for (PageId pid : displaced) {
    Plan* p = plan.Find(pid);
    if (p == nullptr) {
      plan.TryEmplace(pid, Plan{0, kTip});
      tips.push_back(pid);
    } else if (p->role == kDelta) {
      to_full(p);
    }
  }
  delta.erase(std::remove_if(delta.begin(), delta.end(),
                             [&](CheckpointOffer* o) {
                               return plan.Find(o->page_id)->role != kDelta;
                             }),
              delta.end());
  stats->reclaimed_chains += displaced.size();

  // 2-3. Make the room in one lane batch, then write after it closed. A set
  //      larger than the queue takes more rounds, each sweeping frames the
  //      round before wrote. The log force leads the first round's batch:
  //      the destages need no force, the frames written after it do
  //      (sim/scheduler.h).
  const IoLead* lead = &force;
  uint64_t need = full.size() + tips.size();  // frames still to write
  uint64_t deltas_left = delta.size();         // planned deltas still planned
  size_t written = 0;                          // full frames written
  std::string tip_images;
  do {
    // The sweep: front frames, whole groups under GR/GSC, until the
    // survivors and every frame still to write fit.
    const uint64_t live = live_entries();
    uint64_t n = 0;
    std::vector<uint64_t> keep;  // second-chance survivors' seqs
    while (n < live && live - n + keep.size() + need > options_.n_frames) {
      const uint64_t end =
          grouped() ? std::min<uint64_t>(live, n + options_.group_size) : n + 1;
      for (uint64_t seq = front_seq_ + n; seq < front_seq_ + end; ++seq) {
        const Entry& e = EntryAt(seq);
        Plan* p = e.valid ? plan.Find(e.page_id) : nullptr;
        if (p != nullptr && p->role == kDelta) {  // the sweep drops its chain
          to_full(p);
          ++need;
          --deltas_left;
        }
      }
      // A page this checkpoint rewrites gets no second chance. Survivors
      // stay within one group, the restart scan's bound, and leave room
      // for every frame still to write, planned deltas included.
      if (second_chance()) {
        KeepSecondChances(
            front_seq_ + n, end - n,
            [&](const Entry& e) {
              return plan.Find(e.page_id) == nullptr &&
                     keep.size() < options_.group_size &&
                     keep.size() + 1 + need + deltas_left <= options_.n_frames;
            },
            &keep);
      }
      n = end;
    }

    // The batch: the force (first round only), then each tip-image read,
    // survivor read and destage is a lane. A round without a batch runs
    // the force on the span's clock.
    // A tip image gets its new frame even when the sweep also destages its
    // old one: the frame must be on flash before the appends reuse its
    // chain's slot. Never read frames whose bytes are still staged.
    if (staged_count_ > 0 && front_seq_ + n > staged_base_) {
      FACE_RETURN_IF_ERROR(FlushStaging());
    }
    std::vector<Entry> tip_entries;
    for (PageId pid : tips) tip_entries.push_back(EntryAt(*newest_.Find(pid)));
    tips.clear();
    uint64_t lanes_used = keep.size() + tip_entries.size();
    for (uint64_t k = 0; k < n; ++k) {
      lanes_used += entries_[k].valid && entries_[k].dirty ? 1 : 0;
    }
    tip_images.resize(tip_entries.size() * kPageSize);
    std::vector<Survivor> survivors;
    {
      IoScheduler* sched = lanes_used > 0 ? lanes : nullptr;
      obs::ScopedSpan span("recovery", "writeback", sched != nullptr);
      ScopedIoBatch batch(sched);
      if (lead != nullptr) {
        FACE_RETURN_IF_ERROR(batch.RunLead(*lead));
        lead = nullptr;
      }
      for (size_t i = 0; i < tip_entries.size(); ++i) {
        batch.NextLane();
        const PageId pid = tip_entries[i].page_id;
        char* img = tip_images.data() + i * kPageSize;
        FACE_RETURN_IF_ERROR(ReadFrame(*newest_.Find(pid), img));
        delta_.ApplyChain(pid, img);
      }
      FACE_ASSIGN_OR_RETURN(const uint64_t destages,
                            DequeueFront(n, keep, nullptr, &batch, &survivors));
      if (sched != nullptr) {
        ++stats->batches;
        stats->pages += destages;
        stats->destages += destages;
      }
    }

    // After the batch closed, sequential flash writes: the survivors, the
    // tip images, then the full frames that fit.
    FACE_RETURN_IF_ERROR(ReenqueueSurvivors(survivors));
    for (size_t i = 0; i < tip_entries.size(); ++i, --need) {
      const Entry& e = tip_entries[i];
      // The new frame keeps the entry's exposure, unless the sweep just
      // destaged the entry: disk is current then.
      FACE_RETURN_IF_ERROR(Enqueue(e.page_id, tip_images.data() + i * kPageSize,
                                   e.dirty, e.lsn, kInvalidLsn));
      ++stats_.delta_consolidations;
      if (obs::Enabled()) GetFaceObs().delta_consolidations->Increment();
    }
    for (; written < full.size() && live_entries() < options_.n_frames;
         ++written, --need) {
      FACE_RETURN_IF_ERROR(EnqueueOffer(full[written]));
    }
  } while (written < full.size());

  // 4. The appends reuse the ring slots the tip images reclaimed: those
  //    frames reach flash first. Then the delta records, which find their
  //    slots free of live chains; the one-page path stays the safety net.
  FACE_RETURN_IF_ERROR(FlushStaging());
  for (CheckpointOffer* o : delta) {
    if (plan.Find(o->page_id)->role != kDelta) continue;
    FACE_RETURN_IF_ERROR(AbsorbOne(o));
  }
  return Status::OK();
}

Status FaceCache::OnCheckpoint() {
  // Pages absorbed by the checkpoint must actually be on flash when the
  // checkpoint completes. Metadata rides the normal segment cadence — the
  // bounded two-segment rebuild covers the in-memory remainder. Delta
  // records absorbed by the checkpoint get the same guarantee from Flush.
  FACE_RETURN_IF_ERROR(FlushStaging());
  FACE_RETURN_IF_ERROR(delta_.Flush());
  return Status::OK();
}

Status FaceCache::RecoverAfterCrash() {
  Forget();
  recovery_info_ = RecoveryInfo();

  std::string block(kPageSize, '\0');
  FACE_RETURN_IF_ERROR(flash_->Read(0, block.data()));
  ++stats_.flash_reads;
  auto sb = Superblock::DecodeFrom(block.data());
  if (!sb.ok() || sb->n_frames != options_.n_frames ||
      sb->seg_entries != options_.seg_entries) {
    // No usable cache state (fresh device or geometry change): cold start.
    return Format();
  }
  if (2 * uint64_t{options_.seg_entries} > options_.n_frames) {
    // The unpersisted tail (up to a segment past the superblock's rear)
    // could have overwritten frames the persisted segments describe.
    return Status::InvalidArgument(
        "flash-cache metadata segment exceeds half the frames");
  }

  front_seq_ = sb->front_seq;
  const uint64_t persisted_rear = sb->rear_seq;
  if (persisted_rear < front_seq_ ||
      persisted_rear % options_.seg_entries != 0) {
    return Format();
  }

  // 1. Load the fully persisted metadata segments.
  const uint64_t s = options_.seg_entries;
  std::string segbuf(static_cast<size_t>(layout_.seg_blocks) * kPageSize,
                     '\0');
  for (uint64_t seg_no = front_seq_ / s; seg_no < persisted_rear / s;
       ++seg_no) {
    FACE_RETURN_IF_ERROR(flash_->ReadBatch(layout_.SegmentBlock(seg_no),
                                           layout_.seg_blocks,
                                           segbuf.data()));
    stats_.flash_reads += layout_.seg_blocks;
    ++recovery_info_.persisted_segments_read;
    for (uint64_t j = 0; j < s; ++j) {
      const uint64_t seq = seg_no * s + j;
      if (seq < front_seq_) continue;
      const FlashMetaEntry me = FlashMetaEntry::DecodeFrom(
          segbuf.data() + j * FlashMetaEntry::kEncodedSize);
      entries_.push_back(Entry{me.occupied ? me.page_id : kInvalidPageId,
                               me.lsn, kInvalidLsn, me.dirty, false, false});
      ++recovery_info_.entries_restored;
    }
  }
  rear_seq_ = persisted_rear;

  // 2. Rebuild the (at most) two most recent segments by scanning raw
  //    frames — the paper's bounded restore of the lost in-memory segment.
  //    A frame belongs to this scan iff its stamped sequence matches: the
  //    enqueue path stamps seq into every frame, so a leftover from the
  //    ring's previous lap (stamp seq - n_frames) or a torn/unwritten frame
  //    ends the append-ordered scan. Note the true rear may exceed
  //    front_seq_ + n_frames: the superblock's front pointer is stale by up
  //    to a segment of dequeues (step 2b reconciles). Each frame comes back
  //    with the dirty flag stamped beside its sequence, which is the flag
  //    its lost metadata entry held. The tail spans at most two segments
  //    (the last one's superblock write may have been lost), or one segment
  //    plus the second-chance survivors a held boundary flush waited for.
  const uint64_t held = second_chance() ? options_.group_size : 0;
  const uint64_t scan_end = persisted_rear + s + std::max(s, held);
  std::string scan(64 * kPageSize, '\0');
  const char* stop = nullptr;  // the frame that ended the scan, if any
  for (uint64_t seq = persisted_rear; seq < scan_end && stop == nullptr;) {
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(64, scan_end - seq));
    FACE_RETURN_IF_ERROR(ReadFrames(seq, chunk, scan.data()));
    recovery_info_.rebuilt_frames_scanned += chunk;
    for (uint32_t k = 0; k < chunk; ++k) {
      const char* frame = scan.data() + static_cast<size_t>(k) * kPageSize;
      ConstPageView view(frame);
      const bool this_lap = view.VerifyChecksum() &&
                            view.page_id() < storage_->capacity_pages() &&
                            StampedWith(frame, seq + k);
      if (!this_lap) {
        stop = frame;
        break;
      }
      entries_.push_back(Entry{view.page_id(), view.lsn(), kInvalidLsn,
                               StampedDirty(frame), false, false});
      ++recovery_info_.entries_restored;
      ++rear_seq_;
    }
    seq += chunk;
  }

  // 2b. Frames are a ring: every enqueue past one full lap physically
  //     overwrites the frame of (seq - n_frames), and the pre-crash system
  //     only enqueued after dequeuing the victim. Entries below the true
  //     rear minus capacity therefore describe pages that were already
  //     dequeued (their dirty copies written to disk) — advance the
  //     restored front past them. The frame that ended the scan counts as
  //     written, too, unless its block still holds seq - n_frames intact:
  //     a write of it began (a crash tore it), so its victim was dequeued
  //     and the victim's frame is gone.
  const uint64_t n = options_.n_frames;
  uint64_t written_end = rear_seq_;
  if (stop != nullptr && rear_seq_ >= n &&
      !(ConstPageView(stop).VerifyChecksum() &&
        StampedWith(stop, rear_seq_ - n))) {
    ++written_end;
  }
  while (written_end >= n && front_seq_ < written_end - n) PopFront();

  // 3. Resolve validity chronologically; on duplicate pages the higher
  //    pageLSN wins (ties -> later enqueue), which defuses frames
  //    resurrected from a previous lap of the ring.
  for (uint64_t seq = front_seq_; seq < rear_seq_; ++seq) {
    Entry& e = EntryAt(seq);
    if (e.page_id == kInvalidPageId) continue;
    auto [slot, inserted] = newest_.TryEmplace(e.page_id, seq);
    if (inserted) {
      e.valid = true;
      continue;
    }
    Entry& old = EntryAt(*slot);
    if (e.lsn >= old.lsn) {
      old.valid = false;
      e.valid = true;
      *slot = seq;
    } else {
      e.valid = false;
    }
  }
  recovery_info_.valid_pages_restored = newest_.size();

  // 4. Reconstitute the partial in-memory segment from restored entries.
  for (uint64_t seq = (rear_seq_ / s) * s; seq < rear_seq_; ++seq) {
    char buf[FlashMetaEntry::kEncodedSize];
    if (seq < front_seq_) {
      FlashMetaEntry{kInvalidPageId, kInvalidLsn, false, false}.EncodeTo(buf);
    } else {
      const Entry& e = EntryAt(seq);
      FlashMetaEntry{e.page_id, e.lsn, e.dirty,
                     e.page_id != kInvalidPageId}
          .EncodeTo(buf);
    }
    seg_buf_.append(buf, sizeof(buf));
  }
  staged_base_ = rear_seq_;
  sb_front_seq_ = front_seq_;
  sb_rear_seq_ = persisted_rear;
  finish_pending_ = true;
  if (obs::Enabled()) {
    GetFaceObs().restore_frames_scanned->Add(
        recovery_info_.rebuilt_frames_scanned);
  }
  return Status::OK();
}

Status FaceCache::FinishRecovery(Lsn dirty_floor) {
  if (!finish_pending_) return Status::OK();
  finish_pending_ = false;

  // 5. Delta chains. Every valid entry is a potential chain base; scan the
  //    delta ring and re-attach surviving records to the entry that owns
  //    their page. A record belongs iff its base tag names the page's
  //    newest full frame, its chain index extends the chain contiguously,
  //    and its LSN advances the page (records of invalidated bases, or past
  //    a torn/overwritten predecessor, fail these tests and stay garbage).
  for (uint64_t seq = front_seq_; seq < rear_seq_; ++seq) {
    const Entry& e = EntryAt(seq);
    if (e.valid) delta_.BeginFull(e.page_id, seq);
  }
  auto recovered = delta_.RecoverScan();
  FACE_RETURN_IF_ERROR(recovered.status());
  for (const DeltaRing::RecoveredRecord& r : *recovered) {
    const uint64_t* seqp = newest_.Find(r.rec.page_id);
    if (seqp == nullptr || r.rec.base_version != *seqp) continue;
    Entry& e = EntryAt(*seqp);
    DeltaRing::ChainView cv;
    if (!delta_.GetChain(r.rec.page_id, &cv)) continue;
    if (r.rec.chain_idx != cv.len) continue;  // gap: predecessor lost
    const Lsn prev = cv.len > 0 ? cv.tip_lsn : e.lsn;
    if (prev != kInvalidLsn && r.rec.lsn <= prev) continue;
    delta_.AttachRecovered(r.rec.page_id, r);
    e.lsn = r.rec.lsn;
    e.dirty = e.dirty || r.rec.dirty != 0;
    ++recovery_info_.delta_records_attached;
  }

  // 6. Exposures. The per-page floors died with the process; the entry
  //    LSN is the best floor derivable from flash alone, and the control
  //    block's persisted minimum lowers it.
  for (Entry& e : entries_) {
    if (!e.valid || !e.dirty) continue;
    e.since = e.lsn;
    if (dirty_floor != kInvalidLsn &&
        (e.since == kInvalidLsn || e.since > dirty_floor)) {
      e.since = dirty_floor;
    }
    ++recovery_info_.dirty_entries_restored;
  }
  if (obs::Enabled()) {
    GetFaceObs().restore_dirty_entries->Add(
        recovery_info_.dirty_entries_restored);
  }
  return Status::OK();
}

void FaceCache::CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const {
  const size_t base = out->size();
  for (const Entry& e : entries_) {
    if (e.valid && e.since != kInvalidLsn) {
      out->push_back(FlashOnlyPage{e.page_id, e.since});
    }
  }
  std::sort(out->begin() + base, out->end(),
            [](const FlashOnlyPage& a, const FlashOnlyPage& b) {
              return a.page_id < b.page_id;
            });
}

void FaceCache::OnPageWrittenToDisk(PageId page_id) {
  const uint64_t* found = newest_.Find(page_id);
  if (found == nullptr) return;
  // A failed metadata write is ignored deliberately, as TAC does: the
  // in-memory drop already keeps the stale copy from being served.
  (void)Invalidate(*found);
}

Status FaceCache::Invalidate(uint64_t seq) {
  Entry& e = EntryAt(seq);
  e.valid = false;
  newest_.Erase(e.page_id);
  delta_.Drop(e.page_id);
  ++stats_.invalidations;

  const uint64_t s = options_.seg_entries;
  char buf[FlashMetaEntry::kEncodedSize];
  FlashMetaEntry{kInvalidPageId, kInvalidLsn, false, false}.EncodeTo(buf);
  if (seq >= (rear_seq_ / s) * s) {
    // Still in the in-memory partial segment: patch it so the eventual
    // boundary flush persists the drop.
    const size_t off =
        static_cast<size_t>(seq % s) * FlashMetaEntry::kEncodedSize;
    if (off + sizeof(buf) <= seg_buf_.size()) {
      memcpy(seg_buf_.data() + off, buf, sizeof(buf));
    }
    return Status::OK();
  }
  if (seq >= sb_rear_seq_) {
    // No persisted segment describes the entry, only the restart-time
    // raw-frame scan: a rotten frame fails its checksum there, but an
    // intact one comes back.
    return Status::OK();
  }
  // Read-modify-write the one segment block holding this entry.
  const uint64_t entry_in_seg = seq % s;
  const uint64_t byte = entry_in_seg * FlashMetaEntry::kEncodedSize;
  const uint64_t block = layout_.SegmentBlock(layout_.SegmentOf(seq)) +
                         byte / kPageSize;
  FACE_RETURN_IF_ERROR(flash_->Read(block, scratch_.data()));
  ++stats_.flash_reads;
  memcpy(scratch_.data() + byte % kPageSize, buf, sizeof(buf));
  ++stats_.meta_flash_writes;
  return flash_->Write(block, scratch_.data());
}

void FaceCache::PopFront() {
  const Entry& e = entries_.front();
  if (e.valid) {
    newest_.Erase(e.page_id);
    delta_.Drop(e.page_id);
  }
  entries_.pop_front();
  ++front_seq_;
}

Status FaceCache::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  if (max_frames == 0 || live_entries() == 0) return Status::OK();
  if (scrub_seq_ < front_seq_ || scrub_seq_ >= rear_seq_) {
    scrub_seq_ = front_seq_;
  }
  std::string frame(kPageSize, '\0');
  // Walk at most one full lap of the queue, verifying up to `max_frames`
  // valid media-resident frames (staged frames are still in memory and
  // cannot have rotted).
  uint64_t walked = 0;
  const uint64_t lap = live_entries();
  while (walked < lap && out->frames_scanned < max_frames) {
    const uint64_t seq = scrub_seq_;
    ++walked;
    ++scrub_seq_;
    if (scrub_seq_ >= rear_seq_) scrub_seq_ = front_seq_;
    Entry& e = EntryAt(seq);
    if (!e.valid) continue;
    if (staged_count_ > 0 && seq >= staged_base_) continue;
    FACE_RETURN_IF_ERROR(ReadFrame(seq, frame.data()));
    ++out->frames_scanned;
    ConstPageView view(frame.data());
    const bool ok = view.VerifyChecksum() && view.page_id() == e.page_id &&
                    StampedWith(frame.data(), seq);
    if (ok) continue;

    if (!e.dirty) {
      // Clean frame: the disk copy IS the chain tip, so rewriting it as the
      // new base keeps ApplyChain correct (delta records are absolute
      // byte-range after-images — re-patching with identical bytes).
      FACE_RETURN_IF_ERROR(storage_->ReadPage(e.page_id, frame.data()));
      ++stats_.disk_reads;
      StampInto(scratch_.data(), frame.data(), e.page_id, e.lsn, seq,
                /*dirty=*/false);
      FACE_RETURN_IF_ERROR(
          flash_->Write(layout_.FrameBlock(seq), scratch_.data()));
      ++stats_.flash_writes;
      ++out->clean_repaired;
      continue;
    }

    // Dirty frame: the rotten base was the only up-to-date copy. Drop the
    // entry and report the page for WAL-driven rebuild from its exposure.
    out->lost_dirty.push_back(FlashOnlyPage{
        e.page_id, e.since != kInvalidLsn ? e.since : e.lsn});
    FACE_RETURN_IF_ERROR(Invalidate(seq));
  }
  return Status::OK();
}

StatusOr<uint64_t> FaceCache::AuditFrames() {
  FACE_RETURN_IF_ERROR(CheckInvariants());
  uint64_t audited = 0;
  std::string buf(kPageSize, '\0');
  char* bytes = buf.data();
  for (uint64_t seq = front_seq_; seq < rear_seq_; ++seq) {
    const Entry& e = EntryAt(seq);
    if (!e.valid) continue;
    FACE_RETURN_IF_ERROR(ReadFrame(seq, bytes));
    ConstPageView view(bytes);
    if (!view.VerifyChecksum()) {
      return Status::Corruption("audit: mapped frame fails checksum (seq " +
                                std::to_string(seq) + ")");
    }
    if (view.page_id() != e.page_id) {
      return Status::Corruption("audit: frame page id mismatch (seq " +
                                std::to_string(seq) + ")");
    }
    if (!StampedWith(bytes, seq)) {
      return Status::Corruption("audit: frame sequence stamp mismatch (seq " +
                                std::to_string(seq) + ")");
    }
    if (StampedDirty(bytes) && !e.dirty) {
      return Status::Corruption("audit: dirty frame mapped clean (seq " +
                                std::to_string(seq) + ")");
    }
    DeltaRing::ChainView cv;
    if (delta_.GetChain(e.page_id, &cv) && cv.len > 0) {
      // The chain's tip must reconstruct cleanly on top of this base and
      // land exactly on the entry's LSN.
      delta_.ApplyChain(e.page_id, bytes);
      ConstPageView tip(bytes);
      if (!tip.VerifyChecksum() || tip.lsn() != e.lsn) {
        return Status::Corruption("audit: delta chain tip mismatch (seq " +
                                  std::to_string(seq) + ")");
      }
    }
    ++audited;
  }
  return audited;
}

Status FaceCache::CheckInvariants() const {
  if (entries_.size() != rear_seq_ - front_seq_) {
    return Status::Internal("entry deque size != live range");
  }
  if (live_entries() > options_.n_frames) {
    return Status::Internal("queue over capacity");
  }
  if (staged_count_ > 0 && staged_base_ + staged_count_ != rear_seq_) {
    return Status::Internal("staging range out of sync with rear");
  }
  uint64_t valid_count = 0;
  for (uint64_t seq = front_seq_; seq < rear_seq_; ++seq) {
    const Entry& e = EntryAt(seq);
    if (!e.valid) continue;
    ++valid_count;
    const uint64_t* mapped = newest_.Find(e.page_id);
    if (mapped == nullptr || *mapped != seq) {
      return Status::Internal("valid entry not indexed as newest");
    }
  }
  if (valid_count != newest_.size()) {
    return Status::Internal("newest map size != valid entry count");
  }
  const uint64_t expect_segbuf =
      (rear_seq_ % options_.seg_entries) * FlashMetaEntry::kEncodedSize;
  if (seg_buf_.size() != expect_segbuf) {
    return Status::Internal("segment buffer out of sync with rear");
  }
  FACE_RETURN_IF_ERROR(delta_.CheckInvariants());
  Status chains = Status::OK();
  delta_.ForEachChain([&](PageId pid, const DeltaRing::ChainView& cv) {
    if (!chains.ok()) return;
    const uint64_t* seqp = newest_.Find(pid);
    if (seqp == nullptr || cv.base_tag != *seqp) {
      chains = Status::Internal("delta chain base is not the page's newest");
      return;
    }
    const Entry& e = EntryAt(*seqp);
    if (!e.valid) {
      chains = Status::Internal("delta chain based on an invalid entry");
      return;
    }
    if (cv.len > 0 && cv.tip_lsn != e.lsn) {
      chains = Status::Internal("delta chain tip LSN != entry LSN");
      return;
    }
    if (cv.len > 0 && cv.dirty && !e.dirty) {
      chains = Status::Internal("dirty delta chain on a clean entry");
      return;
    }
  });
  return chains;
}

}  // namespace face
