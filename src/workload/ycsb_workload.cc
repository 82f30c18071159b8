#include "workload/ycsb_workload.h"

#include <algorithm>

namespace face {
namespace workload {

const char* YcsbName(YcsbOptions::Distribution d) {
  switch (d) {
    case YcsbOptions::Distribution::kUniform: return "ycsb-uniform";
    case YcsbOptions::Distribution::kZipfian: return "ycsb-zipfian";
    case YcsbOptions::Distribution::kLatest: return "ycsb-latest";
  }
  return "ycsb";
}

namespace {

// FNV-1a style scramble: spreads the Zipfian head across the key space so
// hot keys land on distinct pages (standard YCSB "scrambled zipfian" —
// without it the whole hot set shares a handful of heap pages and the DRAM
// pool hides the flash tier entirely).
uint64_t Scramble(uint64_t v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xff;
    h *= 0x100000001b3ull;
    v >>= 8;
  }
  return h;
}

}  // namespace

YcsbWorkload::YcsbWorkload(const YcsbOptions& options) : opts_(options) {}

const char* YcsbWorkload::txn_type_name(uint8_t type) const {
  switch (type) {
    case kRead: return "Read";
    case kUpdate: return "Update";
    case kInsert: return "Insert";
    case kScan: return "Scan";
  }
  return "?";
}

Status YcsbWorkload::Setup(Database& db, uint64_t seed) {
  FACE_ASSIGN_OR_RETURN(table_, KvTable::Open(db));
  // The Zipfian rank table is over the initially loaded population; inserts
  // extend the key space but not the hot set (standard YCSB behavior). Its
  // zeta sums are computed once per workload; a later Setup only reseeds.
  const uint64_t zipf_seed = seed ^ 0x5ca1ab1e;
  if (zipf_ == nullptr) {
    zipf_ = std::make_unique<ZipfGenerator>(opts_.records, /*theta=*/0.99,
                                            zipf_seed);
  } else {
    zipf_->Reseed(zipf_seed);
  }
  // Recover the insert high-water mark: inserted keys are exactly the index
  // tail at ids >= records, so a post-crash Setup resumes without clashing.
  FACE_ASSIGN_OR_RETURN(inserted_, table_.CountFrom(opts_.records));
  version_ = seed << 20;  // fresh payload versions per incarnation
  // The first Setup binds a fresh clone of the load (every key at version
  // 0); a later one follows a restart, which rolled the stranded
  // transactions back, so their keys are eligible again.
  if (ledger_.versions.empty()) ledger_.versions.assign(opts_.records, 0);
  ledger_.withheld.clear();
  return Status::OK();
}

uint64_t YcsbWorkload::ChooseKey(Random& rnd) {
  const uint64_t population = opts_.records + inserted_;
  uint64_t key = 0;
  switch (opts_.distribution) {
    case YcsbOptions::Distribution::kUniform:
      key = rnd.Uniform(population);
      break;
    case YcsbOptions::Distribution::kZipfian:
      key = Scramble(zipf_->Next()) % opts_.records;
      break;
    case YcsbOptions::Distribution::kLatest:
      // Hottest key = most recently inserted, decaying Zipf-fast backwards.
      key = population - 1 - zipf_->Next();
      break;
  }
  for (uint64_t i = 0; i < population && ledger_.withheld.count(key) != 0;
       ++i) {
    key = (key + 1) % population;
  }
  return key;
}

Status KvLedger::CheckResolved() const {
  if (pending && pending->commit_attempted) {
    return Status::Internal("ycsb: the in-doubt write of key " +
                            std::to_string(pending->key) +
                            " was not resolved by an audit before resuming");
  }
  return Status::OK();
}

StatusOr<uint8_t> YcsbWorkload::NextTxn(Database& db, Random& rnd) {
  FACE_RETURN_IF_ERROR(ledger_.CheckResolved());
  const int roll = static_cast<int>(rnd.Uniform(100));
  uint8_t type;
  Status s;
  if (roll < opts_.pct_read) {
    type = kRead;
    s = DoRead(db, ChooseKey(rnd));
  } else if (roll < opts_.pct_read + opts_.pct_update) {
    type = kUpdate;
    s = DoUpdate(db, ChooseKey(rnd));
  } else if (roll < opts_.pct_read + opts_.pct_update + opts_.pct_insert) {
    type = kInsert;
    s = DoInsert(db);
  } else {
    type = kScan;
    const uint64_t rows = 1 + rnd.Uniform(opts_.max_scan_rows);
    s = DoScan(db, ChooseKey(rnd), rows);
  }
  if (!s.ok()) return s;
  RecordCompleted(type, /*primary=*/true);
  return type;
}

Status YcsbWorkload::DoRead(Database& db, uint64_t key) {
  const TxnId txn = db.Begin();
  Status s = table_.Read(key, &row_);
  if (s.ok()) {
    // The live check: a read must return the key's committed version.
    KvTable::RowTo(&expected_row_, key, opts_.value_bytes,
                   ledger_.VersionOf(key));
    if (row_ != expected_row_) {
      s = Status::Corruption("ycsb: live read of key " + std::to_string(key) +
                             " diverges from committed version " +
                             std::to_string(ledger_.VersionOf(key)));
    }
  }
  if (!s.ok()) {
    FACE_RETURN_IF_ERROR(db.Abort(txn));
    return s;
  }
  ++stats_.rows_read;
  return db.Commit(txn);
}

Status YcsbWorkload::DoUpdate(Database& db, uint64_t key) {
  ledger_.Begin(key, ++version_);
  const TxnId txn = db.Begin();
  PageWriter w = db.Writer(txn);
  const Status s = table_.Update(&w, key, opts_.value_bytes, version_);
  if (!s.ok()) {
    FACE_RETURN_IF_ERROR(db.Abort(txn));
    return s;
  }
  ++stats_.rows_written;
  return CommitPending(db, txn);
}

Status YcsbWorkload::DoInsert(Database& db) {
  const uint64_t key = opts_.records + inserted_;
  ledger_.Begin(key, ++version_);
  const TxnId txn = db.Begin();
  PageWriter w = db.Writer(txn);
  const Status s = table_.Insert(&w, key, opts_.value_bytes, version_);
  if (!s.ok()) {
    FACE_RETURN_IF_ERROR(db.Abort(txn));
    return s;
  }
  ++inserted_;
  ++stats_.rows_written;
  return CommitPending(db, txn);
}

Status YcsbWorkload::CommitPending(Database& db, TxnId txn) {
  ledger_.pending->commit_attempted = true;
  FACE_RETURN_IF_ERROR(db.Commit(txn));  // in flight at a crash: in doubt
  ledger_.Commit();
  return Status::OK();
}

Status YcsbWorkload::DoScan(Database& db, uint64_t key, uint64_t rows) {
  const TxnId txn = db.Begin();
  // The live check: keys are dense, so a scan reads the ledger's keys from
  // `key` on, each at its committed version, until it has `rows` of them
  // or the ledger ends. A withheld key reads as its stranded transaction's
  // uncommitted version, so only its place in the order is checked.
  uint64_t next = key;
  Status s = table_.Scan(key, rows, [&](const std::string& row) {
    const uint64_t version = ledger_.VersionOf(next);
    if (ledger_.withheld.count(next) == 0) {
      KvTable::RowTo(&expected_row_, next, opts_.value_bytes, version);
      if (row != expected_row_) {
        return Status::Corruption("ycsb: scanned row of key " +
                                  std::to_string(next) +
                                  " diverges from committed version " +
                                  std::to_string(version));
      }
    }
    ++next;
    return Status::OK();
  });
  const uint64_t committed = ledger_.versions.size();
  const uint64_t expected = key < committed ? std::min(rows, committed - key)
                                            : 0;
  if (s.ok() && next - key != expected) {
    s = Status::Corruption("ycsb: scan from key " + std::to_string(key) +
                           " read " + std::to_string(next - key) +
                           " rows, the ledger holds " +
                           std::to_string(expected));
  }
  if (!s.ok()) {
    FACE_RETURN_IF_ERROR(db.Abort(txn));
    return s;
  }
  stats_.rows_read += next - key;
  return db.Commit(txn);
}

Status YcsbWorkload::InjectStranded(Database& db, Random& rnd) {
  // An update applied but never committed — the in-flight work a crash
  // strands (recovery must undo it). The ledger keeps the old version.
  const uint64_t key = rnd.Uniform(opts_.records);
  ledger_.withheld.insert(key);
  const TxnId txn = db.Begin();
  PageWriter w = db.Writer(txn);
  return table_.Update(&w, key, opts_.value_bytes, ++version_);
}

Status YcsbWorkload::OnInflightRolledBack(Database& db) {
  (void)db;
  if (ledger_.pending) ledger_.pending->commit_attempted = false;
  return Status::OK();
}

StatusOr<TxnId> YcsbWorkload::BeginCrossShardLeg(Database& db, Random& rnd) {
  FACE_RETURN_IF_ERROR(ledger_.CheckResolved());
  const uint64_t key = ChooseKey(rnd);
  ledger_.Begin(key, ++version_);
  // A prepared leg commits or rolls back with the coordinator's decision,
  // so both versions are legal from the vote on; the sharded storm checks
  // that every leg resolved alike.
  ledger_.pending->commit_attempted = true;
  const TxnId txn = db.Begin();
  PageWriter w = db.Writer(txn);
  FACE_RETURN_IF_ERROR(table_.Update(&w, key, opts_.value_bytes, version_));
  return txn;
}

Status YcsbWorkload::Audit(Database& db, AuditReport* report) {
  (void)db;  // Setup bound table_ to it
  const uint32_t vb = opts_.value_bytes;
  std::string row;
  // Does `key` read back at `version` (kAbsent: not at all)? A NotFound or
  // Corruption is a divergence to record; an IOError means the rig broke.
  auto reads_as = [&](uint64_t key, uint64_t version) -> StatusOr<bool> {
    const Status s = table_.Read(key, &row);
    if (s.IsIOError()) return s;
    if (version == KvLedger::kAbsent) return s.IsNotFound();
    return s.ok() && row == KvTable::Row(key, vb, version);
  };

  // The in-doubt rule: the write the crash cut may show its new version
  // only if its commit was attempted; otherwise it must be rolled back.
  if (ledger_.pending) {
    const KvLedger::Write p = *ledger_.pending;
    FACE_ASSIGN_OR_RETURN(const bool is_new, reads_as(p.key, p.new_version));
    FACE_ASSIGN_OR_RETURN(const bool is_old, reads_as(p.key, p.old_version));
    if (is_new && p.commit_attempted) {
      ledger_.Commit();
      report->pending_outcome = PendingOutcome::kCommitted;
    } else if (is_old) {
      ledger_.pending.reset();
      report->pending_outcome = PendingOutcome::kRolledBack;
    } else {
      ledger_.pending.reset();
      report->AddDivergence(
          "in-doubt write of key " + std::to_string(p.key) + " (commit " +
          (p.commit_attempted ? "attempted" : "never attempted") +
          ") reads as neither a legal new nor its committed version");
    }
  }

  // Row for row: every committed key reads back at its ledger version.
  for (uint64_t key = 0; key < ledger_.versions.size(); ++key) {
    ++report->rows_checked;
    FACE_ASSIGN_OR_RETURN(const bool ok, reads_as(key, ledger_.versions[key]));
    if (!ok) {
      report->AddDivergence("key " + std::to_string(key) +
                            " diverges from committed version " +
                            std::to_string(ledger_.versions[key]));
    }
  }
  // With every ledger key present, an index count equal to the ledger's
  // population rules out phantom keys too.
  const StatusOr<uint64_t> count = table_.CountFrom(0);
  if (!count.ok()) {
    report->AddDivergence("index sweep failed: " + count.status().ToString());
  } else if (*count != ledger_.versions.size()) {
    report->AddDivergence("index holds " + std::to_string(*count) +
                          " keys, the ledger " +
                          std::to_string(ledger_.versions.size()));
  }
  return Status::OK();
}

// --- factory -----------------------------------------------------------------

uint64_t YcsbFactory::CapacityPages() const {
  // Heap rows pack ~kPageSize/2 usable bytes per page at worst; the index
  // adds ~24 bytes per entry. Triple for insert growth plus fixed slack.
  const uint64_t row_bytes = 8 + opts_.value_bytes + 8;
  const uint64_t heap_pages = opts_.records * row_bytes / (kPageSize / 2) + 64;
  const uint64_t index_pages = opts_.records / 64 + 64;
  return (heap_pages + index_pages) * 3 + 8192;
}

Status YcsbFactory::Load(Database& db, uint64_t seed) const {
  (void)seed;  // the load image is deterministic in (records, value_bytes)
  PageWriter bulk = db.BulkWriter();
  FACE_ASSIGN_OR_RETURN(KvTable table, KvTable::Create(db, &bulk));
  FACE_RETURN_IF_ERROR(table.Populate(&bulk, opts_.records, opts_.value_bytes,
                                      opts_.bulk_load));
  // Flush + checkpoint: the on-media image is self-contained from here.
  return db.CleanShutdown();
}

std::unique_ptr<Workload> YcsbFactory::Create() const {
  return std::make_unique<YcsbWorkload>(opts_);
}

std::shared_ptr<const WorkloadFactory> YcsbFactory::Partition(
    uint32_t shard, uint32_t num_shards) const {
  const uint64_t slice = ShardSlice(opts_.records, shard, num_shards);
  if (slice == 0) return nullptr;
  YcsbOptions o = opts_;
  o.records = slice;
  return std::make_shared<YcsbFactory>(o);
}

}  // namespace workload
}  // namespace face
