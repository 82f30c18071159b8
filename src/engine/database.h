// Database facade: wires storage + WAL + buffer pool + cache extension +
// transactions + checkpointing + catalog into one object with a small
// surface. This is the "PostgreSQL" of the reproduction — the substrate the
// FaCE paper modified — and the type examples and the TPC-C driver program
// against.
//
// Lifecycle:
//   Format()   brand-new database (formats WAL, creates the catalog, takes
//              the initial checkpoint)
//   Recover()  restart after a crash: runs full ARIES-style recovery with
//              the cache extension's metadata restored first (FaCE §4.2)
// Either call leaves the system consistent and ready for transactions.
#pragma once

#include <memory>
#include <string_view>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "core/cache_ext.h"
#include "engine/btree.h"
#include "engine/catalog.h"
#include "engine/heap_file.h"
#include "engine/page_writer.h"
#include "recovery/checkpointer.h"
#include "recovery/restart.h"
#include "storage/db_storage.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace face {

/// Sizing knobs for the DRAM side of the database.
struct DatabaseOptions {
  /// DRAM buffer pool size in 4 KB frames (paper: 200 MB = 51200 frames
  /// against a 50 GB database; scaled runs keep the ratio).
  uint32_t buffer_frames = 1024;
};

/// The database engine facade; see file comment. Single-threaded.
class Database {
 public:
  /// All pointers must outlive the database. `cache` decides what happens
  /// to pages evicted from DRAM (NullCache for a cache-less system).
  Database(const DatabaseOptions& options, DbStorage* storage,
           LogManager* log, CacheExtension* cache);

  /// Initialize a brand-new database on empty devices.
  Status Format();

  /// Open over a log formatted just before (Testbed::Start and
  /// examples/custom_policy.cpp clone a golden image, then format a fresh
  /// log): attach the log and load the catalog. A restart after a crash
  /// uses Recover instead.
  Status Open();

  /// Full crash recovery (log attach, cache metadata restore, analysis,
  /// redo, undo, final checkpoint), then catalog reload. Prepared (2PC)
  /// transactions come back in-doubt in the report — see ResolveInDoubt.
  StatusOr<RestartReport> Recover(IoScheduler* sched = nullptr,
                                  uint32_t bg_token = 0);

  /// Resolve this shard's in-doubt transactions (from the Recover report)
  /// against the union of GlobalCommit decisions across every shard's
  /// report, then reload the catalog if there were any. Call after all
  /// shards have recovered, before serving work.
  Status ResolveInDoubt(const std::vector<InDoubtTxn>& in_doubt,
                        const std::vector<uint64_t>& decided,
                        RestartReport* report, IoScheduler* sched = nullptr,
                        uint32_t bg_token = 0);

  // --- transactions ----------------------------------------------------------
  TxnId Begin() { return txns_.Begin(); }
  Status Commit(TxnId txn) { return txns_.Commit(txn); }
  /// Roll `txn` back. If it wrote the catalog page (a heap it grew, a root
  /// it split), undo restored that page's bytes and the in-memory catalog
  /// is reloaded to match; otherwise later inserts would chain on from a
  /// page the undo unlinked.
  Status Abort(TxnId txn);
  /// 2PC: durable participant vote for cross-shard transaction `gtid`.
  Status Prepare(TxnId txn, uint64_t gtid) { return txns_.Prepare(txn, gtid); }
  /// 2PC: the coordinator's durable commit decision for `gtid`.
  Status LogGlobalCommit(TxnId txn, uint64_t gtid) {
    return txns_.LogGlobalCommit(txn, gtid);
  }
  /// PageWriter logging page changes under `txn`.
  PageWriter Writer(TxnId txn) { return PageWriter(&txns_, txn); }
  /// PageWriter for unlogged bulk loads (flush + checkpoint afterwards).
  PageWriter BulkWriter() { return PageWriter(); }

  // --- schema ---------------------------------------------------------------
  StatusOr<HeapFile> CreateTable(PageWriter* writer, std::string_view name) {
    return HeapFile::Create(&pool_, &catalog_, writer, name);
  }
  StatusOr<HeapFile> OpenTable(std::string_view name) {
    return HeapFile::Open(&pool_, &catalog_, name);
  }
  StatusOr<BPlusTree> CreateIndex(PageWriter* writer, std::string_view name) {
    return BPlusTree::Create(&pool_, &catalog_, writer, name);
  }
  StatusOr<BPlusTree> OpenIndex(std::string_view name) {
    return BPlusTree::Open(&pool_, &catalog_, name);
  }

  // --- maintenance ----------------------------------------------------------
  /// Run one database checkpoint; returns the new redo point.
  StatusOr<Lsn> TakeCheckpoint() { return checkpointer_.TakeCheckpoint(); }
  /// Flush everything to disk (clean shutdown) and checkpoint.
  Status CleanShutdown();

  // --- components -----------------------------------------------------------
  BufferPool* pool() { return &pool_; }
  TransactionManager* txns() { return &txns_; }
  Catalog* catalog() { return &catalog_; }
  Checkpointer* checkpointer() { return &checkpointer_; }
  DbStorage* storage() { return storage_; }
  LogManager* log() { return log_; }
  CacheExtension* cache() { return cache_; }

 private:
  DbStorage* storage_;
  LogManager* log_;
  CacheExtension* cache_;
  BufferPool pool_;
  TransactionManager txns_;
  Catalog catalog_;
  Checkpointer checkpointer_;
};

}  // namespace face
