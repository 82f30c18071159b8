// One KV table over the existing engine: a heap file holding fixed-width
// rows plus a B+tree primary index mapping the order-preserving key
// encoding to heap Rids — the same table-plus-index wiring TPC-C uses, with
// a YCSB-shaped schema ("user<id>" -> opaque payload).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "engine/btree.h"
#include "engine/database.h"
#include "engine/heap_file.h"

namespace face {
namespace workload {

/// The KV table handles; see file comment.
struct KvTable {
  static constexpr const char* kTableName = "kv";
  static constexpr const char* kIndexName = "pk_kv";

  HeapFile rows;
  BPlusTree pk;

  /// Create the table and index in a fresh database.
  static StatusOr<KvTable> Create(Database& db, PageWriter* writer);
  /// Open them from the catalog.
  static StatusOr<KvTable> Open(Database& db);

  /// Order-preserving index key of logical key id `id`.
  static std::string Key(uint64_t id);
  /// Deterministic row image of `id`: 8-byte id header + pseudo-random
  /// payload, `value_bytes` total payload (fixed width, so updates are
  /// equal-length in-place overwrites). `version` varies the payload.
  static std::string Row(uint64_t id, uint32_t value_bytes, uint64_t version);
  /// Row(), encoded into a caller-owned buffer — the hot-path flavor;
  /// Insert/Update reuse `row_scratch` so steady state never allocates.
  static void RowTo(std::string* out, uint64_t id, uint32_t value_bytes,
                    uint64_t version);
  /// Eight payload letters from one generator draw: byte k of the result
  /// (little-endian) is 'a' + (byte k of `draw`) % 26.
  static uint64_t Letters(uint64_t draw);

  /// Insert `id`'s row and index entry.
  Status Insert(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                uint64_t version);
  /// Populate ids [0, records) in one pass: heap rows appended in id order,
  /// the index built through the sorted B+tree bulk-load path (same row
  /// images as `records` Insert calls, far fewer page touches). The table
  /// must be freshly created.
  Status BulkLoad(PageWriter* writer, uint64_t records, uint32_t value_bytes);
  /// Populate ids [0, records) through either load path — the shared
  /// factory Load() body of the KV workloads. `bulk` selects BulkLoad;
  /// false replays the per-record insert path (see YcsbOptions::bulk_load).
  Status Populate(PageWriter* writer, uint64_t records, uint32_t value_bytes,
                  bool bulk);
  /// Point-read `id` into `out`; NotFound if absent.
  Status Read(uint64_t id, std::string* out) const;
  /// Overwrite `id`'s row in place with a new version.
  Status Update(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                uint64_t version);
  /// Range-scan up to `max_rows` rows starting at the first key >= `id`,
  /// reading each row through the heap and handing it to `fn` in key
  /// order. A non-OK status from `fn` ends the scan and is returned.
  Status Scan(uint64_t id, uint64_t max_rows,
              const std::function<Status(const std::string& row)>& fn) const;

  /// Count entries with key id >= `from_id` (cheap tail count used to
  /// recover the insert high-water mark after a crash).
  StatusOr<uint64_t> CountFrom(uint64_t from_id) const;

  /// Reused row-image buffer for the mutation hot paths (the ~8-16 byte
  /// key/rid strings stay in SSO and need no such treatment).
  std::string row_scratch;
};

}  // namespace workload
}  // namespace face
