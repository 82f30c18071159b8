// B+tree index with variable-length byte-string keys and values.
//
// Keys compare by memcmp (use KeyCodec to build order-preserving composite
// keys). Leaves are chained for range scans. Inserts split full nodes
// bottom-up; the root split grows the tree and records the new root in the
// catalog within the same transaction. Deletes remove entries without
// rebalancing — nodes may run empty but never disappear, which is the
// classic lazy-deletion trade (B-link trees, PostgreSQL pre-vacuum) and is
// harmless for the grow-mostly workloads this engine targets.
//
// Node layout (payload-relative):
//   header (24 B): [u8 level][u8 flags][u16 nkeys][u16 free_start]
//                  [u16 free_end][u64 next_or_leftmost][u64 reserved]
//     level 0 = leaf; next_or_leftmost is the next-leaf page for leaves and
//     the leftmost child for internal nodes.
//   slot array: u16 cell offset per key, sorted by key.
//   cells, growing down from the payload end:
//     leaf:     [u16 klen][u16 vlen][key][value]
//     internal: [u16 klen][u64 child][key]  — child covers keys >= key,
//               up to the next separator; the leftmost child covers keys
//               below the first separator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "engine/page_writer.h"

namespace face {

/// B+tree handle; see file comment. Single-threaded.
class BPlusTree {
 public:
  /// Largest key+value an entry may carry (keeps >= 4 cells per node).
  static constexpr uint32_t kMaxEntryBytes = 960;

  /// Invalid handle; assign from Create/Open before use.
  BPlusTree() = default;

  /// Create an empty tree (root = single empty leaf) named `name`.
  static StatusOr<BPlusTree> Create(BufferPool* pool, Catalog* catalog,
                                    PageWriter* writer, std::string_view name);

  /// Open an existing tree by name.
  static StatusOr<BPlusTree> Open(BufferPool* pool, Catalog* catalog,
                                  std::string_view name);

  /// Insert a new entry. Duplicate keys are rejected (InvalidArgument).
  Status Insert(PageWriter* writer, std::string_view key,
                std::string_view value);

  /// Pulls the next entry during BulkLoad: fill `key`/`value` and return
  /// true, or return false when the input is exhausted.
  using EntrySource = std::function<bool(std::string* key, std::string* value)>;

  /// Sorted bulk load into an EMPTY tree: builds leaves left-to-right from
  /// strictly ascending entries (no top-down descents, no splits), packs
  /// them to ~100 %, then builds each internal level bottom-up. Leaves come
  /// out device-contiguous, which incremental insertion cannot achieve.
  /// Rejects a non-empty tree, out-of-order or duplicate keys, and
  /// oversized entries — on such an input error the tree is reset to
  /// empty (never left half-built). A `source` that simply stops
  /// returning entries leaves the tree consistent with exactly the
  /// entries consumed so far.
  Status BulkLoad(PageWriter* writer, const EntrySource& source);

  /// Remove `key`. NotFound if absent.
  Status Delete(PageWriter* writer, std::string_view key);

  /// Point lookup: copy the value of `key` into `out`.
  Status Get(std::string_view key, std::string* out) const;

  /// Forward scanner over leaf entries. Pins one leaf at a time; do not
  /// mutate the tree while an iterator is live.
  class Iterator {
   public:
    /// True if positioned on an entry.
    bool Valid() const { return page_.valid(); }
    /// Current key (valid until Next/destruction).
    std::string_view key() const;
    /// Current value (valid until Next/destruction).
    std::string_view value() const;
    /// Advance to the next entry in key order.
    Status Next();

   private:
    friend class BPlusTree;
    Iterator(const BufferPool* pool) : pool_(const_cast<BufferPool*>(pool)) {}
    /// Follow next-leaf links until a non-empty leaf or the end.
    Status SkipEmptyLeaves();

    BufferPool* pool_;
    PageHandle page_;
    uint16_t slot_ = 0;
  };

  /// Position at the first entry with key >= `key`.
  StatusOr<Iterator> Seek(std::string_view key) const;
  /// Position at the smallest entry.
  StatusOr<Iterator> SeekFirst() const;

  PageId root_page() const { return catalog_->entry(idx_).root_page; }
  const std::string& name() const { return catalog_->entry(idx_).name; }

  /// Levels above the leaves + 1 (a lone leaf has height 1).
  StatusOr<uint32_t> Height() const;
  /// Total live entries (walks every leaf).
  StatusOr<uint64_t> CountEntries() const;

  /// Full-tree structural audit in one walk: sortedness within nodes,
  /// separator bracketing, a leaf chain that links the leaves in key
  /// order, free-space accounting. For tests and workload audits.
  Status CheckInvariants() const;

 private:
  BPlusTree(BufferPool* pool, Catalog* catalog, uint32_t catalog_idx)
      : pool_(pool), catalog_(catalog), idx_(catalog_idx) {}

  /// Recursive insert. If the child splits, returns the separator and new
  /// right page through `split_key`/`split_page` (split_page != invalid).
  Status InsertRec(PageWriter* writer, PageId page_id, std::string_view key,
                   std::string_view value, std::string* split_key,
                   PageId* split_page);

  /// Descend to the leaf that would hold `key`.
  StatusOr<PageId> FindLeaf(std::string_view key) const;

  /// What CheckInvariants' walk carries from node to node.
  struct CheckWalk;
  Status CheckNode(PageId page_id, std::string_view lo, std::string_view hi,
                   int expect_level, CheckWalk* walk) const;

  BufferPool* pool_ = nullptr;
  Catalog* catalog_ = nullptr;
  uint32_t idx_ = 0;
};

}  // namespace face
