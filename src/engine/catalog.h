// Persistent catalog: name -> {kind, root/first/last page} for every table
// and index, stored in fixed-width slots on a dedicated catalog page (always
// page 0 of the database). Mutations go through a PageWriter like any other
// page change, so catalog updates made by a transaction (a heap growing a
// page, a B+tree root split) are WAL-logged with it and recovered with it;
// a rollback that undid them reloads the entries (Database::Abort).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "engine/page_writer.h"

namespace face {

/// What a catalog entry describes.
enum class ObjectKind : uint8_t {
  kFree = 0,   ///< empty slot
  kHeap = 1,   ///< heap file: first/last page of the chain
  kBtree = 2,  ///< B+tree index: root page
};

/// One catalog slot (64 bytes on media).
struct CatalogEntry {
  static constexpr uint32_t kNameWidth = 31;
  static constexpr uint32_t kEncodedSize = 64;

  std::string name;
  ObjectKind kind = ObjectKind::kFree;
  PageId root_page = kInvalidPageId;   ///< btree root / heap first page
  PageId last_page = kInvalidPageId;   ///< heap append target
  uint64_t row_count = 0;              ///< heap row count (approximate is
                                       ///< fine; maintained transactionally)
};

/// Catalog over page `kCatalogPageId`; see file comment. Single-threaded.
class Catalog {
 public:
  /// The catalog always lives on the first database page.
  static constexpr PageId kCatalogPageId = 0;

  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  /// Format a brand-new catalog page (claims page 0 from the allocator;
  /// call exactly once per database lifetime, before any table exists).
  Status Format(PageWriter* writer);

  /// Load the directory from the catalog page (open / restart path).
  Status Load();

  /// Create an entry; fails if the name exists or the page is full.
  StatusOr<uint32_t> Create(PageWriter* writer, std::string_view name,
                            ObjectKind kind, PageId root_page);

  /// Index of `name`, or NotFound.
  StatusOr<uint32_t> Find(std::string_view name) const;

  /// Entry accessors by index (valid after Load/Create).
  const CatalogEntry& entry(uint32_t idx) const { return entries_[idx]; }
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }

  /// Persist a new root page (B+tree root split).
  Status SetRootPage(PageWriter* writer, uint32_t idx, PageId root);
  /// Persist a new heap tail page.
  Status SetLastPage(PageWriter* writer, uint32_t idx, PageId last);
  /// Persist a row-count delta (+1 insert, -1 delete).
  Status AddRowCount(PageWriter* writer, uint32_t idx, int64_t delta);

  /// All entry names, in slot order (introspection / tools).
  std::vector<std::string> Names() const;

 private:
  /// Byte offset of slot `idx` within the page payload.
  static uint32_t SlotOffset(uint32_t idx) {
    return idx * CatalogEntry::kEncodedSize;
  }
  Status WriteEntry(PageWriter* writer, uint32_t idx);

  BufferPool* pool_;
  std::vector<CatalogEntry> entries_;
  /// name -> slot index, kept sorted by name (binary search; deterministic
  /// iteration order, unlike a hash map).
  std::vector<std::pair<std::string, uint32_t>> by_name_;
};

}  // namespace face
