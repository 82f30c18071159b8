#include "engine/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "common/coding.h"
#include "storage/page.h"

namespace face {

namespace {

// Payload-relative node header offsets (see btree.h).
constexpr uint32_t kLevelOff = 0;
constexpr uint32_t kNKeysOff = 2;
constexpr uint32_t kFreeStartOff = 4;
constexpr uint32_t kFreeEndOff = 6;
constexpr uint32_t kNextOff = 8;
constexpr uint32_t kNodeHeaderSize = 24;
constexpr uint32_t kPayload = kPagePayloadSize;
constexpr uint32_t kSlotSize = 2;

/// Read-only accessors over one node's payload.
class NodeView {
 public:
  explicit NodeView(const char* page) : p_(page + kPageHeaderSize) {}

  uint8_t level() const { return static_cast<uint8_t>(p_[kLevelOff]); }
  bool leaf() const { return level() == 0; }
  uint16_t nkeys() const { return DecodeFixed16(p_ + kNKeysOff); }
  uint16_t free_start() const { return DecodeFixed16(p_ + kFreeStartOff); }
  uint16_t free_end() const { return DecodeFixed16(p_ + kFreeEndOff); }
  uint64_t next_or_leftmost() const { return DecodeFixed64(p_ + kNextOff); }

  uint16_t CellOffset(uint16_t i) const {
    return DecodeFixed16(p_ + kNodeHeaderSize + i * kSlotSize);
  }

  std::string_view Key(uint16_t i) const {
    const char* cell = p_ + CellOffset(i);
    const uint16_t klen = DecodeFixed16(cell);
    return {cell + (leaf() ? 4 : 10), klen};
  }

  std::string_view LeafValue(uint16_t i) const {
    const char* cell = p_ + CellOffset(i);
    const uint16_t klen = DecodeFixed16(cell);
    const uint16_t vlen = DecodeFixed16(cell + 2);
    return {cell + 4 + klen, vlen};
  }

  PageId InternalChild(uint16_t i) const {
    return DecodeFixed64(p_ + CellOffset(i) + 2);
  }

  uint32_t CellSize(uint16_t i) const {
    const char* cell = p_ + CellOffset(i);
    const uint16_t klen = DecodeFixed16(cell);
    return leaf() ? 4u + klen + DecodeFixed16(cell + 2) : 10u + klen;
  }

  /// Contiguous free bytes between the slot array and the cell space.
  uint32_t ContiguousFree() const {
    return free_end() >= free_start() ? free_end() - free_start() : 0;
  }

  /// Free bytes a compaction would yield (contiguous + dead cell space).
  uint32_t TotalFree() const {
    uint32_t used = 0;
    for (uint16_t i = 0; i < nkeys(); ++i) used += CellSize(i);
    return kPayload - kNodeHeaderSize - nkeys() * kSlotSize - used;
  }

  /// First index with Key(i) >= key; `exact` set if Key(i) == key.
  uint16_t LowerBound(std::string_view key, bool* exact) const {
    uint16_t lo = 0, hi = nkeys();
    while (lo < hi) {
      const uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
      if (Key(mid) < key) {
        lo = static_cast<uint16_t>(mid + 1);
      } else {
        hi = mid;
      }
    }
    *exact = lo < nkeys() && Key(lo) == key;
    return lo;
  }

  /// Child to descend into for `key` (internal nodes only).
  PageId Descend(std::string_view key) const {
    bool exact = false;
    const uint16_t lb = LowerBound(key, &exact);
    if (exact) return InternalChild(lb);
    if (lb == 0) return next_or_leftmost();
    return InternalChild(static_cast<uint16_t>(lb - 1));
  }

  const char* payload() const { return p_; }

 private:
  const char* p_;
};

/// Builds a fresh node image in a local buffer; used for formatting,
/// compaction and splits, where rewriting the whole payload (diff-trimmed
/// by the logger) beats surgical byte edits.
class NodeBuilder {
 public:
  NodeBuilder(uint8_t level, uint64_t next_or_leftmost) {
    memset(image_, 0, sizeof(image_));
    image_[kLevelOff] = static_cast<char>(level);
    EncodeFixed64(image_ + kNextOff, next_or_leftmost);
    free_end_ = kPayload;
    leaf_ = level == 0;
  }

  void AppendLeafCell(std::string_view key, std::string_view value) {
    assert(leaf_);
    const uint32_t size = 4 + static_cast<uint32_t>(key.size() + value.size());
    free_end_ -= size;
    char* cell = image_ + free_end_;
    EncodeFixed16(cell, static_cast<uint16_t>(key.size()));
    EncodeFixed16(cell + 2, static_cast<uint16_t>(value.size()));
    memcpy(cell + 4, key.data(), key.size());
    memcpy(cell + 4 + key.size(), value.data(), value.size());
    PushSlot();
  }

  void AppendInternalCell(std::string_view key, PageId child) {
    assert(!leaf_);
    const uint32_t size = 10 + static_cast<uint32_t>(key.size());
    free_end_ -= size;
    char* cell = image_ + free_end_;
    EncodeFixed16(cell, static_cast<uint16_t>(key.size()));
    EncodeFixed64(cell + 2, child);
    memcpy(cell + 10, key.data(), key.size());
    PushSlot();
  }

  /// Finish the header and return the complete payload image.
  const char* Finish() {
    EncodeFixed16(image_ + kNKeysOff, nkeys_);
    EncodeFixed16(image_ + kFreeStartOff,
                  static_cast<uint16_t>(kNodeHeaderSize + nkeys_ * kSlotSize));
    EncodeFixed16(image_ + kFreeEndOff, static_cast<uint16_t>(free_end_));
    return image_;
  }

 private:
  void PushSlot() {
    EncodeFixed16(image_ + kNodeHeaderSize + nkeys_ * kSlotSize,
                  static_cast<uint16_t>(free_end_));
    ++nkeys_;
    assert(kNodeHeaderSize + nkeys_ * kSlotSize <= free_end_);
  }

  char image_[kPayload];
  uint32_t free_end_;
  uint16_t nkeys_ = 0;
  bool leaf_ = false;
};

/// Owned copy of one cell, used while rebuilding nodes whose storage is
/// being overwritten.
struct OwnedCell {
  std::string key;
  std::string value;  // leaf payload
  PageId child = kInvalidPageId;
};

std::vector<OwnedCell> CopyCells(const NodeView& v) {
  std::vector<OwnedCell> cells;
  cells.reserve(v.nkeys());
  for (uint16_t i = 0; i < v.nkeys(); ++i) {
    OwnedCell c;
    c.key = std::string(v.Key(i));
    if (v.leaf()) {
      c.value = std::string(v.LeafValue(i));
    } else {
      c.child = v.InternalChild(i);
    }
    cells.push_back(std::move(c));
  }
  return cells;
}

uint32_t CellBytes(bool leaf, const OwnedCell& c) {
  return leaf ? 4u + static_cast<uint32_t>(c.key.size() + c.value.size())
              : 10u + static_cast<uint32_t>(c.key.size());
}

Status WriteWholeNode(PageWriter* writer, PageHandle* page,
                      const char* image) {
  return writer->Apply(page, kPageHeaderSize, image, kPayload);
}

/// Rebuild `cells` into the (possibly split) node(s). If everything fits in
/// one node, writes it and leaves *right_page untouched. Otherwise splits
/// by bytes, allocates a right sibling, and reports the separator.
/// `rightmost_append` marks the classic ascending-insert pattern (bulk
/// loads, monotonically growing keys): the split then leaves the left node
/// full and starts the right node nearly empty, packing sequential loads to
/// ~100 % instead of 50 %.
Status RebuildOrSplit(PageWriter* writer, BufferPool* pool, PageHandle* page,
                      uint8_t level, uint64_t next_or_leftmost,
                      std::vector<OwnedCell> cells, bool rightmost_append,
                      std::string* split_key, PageId* split_page) {
  const bool leaf = level == 0;
  uint32_t total = 0;
  for (const auto& c : cells) total += CellBytes(leaf, c) + kSlotSize;

  if (total <= kPayload - kNodeHeaderSize) {
    NodeBuilder nb(level, next_or_leftmost);
    for (const auto& c : cells) {
      if (leaf) {
        nb.AppendLeafCell(c.key, c.value);
      } else {
        nb.AppendInternalCell(c.key, c.child);
      }
    }
    return WriteWholeNode(writer, page, nb.Finish());
  }

  // Split: fill the left node up to ~half the payload bytes, or keep it
  // full when the insert is an ascending append. An internal split pushes
  // the cell at `mid` up, so its right node keeps the last cell as its
  // one separator.
  size_t mid;
  if (rightmost_append) {
    mid = cells.size() - (leaf ? 1 : 2);
  } else {
    uint32_t acc = 0;
    mid = 0;
    while (mid < cells.size() - 1) {
      const uint32_t sz = CellBytes(leaf, cells[mid]) + kSlotSize;
      if (acc + sz > (kPayload - kNodeHeaderSize) / 2) break;
      acc += sz;
      ++mid;
    }
  }
  if (mid == 0) mid = 1;  // left node keeps at least one cell

  FACE_ASSIGN_OR_RETURN(PageHandle right, pool->NewPage());
  *split_page = right.page_id();

  if (leaf) {
    // Right leaf takes cells [mid, n); separator = its first key.
    *split_key = cells[mid].key;
    NodeBuilder rb(0, next_or_leftmost);  // inherits the old next-leaf
    for (size_t i = mid; i < cells.size(); ++i) {
      rb.AppendLeafCell(cells[i].key, cells[i].value);
    }
    FACE_RETURN_IF_ERROR(WriteWholeNode(writer, &right, rb.Finish()));

    NodeBuilder lb(0, right.page_id());  // left now chains to right
    for (size_t i = 0; i < mid; ++i) {
      lb.AppendLeafCell(cells[i].key, cells[i].value);
    }
    return WriteWholeNode(writer, page, lb.Finish());
  }

  // Internal: the separator at `mid` is pushed up, its child becomes the
  // right node's leftmost.
  *split_key = cells[mid].key;
  NodeBuilder rb(level, cells[mid].child);
  for (size_t i = mid + 1; i < cells.size(); ++i) {
    rb.AppendInternalCell(cells[i].key, cells[i].child);
  }
  FACE_RETURN_IF_ERROR(WriteWholeNode(writer, &right, rb.Finish()));

  NodeBuilder lb(level, next_or_leftmost);
  for (size_t i = 0; i < mid; ++i) {
    lb.AppendInternalCell(cells[i].key, cells[i].child);
  }
  return WriteWholeNode(writer, page, lb.Finish());
}

}  // namespace

StatusOr<BPlusTree> BPlusTree::Create(BufferPool* pool, Catalog* catalog,
                                      PageWriter* writer,
                                      std::string_view name) {
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool->NewPage());
  NodeBuilder nb(0, 0);  // empty leaf, no next
  FACE_RETURN_IF_ERROR(WriteWholeNode(writer, &page, nb.Finish()));
  FACE_ASSIGN_OR_RETURN(
      uint32_t idx,
      catalog->Create(writer, name, ObjectKind::kBtree, page.page_id()));
  return BPlusTree(pool, catalog, idx);
}

StatusOr<BPlusTree> BPlusTree::Open(BufferPool* pool, Catalog* catalog,
                                    std::string_view name) {
  FACE_ASSIGN_OR_RETURN(uint32_t idx, catalog->Find(name));
  if (catalog->entry(idx).kind != ObjectKind::kBtree) {
    return Status::InvalidArgument("catalog entry is not a btree: " +
                                   std::string(name));
  }
  return BPlusTree(pool, catalog, idx);
}

Status BPlusTree::Insert(PageWriter* writer, std::string_view key,
                         std::string_view value) {
  if (key.empty() || key.size() + value.size() > kMaxEntryBytes) {
    return Status::InvalidArgument("btree entry empty or too large");
  }
  std::string split_key;
  PageId split_page = kInvalidPageId;
  FACE_RETURN_IF_ERROR(
      InsertRec(writer, root_page(), key, value, &split_key, &split_page));
  if (split_page == kInvalidPageId) return Status::OK();

  // Root split: the old root keeps its page (so the catalog's root pointer
  // rarely changes — but it does here, transactionally).
  FACE_ASSIGN_OR_RETURN(PageHandle old_root_page,
                        pool_->FetchPage(root_page()));
  const uint8_t old_level = NodeView(old_root_page.data()).level();
  const PageId old_root = old_root_page.page_id();
  old_root_page.Release();

  FACE_ASSIGN_OR_RETURN(PageHandle new_root, pool_->NewPage());
  NodeBuilder nb(static_cast<uint8_t>(old_level + 1), old_root);
  nb.AppendInternalCell(split_key, split_page);
  FACE_RETURN_IF_ERROR(WriteWholeNode(writer, &new_root, nb.Finish()));
  return catalog_->SetRootPage(writer, idx_, new_root.page_id());
}

Status BPlusTree::InsertRec(PageWriter* writer, PageId page_id,
                            std::string_view key, std::string_view value,
                            std::string* split_key, PageId* split_page) {
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(page_id));
  NodeView v(page.data());

  if (!v.leaf()) {
    const PageId child = v.Descend(key);
    std::string child_split_key;
    PageId child_split_page = kInvalidPageId;
    page.Release();  // no pin across the recursion; repinned if child split
    FACE_RETURN_IF_ERROR(InsertRec(writer, child, key, value,
                                   &child_split_key, &child_split_page));
    if (child_split_page == kInvalidPageId) return Status::OK();

    // Insert the pushed-up separator here.
    FACE_ASSIGN_OR_RETURN(page, pool_->FetchPage(page_id));
    NodeView iv(page.data());
    bool exact = false;
    const uint16_t pos = iv.LowerBound(child_split_key, &exact);
    assert(!exact);
    const uint32_t cell_size =
        10 + static_cast<uint32_t>(child_split_key.size());

    if (iv.ContiguousFree() >= cell_size + kSlotSize) {
      // Fast path: place the cell, splice the slot array, patch the header.
      const uint16_t cell_off =
          static_cast<uint16_t>(iv.free_end() - cell_size);
      std::string cell(cell_size, '\0');
      EncodeFixed16(cell.data(), static_cast<uint16_t>(child_split_key.size()));
      EncodeFixed64(cell.data() + 2, child_split_page);
      memcpy(cell.data() + 10, child_split_key.data(), child_split_key.size());
      FACE_RETURN_IF_ERROR(writer->Apply(
          &page, static_cast<uint16_t>(kPageHeaderSize + cell_off),
          cell.data(), cell_size));

      const uint16_t n = iv.nkeys();
      std::string slots((n - pos + 1) * kSlotSize, '\0');
      EncodeFixed16(slots.data(), cell_off);
      memcpy(slots.data() + kSlotSize,
             page.data() + kPageHeaderSize + kNodeHeaderSize + pos * kSlotSize,
             (n - pos) * static_cast<size_t>(kSlotSize));
      FACE_RETURN_IF_ERROR(writer->Apply(
          &page,
          static_cast<uint16_t>(kPageHeaderSize + kNodeHeaderSize +
                                pos * kSlotSize),
          slots.data(), static_cast<uint32_t>(slots.size())));

      char hdr[6];
      EncodeFixed16(hdr, static_cast<uint16_t>(n + 1));
      EncodeFixed16(hdr + 2, static_cast<uint16_t>(kNodeHeaderSize +
                                                   (n + 1) * kSlotSize));
      EncodeFixed16(hdr + 4, cell_off);
      return writer->Apply(&page,
                           static_cast<uint16_t>(kPageHeaderSize + kNKeysOff),
                           hdr, 6);
    }

    // Slow path: rebuild (compaction), possibly splitting this node too.
    std::vector<OwnedCell> cells = CopyCells(iv);
    OwnedCell sep;
    sep.key = child_split_key;
    sep.child = child_split_page;
    const bool rightmost = pos == iv.nkeys();
    cells.insert(cells.begin() + pos, std::move(sep));
    return RebuildOrSplit(writer, pool_, &page, iv.level(),
                          iv.next_or_leftmost(), std::move(cells), rightmost,
                          split_key, split_page);
  }

  // Leaf.
  bool exact = false;
  const uint16_t pos = v.LowerBound(key, &exact);
  if (exact) return Status::InvalidArgument("duplicate btree key");
  const uint32_t cell_size = 4 + static_cast<uint32_t>(key.size() +
                                                       value.size());

  if (v.ContiguousFree() >= cell_size + kSlotSize) {
    const uint16_t cell_off = static_cast<uint16_t>(v.free_end() - cell_size);
    std::string cell(cell_size, '\0');
    EncodeFixed16(cell.data(), static_cast<uint16_t>(key.size()));
    EncodeFixed16(cell.data() + 2, static_cast<uint16_t>(value.size()));
    memcpy(cell.data() + 4, key.data(), key.size());
    memcpy(cell.data() + 4 + key.size(), value.data(), value.size());
    FACE_RETURN_IF_ERROR(
        writer->Apply(&page, static_cast<uint16_t>(kPageHeaderSize + cell_off),
                      cell.data(), cell_size));

    const uint16_t n = v.nkeys();
    std::string slots((n - pos + 1) * kSlotSize, '\0');
    EncodeFixed16(slots.data(), cell_off);
    memcpy(slots.data() + kSlotSize,
           page.data() + kPageHeaderSize + kNodeHeaderSize + pos * kSlotSize,
           (n - pos) * static_cast<size_t>(kSlotSize));
    FACE_RETURN_IF_ERROR(writer->Apply(
        &page,
        static_cast<uint16_t>(kPageHeaderSize + kNodeHeaderSize +
                              pos * kSlotSize),
        slots.data(), static_cast<uint32_t>(slots.size())));

    char hdr[6];
    EncodeFixed16(hdr, static_cast<uint16_t>(n + 1));
    EncodeFixed16(hdr + 2,
                  static_cast<uint16_t>(kNodeHeaderSize + (n + 1) * kSlotSize));
    EncodeFixed16(hdr + 4, cell_off);
    return writer->Apply(&page,
                         static_cast<uint16_t>(kPageHeaderSize + kNKeysOff),
                         hdr, 6);
  }

  std::vector<OwnedCell> cells = CopyCells(v);
  OwnedCell fresh;
  fresh.key = std::string(key);
  fresh.value = std::string(value);
  const bool rightmost = pos == v.nkeys() && v.next_or_leftmost() == 0;
  cells.insert(cells.begin() + pos, std::move(fresh));
  return RebuildOrSplit(writer, pool_, &page, 0, v.next_or_leftmost(),
                        std::move(cells), rightmost, split_key, split_page);
}

Status BPlusTree::BulkLoad(PageWriter* writer, const EntrySource& source) {
  // Usable payload bytes per node (cells + slot array).
  constexpr uint32_t kUsable = kPayload - kNodeHeaderSize;

  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(root_page()));
  {
    NodeView v(page.data());
    if (!v.leaf() || v.nkeys() != 0) {
      return Status::InvalidArgument("bulk load requires an empty btree");
    }
  }

  // Reset to an empty tree on a mid-load error: leaves already written
  // would otherwise be reachable through the leaf chain but not through
  // the (never-updated) root — scans and point reads would disagree.
  auto fail = [&](Status s) -> Status {
    auto root = pool_->FetchPage(root_page());
    if (root.ok()) {
      NodeBuilder nb(0, 0);
      (void)WriteWholeNode(writer, &root.value(), nb.Finish());
    }
    return s;
  };

  // (first key, page id) of every node on the level under construction;
  // starts as the leaf level. OwnedCell.child doubles as the page id.
  std::vector<OwnedCell> level;

  // --- leaves, left to right, chained as they are built ---------------------
  // The first leaf reuses the existing empty root page; each subsequent
  // leaf page is allocated one step ahead so the chain pointer is known
  // when the node image is finished.
  std::string key, value, prev_key;
  bool pending = source(&key, &value);
  while (pending) {
    std::vector<OwnedCell> cells;
    uint32_t used = 0;
    while (pending) {
      if (key.empty() || key.size() + value.size() > kMaxEntryBytes) {
        return fail(Status::InvalidArgument("btree entry empty or too large"));
      }
      if (!prev_key.empty() && !(prev_key < key)) {
        return fail(Status::InvalidArgument("bulk load keys not ascending"));
      }
      const uint32_t sz =
          4 + static_cast<uint32_t>(key.size() + value.size()) + kSlotSize;
      if (!cells.empty() && used + sz > kUsable) break;
      used += sz;
      OwnedCell c;
      c.key = std::move(key);
      c.value = std::move(value);
      prev_key = c.key;
      cells.push_back(std::move(c));
      pending = source(&key, &value);
    }

    PageHandle next_page;
    uint64_t next_leaf = 0;
    if (pending) {
      FACE_ASSIGN_OR_RETURN(next_page, pool_->NewPage());
      next_leaf = next_page.page_id();
    }
    NodeBuilder nb(0, next_leaf);
    for (const auto& c : cells) nb.AppendLeafCell(c.key, c.value);
    FACE_RETURN_IF_ERROR(WriteWholeNode(writer, &page, nb.Finish()));

    OwnedCell sep;
    sep.key = std::move(cells.front().key);
    sep.child = page.page_id();
    level.push_back(std::move(sep));
    page = std::move(next_page);
  }
  if (level.size() <= 1) return Status::OK();  // empty or single-leaf root

  // --- internal levels, bottom up -------------------------------------------
  for (uint8_t lvl = 1; level.size() > 1; ++lvl) {
    std::vector<OwnedCell> parent;
    size_t i = 0;
    while (i < level.size()) {
      NodeBuilder nb(lvl, level[i].child);
      OwnedCell sep;
      sep.key = std::move(level[i].key);
      ++i;
      uint32_t used = 0;
      while (i < level.size()) {
        const uint32_t sz =
            10 + static_cast<uint32_t>(level[i].key.size()) + kSlotSize;
        if (used + sz > kUsable) break;
        if (i + 2 == level.size()) {
          // Never strand a lone child for the next node: alone it could not
          // form a valid internal node (one is needed as the leftmost, a
          // second as its separator cell). Keep the last two together.
          const uint32_t last_sz =
              10 + static_cast<uint32_t>(level[i + 1].key.size()) + kSlotSize;
          if (used + sz + last_sz > kUsable) break;
        }
        nb.AppendInternalCell(level[i].key, level[i].child);
        used += sz;
        ++i;
      }
      FACE_ASSIGN_OR_RETURN(PageHandle node, pool_->NewPage());
      FACE_RETURN_IF_ERROR(WriteWholeNode(writer, &node, nb.Finish()));
      sep.child = node.page_id();
      parent.push_back(std::move(sep));
    }
    level = std::move(parent);
  }
  return catalog_->SetRootPage(writer, idx_, level.front().child);
}

StatusOr<PageId> BPlusTree::FindLeaf(std::string_view key) const {
  PageId page_id = root_page();
  while (true) {
    FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(page_id));
    NodeView v(page.data());
    if (v.leaf()) return page_id;
    page_id = v.Descend(key);
  }
}

Status BPlusTree::Get(std::string_view key, std::string* out) const {
  FACE_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(leaf_id));
  NodeView v(page.data());
  bool exact = false;
  const uint16_t pos = v.LowerBound(key, &exact);
  if (!exact) return Status::NotFound("btree key absent");
  const std::string_view value = v.LeafValue(pos);
  out->assign(value.data(), value.size());
  return Status::OK();
}

Status BPlusTree::Delete(PageWriter* writer, std::string_view key) {
  FACE_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(leaf_id));
  NodeView v(page.data());
  bool exact = false;
  const uint16_t pos = v.LowerBound(key, &exact);
  if (!exact) return Status::NotFound("btree key absent");

  // Splice the slot out; the cell bytes become dead space reclaimed by the
  // next compaction of this node.
  const uint16_t n = v.nkeys();
  if (pos + 1 < n) {
    std::string slots((n - pos - 1) * kSlotSize, '\0');
    memcpy(slots.data(),
           page.data() + kPageHeaderSize + kNodeHeaderSize +
               (pos + 1) * kSlotSize,
           slots.size());
    FACE_RETURN_IF_ERROR(writer->Apply(
        &page,
        static_cast<uint16_t>(kPageHeaderSize + kNodeHeaderSize +
                              pos * kSlotSize),
        slots.data(), static_cast<uint32_t>(slots.size())));
  }
  char hdr[4];
  EncodeFixed16(hdr, static_cast<uint16_t>(n - 1));
  EncodeFixed16(hdr + 2,
                static_cast<uint16_t>(kNodeHeaderSize + (n - 1) * kSlotSize));
  return writer->Apply(&page,
                       static_cast<uint16_t>(kPageHeaderSize + kNKeysOff), hdr,
                       4);
}

// --- Iterator ---------------------------------------------------------------

std::string_view BPlusTree::Iterator::key() const {
  return NodeView(page_.data()).Key(slot_);
}

std::string_view BPlusTree::Iterator::value() const {
  return NodeView(page_.data()).LeafValue(slot_);
}

Status BPlusTree::Iterator::Next() {
  ++slot_;
  return SkipEmptyLeaves();
}

Status BPlusTree::Iterator::SkipEmptyLeaves() {
  while (page_.valid()) {
    NodeView v(page_.data());
    if (slot_ < v.nkeys()) return Status::OK();
    const uint64_t next = v.next_or_leftmost();
    page_.Release();
    if (next == 0) return Status::OK();  // end of the index
    FACE_ASSIGN_OR_RETURN(page_, pool_->FetchPage(next));
    slot_ = 0;
  }
  return Status::OK();
}

StatusOr<BPlusTree::Iterator> BPlusTree::Seek(std::string_view key) const {
  FACE_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  Iterator it(pool_);
  FACE_ASSIGN_OR_RETURN(it.page_, pool_->FetchPage(leaf_id));
  bool exact = false;
  it.slot_ = NodeView(it.page_.data()).LowerBound(key, &exact);
  FACE_RETURN_IF_ERROR(it.SkipEmptyLeaves());
  return it;
}

StatusOr<BPlusTree::Iterator> BPlusTree::SeekFirst() const {
  PageId page_id = root_page();
  while (true) {
    FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(page_id));
    NodeView v(page.data());
    if (v.leaf()) break;
    page_id = v.next_or_leftmost();
  }
  Iterator it(pool_);
  FACE_ASSIGN_OR_RETURN(it.page_, pool_->FetchPage(page_id));
  it.slot_ = 0;
  FACE_RETURN_IF_ERROR(it.SkipEmptyLeaves());
  return it;
}

// --- Introspection ----------------------------------------------------------

StatusOr<uint32_t> BPlusTree::Height() const {
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(root_page()));
  return static_cast<uint32_t>(NodeView(page.data()).level()) + 1;
}

StatusOr<uint64_t> BPlusTree::CountEntries() const {
  FACE_ASSIGN_OR_RETURN(Iterator it, SeekFirst());
  uint64_t n = 0;
  while (it.Valid()) {
    ++n;
    FACE_RETURN_IF_ERROR(it.Next());
  }
  return n;
}

struct BPlusTree::CheckWalk {
  bool past_first_leaf = false;
  PageId next_leaf = 0;  ///< the chain link of the last leaf walked
  std::vector<std::pair<uint16_t, uint32_t>> extents;  ///< one node's cells
};

Status BPlusTree::CheckInvariants() const {
  // Delete never unlinks a leaf, so the chain must link every leaf in the
  // walk's order and end at the last one. Key order across leaves follows
  // from the separator bounds.
  CheckWalk walk;
  FACE_RETURN_IF_ERROR(CheckNode(root_page(), {}, {}, -1, &walk));
  if (walk.next_leaf != 0) {
    return Status::Corruption("btree leaf chain runs past the last leaf");
  }
  return Status::OK();
}

Status BPlusTree::CheckNode(PageId page_id, std::string_view lo,
                            std::string_view hi, int expect_level,
                            CheckWalk* walk) const {
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(page_id));
  NodeView v(page.data());

  if (expect_level >= 0 && v.level() != expect_level) {
    return Status::Corruption("btree level mismatch");
  }
  if (v.free_start() != kNodeHeaderSize + v.nkeys() * kSlotSize) {
    return Status::Corruption("btree slot accounting wrong");
  }
  if (v.free_end() < v.free_start() || v.free_end() > kPayload) {
    return Status::Corruption("btree free space inverted");
  }

  std::vector<std::pair<uint16_t, uint32_t>>& extents = walk->extents;
  extents.clear();
  for (uint16_t i = 0; i < v.nkeys(); ++i) {
    const std::string_view k = v.Key(i);
    if (i > 0 && !(v.Key(i - 1) < k)) {
      return Status::Corruption("btree keys out of order");
    }
    if (!lo.empty() && k < lo) return Status::Corruption("key below bound");
    if (!hi.empty() && !(k < hi)) return Status::Corruption("key above bound");
    const uint16_t off = v.CellOffset(i);
    const uint32_t size = v.CellSize(i);
    if (off < v.free_end() || off + size > kPayload) {
      return Status::Corruption("btree cell outside cell space");
    }
    extents.emplace_back(off, size);
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i - 1].first + extents[i - 1].second > extents[i].first) {
      return Status::Corruption("btree cells overlap");
    }
  }

  if (v.leaf()) {
    if (walk->past_first_leaf && walk->next_leaf != page_id) {
      return Status::Corruption("btree leaf chain out of order");
    }
    walk->past_first_leaf = true;
    walk->next_leaf = v.next_or_leftmost();
    return Status::OK();
  }

  // Recurse into children with tightened bounds. Copy what we need first:
  // the child fetches below may evict this very page.
  const uint16_t n = v.nkeys();
  if (n == 0) return Status::Corruption("internal node with no separators");
  const PageId leftmost = v.next_or_leftmost();
  const int child_level = v.level() - 1;
  std::vector<std::string> keys;
  std::vector<PageId> children;
  for (uint16_t i = 0; i < n; ++i) {
    keys.emplace_back(v.Key(i));
    children.push_back(v.InternalChild(i));
  }
  page.Release();

  FACE_RETURN_IF_ERROR(CheckNode(leftmost, lo, keys[0], child_level, walk));
  for (uint16_t i = 0; i < n; ++i) {
    const std::string_view child_hi =
        i + 1 < n ? std::string_view(keys[i + 1]) : hi;
    FACE_RETURN_IF_ERROR(
        CheckNode(children[i], keys[i], child_hi, child_level, walk));
  }
  return Status::OK();
}

}  // namespace face
