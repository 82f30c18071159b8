// Logical digest of a database: every live heap row and every B+tree entry
// of every catalog object, hashed per entry, plus the structural audits
// (B+tree CheckInvariants, the cache policy's CheckInvariants). Two
// databases that ran the same committed transactions hold the same logical
// state whatever cache policy sat under them, so comparing the digest of a
// crashed-and-recovered database against an uncrashed twin checks
// durability and atomicity row for row.
//
// The B+tree audit is compared, not required: the engine can build trees
// the audit rejects without any crash (README.md, "Known defects"), so only
// an audit outcome that differs from the twin's counts as a mismatch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/database.h"

namespace face {
namespace bench {
namespace e2e {

/// One catalog object: (position key, content hash) pairs sorted by key.
/// Heaps key by Rid, B+trees by a hash of the entry key.
struct DigestObject {
  std::string name;
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  std::string audit;  ///< B+tree CheckInvariants failure ("" = passed)
};

struct Digest {
  std::vector<DigestObject> objects;  ///< catalog slot order

  uint64_t entry_count() const {
    uint64_t n = 0;
    for (const DigestObject& o : objects) n += o.entries.size();
    return n;
  }
};

inline uint64_t HashBytes(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes);
}

/// Walk every object of `db`'s catalog. Reads go through the buffer pool
/// and the cache policy, exactly like transactions do — callers switch
/// device timing off first so the walk charges no virtual time.
inline StatusOr<Digest> TakeDigest(Database* db) {
  Digest digest;
  Catalog* catalog = db->catalog();
  for (uint32_t i = 0; i < catalog->size(); ++i) {
    const CatalogEntry& entry = catalog->entry(i);
    if (entry.kind == ObjectKind::kFree) continue;
    DigestObject obj;
    obj.name = entry.name;
    if (entry.kind == ObjectKind::kHeap) {
      const HeapFile heap(db->pool(), catalog, i);
      FACE_RETURN_IF_ERROR(heap.Scan([&](Rid rid, std::string_view row) {
        obj.entries.emplace_back((rid.page_id << 16) | rid.slot,
                                 HashBytes(row));
        return true;
      }));
    } else {
      FACE_ASSIGN_OR_RETURN(BPlusTree tree, db->OpenIndex(entry.name));
      const Status audit = tree.CheckInvariants();
      if (!audit.ok()) obj.audit = audit.ToString();
      FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, tree.SeekFirst());
      while (it.Valid()) {
        obj.entries.emplace_back(HashBytes(it.key()), HashBytes(it.value()));
        FACE_RETURN_IF_ERROR(it.Next());
      }
    }
    std::sort(obj.entries.begin(), obj.entries.end());
    digest.objects.push_back(std::move(obj));
  }
  FACE_RETURN_IF_ERROR(db->cache()->CheckInvariants());
  return digest;
}

/// Entries that differ between `a` and `b`: a key present on one side only,
/// or present on both with different content, counts once, and so does an
/// object whose B+tree audit outcome differs. An object missing from one
/// side counts all of its entries (at least one).
inline uint64_t CountMismatches(const Digest& a, const Digest& b) {
  uint64_t mismatches = 0;
  auto find = [](const Digest& d, const std::string& name) {
    for (const DigestObject& o : d.objects) {
      if (o.name == name) return &o;
    }
    return static_cast<const DigestObject*>(nullptr);
  };
  for (const DigestObject& x : a.objects) {
    const DigestObject* y = find(b, x.name);
    if (y == nullptr) {
      mismatches += std::max<uint64_t>(1, x.entries.size());
      continue;
    }
    if (x.audit != y->audit) ++mismatches;
    size_t i = 0, j = 0;
    while (i < x.entries.size() || j < y->entries.size()) {
      if (j == y->entries.size() ||
          (i < x.entries.size() && x.entries[i].first < y->entries[j].first)) {
        ++mismatches, ++i;
      } else if (i == x.entries.size() ||
                 y->entries[j].first < x.entries[i].first) {
        ++mismatches, ++j;
      } else {
        if (x.entries[i].second != y->entries[j].second) ++mismatches;
        ++i, ++j;
      }
    }
  }
  for (const DigestObject& y : b.objects) {
    if (find(a, y.name) == nullptr) {
      mismatches += std::max<uint64_t>(1, y.entries.size());
    }
  }
  return mismatches;
}

/// Self-test sabotage: rewrite the first live row of the first heap with
/// one byte flipped, in a committed transaction. The digest check must then
/// report exactly one mismatch.
inline Status CorruptOneRow(Database* db) {
  Catalog* catalog = db->catalog();
  for (uint32_t i = 0; i < catalog->size(); ++i) {
    if (catalog->entry(i).kind != ObjectKind::kHeap) continue;
    HeapFile heap(db->pool(), catalog, i);
    Rid victim{kInvalidPageId, 0};
    std::string row;
    FACE_RETURN_IF_ERROR(heap.Scan([&](Rid rid, std::string_view rec) {
      victim = rid;
      row.assign(rec);
      return false;
    }));
    if (victim.page_id == kInvalidPageId || row.empty()) continue;
    row.back() = static_cast<char>(row.back() ^ 0x5a);
    const TxnId txn = db->Begin();
    PageWriter writer = db->Writer(txn);
    FACE_RETURN_IF_ERROR(heap.Update(&writer, victim, row));
    return db->Commit(txn);
  }
  return Status::NotFound("no heap row to corrupt");
}

}  // namespace e2e
}  // namespace bench
}  // namespace face
