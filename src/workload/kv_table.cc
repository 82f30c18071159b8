#include "workload/kv_table.h"

#include <array>

#include "common/coding.h"
#include "engine/key_codec.h"

namespace face {
namespace workload {

StatusOr<KvTable> KvTable::Create(Database& db, PageWriter* writer) {
  KvTable t;
  FACE_ASSIGN_OR_RETURN(t.rows, db.CreateTable(writer, kTableName));
  FACE_ASSIGN_OR_RETURN(t.pk, db.CreateIndex(writer, kIndexName));
  return t;
}

StatusOr<KvTable> KvTable::Open(Database& db) {
  KvTable t;
  FACE_ASSIGN_OR_RETURN(t.rows, db.OpenTable(kTableName));
  FACE_ASSIGN_OR_RETURN(t.pk, db.OpenIndex(kIndexName));
  return t;
}

std::string KvTable::Key(uint64_t id) {
  return KeyCodec().AppendU64(id).Take();
}

std::string KvTable::Row(uint64_t id, uint32_t value_bytes, uint64_t version) {
  std::string row;
  RowTo(&row, id, value_bytes, version);
  return row;
}

void KvTable::RowTo(std::string* out, uint64_t id, uint32_t value_bytes,
                    uint64_t version) {
  out->resize(8 + value_bytes);
  EncodeFixed64(out->data(), id);
  // Deterministic payload bytes from (id, version) — replays reproduce the
  // exact on-media image without storing it anywhere. Eight letters per
  // generator draw, each looked up in a table: this runs once per row of
  // every KV population and once per YCSB read (its live check), where a
  // draw or a modulo per byte would dominate host time.
  static constexpr std::array<char, 256> kLetter = [] {
    std::array<char, 256> t{};
    for (int b = 0; b < 256; ++b) t[b] = static_cast<char>('a' + b % 26);
    return t;
  }();
  Random payload(id * 0x9e3779b97f4a7c15ull ^ version);
  char* p = out->data() + 8;
  uint32_t i = 0;
  for (; i + 8 <= value_bytes; i += 8) {
    const uint64_t draw = payload.Next();
    for (int k = 0; k < 8; ++k) p[i + k] = kLetter[(draw >> (8 * k)) & 0xff];
  }
  for (; i < value_bytes; ++i) p[i] = kLetter[payload.Next() & 0xff];
}

Status KvTable::Insert(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                       uint64_t version) {
  RowTo(&row_scratch, id, value_bytes, version);
  FACE_ASSIGN_OR_RETURN(Rid rid, rows.Insert(writer, row_scratch));
  return pk.Insert(writer, Key(id), EncodeRid(rid));
}

Status KvTable::BulkLoad(PageWriter* writer, uint64_t records,
                         uint32_t value_bytes) {
  uint64_t id = 0;
  Status heap_status;
  // Heap append and index build share one pass: the source callback
  // inserts the row, then hands its (key, rid) to the tree builder.
  const Status s = pk.BulkLoad(
      writer, [&](std::string* key, std::string* value) -> bool {
        if (id >= records) return false;
        RowTo(&row_scratch, id, value_bytes, /*version=*/0);
        StatusOr<Rid> rid = rows.Insert(writer, row_scratch);
        if (!rid.ok()) {
          heap_status = rid.status();
          return false;
        }
        *key = Key(id);
        *value = EncodeRid(*rid);
        ++id;
        return true;
      });
  FACE_RETURN_IF_ERROR(heap_status);
  return s;
}

Status KvTable::Populate(PageWriter* writer, uint64_t records,
                         uint32_t value_bytes, bool bulk) {
  if (bulk) return BulkLoad(writer, records, value_bytes);
  for (uint64_t id = 0; id < records; ++id) {
    FACE_RETURN_IF_ERROR(Insert(writer, id, value_bytes, /*version=*/0));
  }
  return Status::OK();
}

Status KvTable::Read(uint64_t id, std::string* out) const {
  std::string rid_value;
  FACE_RETURN_IF_ERROR(pk.Get(Key(id), &rid_value));
  return rows.Read(DecodeRid(rid_value), out);
}

Status KvTable::Update(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                       uint64_t version) {
  std::string rid_value;
  FACE_RETURN_IF_ERROR(pk.Get(Key(id), &rid_value));
  RowTo(&row_scratch, id, value_bytes, version);
  return rows.Update(writer, DecodeRid(rid_value), row_scratch);
}

StatusOr<uint64_t> KvTable::Scan(uint64_t id, uint64_t max_rows) const {
  FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, pk.Seek(Key(id)));
  uint64_t read = 0;
  std::string row;
  while (it.Valid() && read < max_rows) {
    FACE_RETURN_IF_ERROR(rows.Read(DecodeRid(it.value()), &row));
    ++read;
    FACE_RETURN_IF_ERROR(it.Next());
  }
  return read;
}

StatusOr<uint64_t> KvTable::CountFrom(uint64_t from_id) const {
  FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, pk.Seek(Key(from_id)));
  uint64_t n = 0;
  while (it.Valid()) {
    ++n;
    FACE_RETURN_IF_ERROR(it.Next());
  }
  return n;
}

}  // namespace workload
}  // namespace face
