#include "tpcc/workload.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "tpcc/schema.h"

namespace face {
namespace tpcc {

const char* TxnTypeName(TxnType type) {
  switch (type) {
    case TxnType::kNewOrder: return "NewOrder";
    case TxnType::kPayment: return "Payment";
    case TxnType::kOrderStatus: return "OrderStatus";
    case TxnType::kDelivery: return "Delivery";
    case TxnType::kStockLevel: return "StockLevel";
  }
  return "?";
}

StatusOr<Rid> Workload::LookupRid(const BPlusTree& index,
                                  const std::string& key) {
  // Reused buffer: ~30 index lookups per transaction, no allocation each.
  FACE_RETURN_IF_ERROR(index.Get(key, &rid_buf_));
  return DecodeRid(rid_buf_);
}

Status Workload::Setup(Database& db, uint64_t seed) {
  FACE_ASSIGN_OR_RETURN(Tables t, Tables::Open(&db));
  db_ = &db;
  t_ = std::make_unique<Tables>(std::move(t));
  rnd_ = TpccRandom(seed);
  date_counter_ = 1000;
  return Status::OK();
}

StatusOr<uint8_t> Workload::NextTxn(Database& db, Random& rnd) {
  (void)db;
  (void)rnd;
  Random& r = rnd_.rng();
  const uint32_t w_id = static_cast<uint32_t>(r.UniformRange(1, warehouses_));
  const int roll = static_cast<int>(r.Uniform(100));

  TxnType type;
  Status s;
  if (roll < 45) {
    type = TxnType::kNewOrder;
    s = NewOrder(w_id);
  } else if (roll < 45 + 43) {
    type = TxnType::kPayment;
    s = Payment(w_id);
  } else if (roll < 45 + 43 + 4) {
    type = TxnType::kOrderStatus;
    s = OrderStatus(w_id);
  } else if (roll < 45 + 43 + 4 + 4) {
    type = TxnType::kDelivery;
    s = Delivery(w_id);
  } else {
    type = TxnType::kStockLevel;
    const uint32_t d_id =
        static_cast<uint32_t>(r.UniformRange(1, kDistrictsPerWarehouse));
    s = StockLevel(w_id, d_id);
  }
  if (!s.ok()) return s;
  const uint8_t idx = static_cast<uint8_t>(type);
  RecordCompleted(idx, /*primary=*/type == TxnType::kNewOrder);
  return idx;
}

Status Workload::InjectStranded(Database& db, Random& rnd) {
  const TxnId txn = db.Begin();
  PageWriter w = db.Writer(txn);
  // A Payment-shaped update set, left uncommitted.
  const uint32_t w_id =
      static_cast<uint32_t>(rnd.UniformRange(1, warehouses_));
  const uint32_t d_id =
      static_cast<uint32_t>(rnd.UniformRange(1, kDistrictsPerWarehouse));
  const uint32_t c_id =
      static_cast<uint32_t>(rnd.UniformRange(1, kCustomersPerDistrict));
  std::string value, row;
  FACE_RETURN_IF_ERROR(
      t_->pk_customer.Get(CustomerKey(w_id, d_id, c_id), &value));
  const Rid rid = DecodeRid(value);
  FACE_RETURN_IF_ERROR(t_->customer.Read(rid, &row));
  CustomerRowView customer = CustomerRowView::Decode(row);
  customer.c_balance -= 12345;
  customer.c_payment_cnt += 1;
  return t_->customer.Update(&w, rid, customer.Encode());
}

Status Workload::Audit(Database& db, workload::AuditReport* report) {
  (void)db;  // Setup bound t_ to it
  struct District {
    uint32_t next_o_id = 0, max_o_id = 0;
    uint32_t no_min = UINT32_MAX, no_max = 0;
    uint64_t no_rows = 0, ol_cnt_sum = 0, order_lines = 0;
  };
  std::map<uint32_t, int64_t> ytd_gap;  ///< W_YTD − Σ D_YTD per warehouse
  std::map<std::pair<uint32_t, uint32_t>, District> districts;
  // Every row is read by a heap scan, the path a full-table query takes,
  // and each table's primary-key index must hold one entry per row: a row
  // the heap chain lost but the index still reaches (or the reverse) is a
  // divergence too.
  auto scan = [&](const HeapFile& table, const BPlusTree& pk,
                  auto&& fn) -> Status {
    uint64_t rows = 0;
    FACE_RETURN_IF_ERROR(table.Scan([&](Rid, std::string_view r) {
      fn(r);
      ++rows;
      return true;
    }));
    report->rows_checked += rows;
    FACE_ASSIGN_OR_RETURN(const uint64_t entries, pk.CountEntries());
    if (entries != rows) {
      report->AddDivergence(table.name() + ": the heap holds " +
                            std::to_string(rows) + " rows, " + pk.name() +
                            " " + std::to_string(entries) + " entries");
    }
    return Status::OK();
  };
  FACE_RETURN_IF_ERROR(scan(t_->warehouse, t_->pk_warehouse,
                            [&](std::string_view r) {
    const WarehouseRowView w = WarehouseRowView::Decode(r);
    ytd_gap[w.w_id] += w.w_ytd;
  }));
  FACE_RETURN_IF_ERROR(scan(t_->district, t_->pk_district,
                            [&](std::string_view r) {
    const DistrictRowView d = DistrictRowView::Decode(r);
    ytd_gap[d.d_w_id] -= d.d_ytd;
    districts[{d.d_w_id, d.d_id}].next_o_id = d.d_next_o_id;
  }));
  FACE_RETURN_IF_ERROR(scan(t_->orders, t_->pk_orders, [&](std::string_view r) {
    const OrderRow o = OrderRow::Decode(r);
    District& d = districts[{o.o_w_id, o.o_d_id}];
    d.max_o_id = std::max(d.max_o_id, o.o_id);
    d.ol_cnt_sum += o.o_ol_cnt;
  }));
  FACE_RETURN_IF_ERROR(scan(t_->new_order, t_->pk_new_order,
                            [&](std::string_view r) {
    const NewOrderRow no = NewOrderRow::Decode(r);
    District& d = districts[{no.no_w_id, no.no_d_id}];
    d.no_min = std::min(d.no_min, no.no_o_id);
    d.no_max = std::max(d.no_max, no.no_o_id);
    ++d.no_rows;
  }));
  FACE_RETURN_IF_ERROR(scan(t_->order_line, t_->pk_order_line,
                            [&](std::string_view r) {
    const OrderLineRowView ol = OrderLineRowView::Decode(r);
    ++districts[{ol.ol_w_id, ol.ol_d_id}].order_lines;
  }));

  // Every index passes the B+tree's structural audit.
  for (const BPlusTree* index :
       {&t_->pk_warehouse, &t_->pk_district, &t_->pk_customer,
        &t_->idx_customer_name, &t_->pk_new_order, &t_->pk_orders,
        &t_->idx_orders_customer, &t_->pk_order_line, &t_->pk_item,
        &t_->pk_stock}) {
    const Status s = index->CheckInvariants();
    if (s.IsIOError()) return s;
    if (!s.ok()) report->AddDivergence(index->name() + ": " + s.ToString());
  }

  for (const auto& [w_id, gap] : ytd_gap) {
    if (gap != 0) {
      report->AddDivergence("§3.3.2.1: warehouse " + std::to_string(w_id) +
                            " has W_YTD − Σ D_YTD = " + std::to_string(gap));
    }
  }
  for (const auto& [id, d] : districts) {
    const std::string where = "district " + std::to_string(id.first) + "/" +
                              std::to_string(id.second) + ": ";
    // A district with every order delivered has no NEW-ORDER rows to check.
    if (d.next_o_id - 1 != d.max_o_id ||
        (d.no_rows > 0 && d.no_max != d.max_o_id)) {
      report->AddDivergence(
          "§3.3.2.2: " + where + "D_NEXT_O_ID − 1 = " +
          std::to_string(d.next_o_id - 1) + ", max(O_ID) = " +
          std::to_string(d.max_o_id) + ", max(NO_O_ID) = " +
          std::to_string(d.no_max));
    }
    if (d.no_rows > 0 && d.no_rows != d.no_max - d.no_min + 1ull) {
      report->AddDivergence("§3.3.2.3: " + where +
                            std::to_string(d.no_rows) +
                            " NEW-ORDER rows for NO_O_ID " +
                            std::to_string(d.no_min) + ".." +
                            std::to_string(d.no_max));
    }
    if (d.ol_cnt_sum != d.order_lines) {
      report->AddDivergence("§3.3.2.4: " + where + "Σ O_OL_CNT = " +
                            std::to_string(d.ol_cnt_sum) + ", " +
                            std::to_string(d.order_lines) +
                            " ORDER-LINE rows");
    }
  }
  return Status::OK();
}

// --- New-Order (§2.4) ---------------------------------------------------------

Status Workload::NewOrder(uint32_t w_id) {
  Random& r = rnd_.rng();
  const uint32_t d_id =
      static_cast<uint32_t>(r.UniformRange(1, kDistrictsPerWarehouse));
  const uint32_t c_id = static_cast<uint32_t>(rnd_.NURandCustomerId());
  const uint32_t ol_cnt = static_cast<uint32_t>(r.UniformRange(5, 15));
  const bool rollback = r.PercentTrue(1);  // §2.4.1.4

  // Generate the order lines up front (the terminal's input screen).
  struct Line {
    uint32_t i_id;
    uint32_t supply_w;
    uint32_t quantity;
  };
  std::vector<Line> lines(ol_cnt);
  bool all_local = true;
  for (uint32_t i = 0; i < ol_cnt; ++i) {
    lines[i].i_id = static_cast<uint32_t>(rnd_.NURandItemId());
    lines[i].supply_w = w_id;
    if (warehouses_ > 1 && r.PercentTrue(1)) {  // §2.4.1.5.2
      while (lines[i].supply_w == w_id) {
        lines[i].supply_w =
            static_cast<uint32_t>(r.UniformRange(1, warehouses_));
      }
      all_local = false;
    }
    lines[i].quantity = static_cast<uint32_t>(r.UniformRange(1, 10));
  }
  if (rollback) lines[ol_cnt - 1].i_id = kItems + 1;  // unused item id

  const TxnId txn = db_->Begin();
  PageWriter w = db_->Writer(txn);

  // Warehouse tax.
  std::string row;
  FACE_ASSIGN_OR_RETURN(Rid w_rid, LookupRid(t_->pk_warehouse,
                                             WarehouseKey(w_id)));
  FACE_RETURN_IF_ERROR(t_->warehouse.Read(w_rid, &row));
  const int64_t w_tax = WarehouseRowView::Decode(row).w_tax;

  // District: tax + order id, incremented in place. The view's CHAR fields
  // alias `row`, which stays untouched until Encode() below.
  FACE_ASSIGN_OR_RETURN(Rid d_rid,
                        LookupRid(t_->pk_district, DistrictKey(w_id, d_id)));
  FACE_RETURN_IF_ERROR(t_->district.Read(d_rid, &row));
  DistrictRowView district = DistrictRowView::Decode(row);
  const uint32_t o_id = district.d_next_o_id;
  const int64_t d_tax = district.d_tax;
  district.d_next_o_id = o_id + 1;
  FACE_RETURN_IF_ERROR(t_->district.Update(&w, d_rid, district.Encode()));

  // Customer discount (read-only here).
  FACE_ASSIGN_OR_RETURN(Rid c_rid, LookupRid(t_->pk_customer,
                                             CustomerKey(w_id, d_id, c_id)));
  FACE_RETURN_IF_ERROR(t_->customer.Read(c_rid, &row));
  const int64_t c_discount = CustomerRowView::Decode(row).c_discount;

  // ORDER + NEW-ORDER rows.
  OrderRow order;
  order.o_id = o_id;
  order.o_d_id = d_id;
  order.o_w_id = w_id;
  order.o_c_id = c_id;
  order.o_entry_d = ++date_counter_;
  order.o_carrier_id = 0;
  order.o_ol_cnt = ol_cnt;
  order.o_all_local = all_local ? 1 : 0;
  FACE_ASSIGN_OR_RETURN(Rid o_rid, t_->orders.Insert(&w, order.Encode()));
  FACE_RETURN_IF_ERROR(
      t_->pk_orders.Insert(&w, OrderKey(w_id, d_id, o_id), EncodeRid(o_rid)));
  FACE_RETURN_IF_ERROR(t_->idx_orders_customer.Insert(
      &w, OrderCustomerKey(w_id, d_id, c_id, o_id), EncodeRid(o_rid)));

  NewOrderRow no;
  no.no_o_id = o_id;
  no.no_d_id = d_id;
  no.no_w_id = w_id;
  FACE_ASSIGN_OR_RETURN(Rid no_rid, t_->new_order.Insert(&w, no.Encode()));
  FACE_RETURN_IF_ERROR(t_->pk_new_order.Insert(
      &w, NewOrderKey(w_id, d_id, o_id), EncodeRid(no_rid)));

  // Order lines.
  int64_t total = 0;
  for (uint32_t i = 0; i < ol_cnt; ++i) {
    const Line& line = lines[i];

    auto item_rid = LookupRid(t_->pk_item, ItemKey(line.i_id));
    if (!item_rid.ok()) {
      // §2.4.2.3: unused item id — the terminal entered a bad item; the
      // whole transaction rolls back. This is the intended 1 % abort.
      FACE_RETURN_IF_ERROR(db_->Abort(txn));
      ++stats_.user_aborts;
      return Status::OK();
    }
    FACE_RETURN_IF_ERROR(t_->item.Read(*item_rid, &row));
    // Scalar-only extraction: the stock read below reuses `row`.
    const int64_t i_price = ItemRowView::Decode(row).i_price;

    FACE_ASSIGN_OR_RETURN(
        Rid s_rid,
        LookupRid(t_->pk_stock, StockKey(line.supply_w, line.i_id)));
    FACE_RETURN_IF_ERROR(t_->stock.Read(s_rid, &row));
    StockRowView stock = StockRowView::Decode(row);
    if (stock.s_quantity >= static_cast<int64_t>(line.quantity) + 10) {
      stock.s_quantity -= line.quantity;
    } else {
      stock.s_quantity += 91 - static_cast<int64_t>(line.quantity);
    }
    stock.s_ytd += line.quantity;
    stock.s_order_cnt += 1;
    if (line.supply_w != w_id) stock.s_remote_cnt += 1;
    FACE_RETURN_IF_ERROR(t_->stock.Update(&w, s_rid, stock.Encode()));

    const int64_t amount = static_cast<int64_t>(line.quantity) * i_price;
    total += amount;

    // ol_dist_info stays a view into the stock row image; `row` is not
    // reused before ol.Encode() below.
    OrderLineRowView ol;
    ol.ol_o_id = o_id;
    ol.ol_d_id = d_id;
    ol.ol_w_id = w_id;
    ol.ol_number = i + 1;
    ol.ol_i_id = line.i_id;
    ol.ol_supply_w_id = line.supply_w;
    ol.ol_delivery_d = 0;
    ol.ol_quantity = line.quantity;
    ol.ol_amount = amount;
    ol.ol_dist_info = stock.s_dist[d_id - 1];
    FACE_ASSIGN_OR_RETURN(Rid ol_rid, t_->order_line.Insert(&w, ol.Encode()));
    FACE_RETURN_IF_ERROR(t_->pk_order_line.Insert(
        &w, OrderLineKey(w_id, d_id, o_id, i + 1), EncodeRid(ol_rid)));
  }

  // total(w_tax, d_tax, c_discount) is computed for the terminal display;
  // it is not stored, but compute it faithfully anyway.
  total = total * (10000 - c_discount) / 10000 * (10000 + w_tax + d_tax) /
          10000;
  (void)total;

  return db_->Commit(txn);
}

// --- Payment (§2.5) -----------------------------------------------------------

StatusOr<Rid> Workload::SelectCustomer(uint32_t w_id, uint32_t d_id) {
  Random& r = rnd_.rng();
  if (r.PercentTrue(60)) {
    // By last name: collect the matching customers (the index orders them
    // by first name) and take the §2.5.2.2 midpoint.
    const std::string last = TpccRandom::LastName(rnd_.NURandLastName());
    const std::string prefix = CustomerNamePrefix(w_id, d_id, last);
    std::vector<Rid> rids;
    FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it,
                          t_->idx_customer_name.Seek(prefix));
    while (it.Valid() && it.key().substr(0, prefix.size()) == prefix) {
      rids.push_back(DecodeRid(it.value()));
      FACE_RETURN_IF_ERROR(it.Next());
    }
    if (!rids.empty()) return rids[(rids.size() - 1) / 2];
    // The name does not exist in this district (possible for scaled-down
    // loads); fall through to selection by id.
  }
  const uint32_t c_id = static_cast<uint32_t>(rnd_.NURandCustomerId());
  return LookupRid(t_->pk_customer, CustomerKey(w_id, d_id, c_id));
}

Status Workload::Payment(uint32_t w_id) {
  Random& r = rnd_.rng();
  const uint32_t d_id =
      static_cast<uint32_t>(r.UniformRange(1, kDistrictsPerWarehouse));
  // §2.5.1.2: 85 % home, 15 % remote customer.
  uint32_t c_w_id = w_id;
  uint32_t c_d_id = d_id;
  if (warehouses_ > 1 && r.PercentTrue(15)) {
    while (c_w_id == w_id) {
      c_w_id = static_cast<uint32_t>(r.UniformRange(1, warehouses_));
    }
    c_d_id = static_cast<uint32_t>(r.UniformRange(1, kDistrictsPerWarehouse));
  }
  const int64_t amount = r.UniformRange(100, 500000);  // $1.00 .. $5,000.00

  const TxnId txn = db_->Begin();
  PageWriter w = db_->Writer(txn);

  std::string row;
  FACE_ASSIGN_OR_RETURN(Rid w_rid,
                        LookupRid(t_->pk_warehouse, WarehouseKey(w_id)));
  FACE_RETURN_IF_ERROR(t_->warehouse.Read(w_rid, &row));
  WarehouseRowView warehouse = WarehouseRowView::Decode(row);
  warehouse.w_ytd += amount;
  // The H_DATA names outlive `row` (the district/customer reads reuse it),
  // so copy them out now; both are <= 10 chars, within SSO.
  const std::string w_name(warehouse.w_name);
  FACE_RETURN_IF_ERROR(t_->warehouse.Update(&w, w_rid, warehouse.Encode()));

  FACE_ASSIGN_OR_RETURN(Rid d_rid,
                        LookupRid(t_->pk_district, DistrictKey(w_id, d_id)));
  FACE_RETURN_IF_ERROR(t_->district.Read(d_rid, &row));
  DistrictRowView district = DistrictRowView::Decode(row);
  district.d_ytd += amount;
  const std::string d_name(district.d_name);
  FACE_RETURN_IF_ERROR(t_->district.Update(&w, d_rid, district.Encode()));

  FACE_ASSIGN_OR_RETURN(Rid c_rid, SelectCustomer(c_w_id, c_d_id));
  FACE_RETURN_IF_ERROR(t_->customer.Read(c_rid, &row));
  CustomerRowView customer = CustomerRowView::Decode(row);
  customer.c_balance -= amount;
  customer.c_ytd_payment += amount;
  customer.c_payment_cnt += 1;
  std::string info;  // owns the new C_DATA until Encode() reads the view
  if (customer.c_credit == "BC") {
    // §2.5.2.2: prepend the payment facts to C_DATA, truncated to 500.
    info = std::to_string(customer.c_id) + " " + std::to_string(c_d_id) +
           " " + std::to_string(c_w_id) + " " + std::to_string(d_id) + " " +
           std::to_string(w_id) + " " + std::to_string(amount) + "|";
    info += customer.c_data;
    if (info.size() > CustomerRowView::kDataWidth) {
      info.resize(CustomerRowView::kDataWidth);
    }
    customer.c_data = info;
  }
  FACE_RETURN_IF_ERROR(t_->customer.Update(&w, c_rid, customer.Encode()));

  const std::string h_data = w_name + "    " + d_name;
  HistoryRowView h;
  h.h_c_id = customer.c_id;
  h.h_c_d_id = c_d_id;
  h.h_c_w_id = c_w_id;
  h.h_d_id = d_id;
  h.h_w_id = w_id;
  h.h_date = ++date_counter_;
  h.h_amount = amount;
  h.h_data = h_data;
  FACE_RETURN_IF_ERROR(t_->history.Insert(&w, h.Encode()).status());

  return db_->Commit(txn);
}

// --- Order-Status (§2.6) --------------------------------------------------------

Status Workload::OrderStatus(uint32_t w_id) {
  Random& r = rnd_.rng();
  const uint32_t d_id =
      static_cast<uint32_t>(r.UniformRange(1, kDistrictsPerWarehouse));

  const TxnId txn = db_->Begin();

  std::string row;
  FACE_ASSIGN_OR_RETURN(Rid c_rid, SelectCustomer(w_id, d_id));
  FACE_RETURN_IF_ERROR(t_->customer.Read(c_rid, &row));
  const uint32_t c_id = CustomerRowView::Decode(row).c_id;

  // Latest order of this customer: last entry of the ascending
  // (w, d, c, o) range.
  const std::string prefix =
      KeyCodec().AppendU32(w_id).AppendU32(d_id).AppendU32(c_id).Take();
  Rid o_rid{kInvalidPageId, 0};
  {
    FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it,
                          t_->idx_orders_customer.Seek(prefix));
    while (it.Valid() && it.key().substr(0, prefix.size()) == prefix) {
      o_rid = DecodeRid(it.value());
      FACE_RETURN_IF_ERROR(it.Next());
    }
  }
  if (o_rid.page_id != kInvalidPageId) {
    FACE_RETURN_IF_ERROR(t_->orders.Read(o_rid, &row));
    const OrderRow order = OrderRow::Decode(row);
    for (uint32_t ol = 1; ol <= order.o_ol_cnt; ++ol) {
      FACE_ASSIGN_OR_RETURN(
          Rid ol_rid,
          LookupRid(t_->pk_order_line,
                    OrderLineKey(w_id, d_id, order.o_id, ol)));
      FACE_RETURN_IF_ERROR(t_->order_line.Read(ol_rid, &row));
    }
  }

  return db_->Commit(txn);
}

// --- Delivery (§2.7) -------------------------------------------------------------

Status Workload::Delivery(uint32_t w_id) {
  Random& r = rnd_.rng();
  const uint32_t carrier = static_cast<uint32_t>(r.UniformRange(1, 10));

  const TxnId txn = db_->Begin();
  PageWriter w = db_->Writer(txn);

  std::string row;
  for (uint32_t d_id = 1; d_id <= kDistrictsPerWarehouse; ++d_id) {
    // Oldest undelivered order of this district.
    uint32_t o_id = 0;
    Rid no_rid{kInvalidPageId, 0};
    {
      const std::string lo = NewOrderKey(w_id, d_id, 0);
      FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, t_->pk_new_order.Seek(lo));
      if (it.Valid() && it.key().substr(0, 8) == lo.substr(0, 8)) {
        o_id = KeyCodec::DecodeU32(it.key(), 8);
        no_rid = DecodeRid(it.value());
      }
    }
    if (o_id == 0) continue;  // §2.7.4.2: skip districts with nothing to do

    FACE_RETURN_IF_ERROR(t_->new_order.Delete(&w, no_rid));
    FACE_RETURN_IF_ERROR(
        t_->pk_new_order.Delete(&w, NewOrderKey(w_id, d_id, o_id)));

    FACE_ASSIGN_OR_RETURN(Rid o_rid,
                          LookupRid(t_->pk_orders, OrderKey(w_id, d_id, o_id)));
    FACE_RETURN_IF_ERROR(t_->orders.Read(o_rid, &row));
    OrderRow order = OrderRow::Decode(row);
    order.o_carrier_id = carrier;
    FACE_RETURN_IF_ERROR(t_->orders.Update(&w, o_rid, order.Encode()));

    const uint64_t now = ++date_counter_;
    int64_t amount_sum = 0;
    for (uint32_t ol = 1; ol <= order.o_ol_cnt; ++ol) {
      FACE_ASSIGN_OR_RETURN(
          Rid ol_rid,
          LookupRid(t_->pk_order_line, OrderLineKey(w_id, d_id, o_id, ol)));
      FACE_RETURN_IF_ERROR(t_->order_line.Read(ol_rid, &row));
      OrderLineRowView line = OrderLineRowView::Decode(row);
      amount_sum += line.ol_amount;
      line.ol_delivery_d = now;
      FACE_RETURN_IF_ERROR(t_->order_line.Update(&w, ol_rid, line.Encode()));
    }

    FACE_ASSIGN_OR_RETURN(
        Rid c_rid,
        LookupRid(t_->pk_customer, CustomerKey(w_id, d_id, order.o_c_id)));
    FACE_RETURN_IF_ERROR(t_->customer.Read(c_rid, &row));
    CustomerRowView customer = CustomerRowView::Decode(row);
    customer.c_balance += amount_sum;
    customer.c_delivery_cnt += 1;
    FACE_RETURN_IF_ERROR(t_->customer.Update(&w, c_rid, customer.Encode()));
  }

  return db_->Commit(txn);
}

// --- Stock-Level (§2.8) -----------------------------------------------------------

Status Workload::StockLevel(uint32_t w_id, uint32_t d_id) {
  Random& r = rnd_.rng();
  const int64_t threshold = r.UniformRange(10, 20);

  const TxnId txn = db_->Begin();

  std::string row;
  FACE_ASSIGN_OR_RETURN(Rid d_rid,
                        LookupRid(t_->pk_district, DistrictKey(w_id, d_id)));
  FACE_RETURN_IF_ERROR(t_->district.Read(d_rid, &row));
  const uint32_t next_o = DistrictRowView::Decode(row).d_next_o_id;

  // Distinct items in the last 20 orders' lines (§2.8.2.2).
  const uint32_t lo_o = next_o >= 20 ? next_o - 20 : 0;
  std::set<uint32_t> items;
  {
    const std::string lo = OrderLineKey(w_id, d_id, lo_o, 0);
    const std::string hi = OrderLineKey(w_id, d_id, next_o, 0);
    FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, t_->pk_order_line.Seek(lo));
    while (it.Valid() && it.key() < hi) {
      FACE_RETURN_IF_ERROR(t_->order_line.Read(DecodeRid(it.value()), &row));
      items.insert(OrderLineRowView::Decode(row).ol_i_id);
      FACE_RETURN_IF_ERROR(it.Next());
    }
  }

  uint64_t low_stock = 0;
  for (uint32_t i_id : items) {
    FACE_ASSIGN_OR_RETURN(Rid s_rid,
                          LookupRid(t_->pk_stock, StockKey(w_id, i_id)));
    FACE_RETURN_IF_ERROR(t_->stock.Read(s_rid, &row));
    if (StockRowView::Decode(row).s_quantity < threshold) ++low_stock;
  }
  (void)low_stock;

  return db_->Commit(txn);
}

}  // namespace tpcc
}  // namespace face
