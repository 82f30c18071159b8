// TPC-C tests: row codecs, loader cardinalities (§4.3), transaction
// semantics, and the §3.3.2 consistency conditions after a mixed run.
#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"
#include "tpcc/schema.h"
#include "tpcc/workload.h"

namespace face {
namespace tpcc {
namespace {

TEST(TpccSchemaTest, RowCodecsRoundTrip) {
  CustomerRow c;
  c.c_id = 42;
  c.c_d_id = 3;
  c.c_w_id = 1;
  c.c_first = "First";
  c.c_middle = "OE";
  c.c_last = "BARBAROUGHT";
  c.c_credit = "BC";
  c.c_balance = -123456;
  c.c_discount = 250;
  c.c_data = std::string(499, 'd');
  const std::string bytes = c.Encode();
  EXPECT_EQ(bytes.size(), CustomerRow::kSize);
  const CustomerRow back = CustomerRow::Decode(bytes);
  EXPECT_EQ(back.c_id, 42u);
  EXPECT_EQ(back.c_last, "BARBAROUGHT");
  EXPECT_EQ(back.c_credit, "BC");
  EXPECT_EQ(back.c_balance, -123456);
  EXPECT_EQ(back.c_data, c.c_data);

  StockRow s;
  s.s_i_id = 9;
  s.s_w_id = 2;
  s.s_quantity = -4;  // stock can briefly go conceptually low
  for (int i = 0; i < 10; ++i) s.s_dist[i] = std::string(24, 'a' + i);
  s.s_ytd = 77;
  const std::string sbytes = s.Encode();
  EXPECT_EQ(sbytes.size(), StockRow::kSize);
  const StockRow sback = StockRow::Decode(sbytes);
  EXPECT_EQ(sback.s_quantity, -4);
  EXPECT_EQ(sback.s_dist[9], std::string(24, 'j'));
  EXPECT_EQ(sback.s_ytd, 77);

  OrderLineRow ol;
  ol.ol_o_id = 3001;
  ol.ol_number = 7;
  ol.ol_amount = 123456;
  ol.ol_dist_info = std::string(24, 'x');
  const std::string obytes = ol.Encode();
  EXPECT_EQ(obytes.size(), OrderLineRow::kSize);
  EXPECT_EQ(OrderLineRow::Decode(obytes).ol_amount, 123456);
}

TEST(TpccSchemaTest, FixedOffsetsMatchEncoding) {
  WarehouseRow w;
  w.w_ytd = 424242;
  const std::string bytes = w.Encode();
  EXPECT_EQ(DecodeFixed64(bytes.data() + WarehouseRow::kYtdOffset), 424242u);

  DistrictRow d;
  d.d_ytd = 777;
  d.d_next_o_id = 3001;
  const std::string dbytes = d.Encode();
  EXPECT_EQ(DecodeFixed64(dbytes.data() + DistrictRow::kYtdOffset), 777u);
  EXPECT_EQ(DecodeFixed32(dbytes.data() + DistrictRow::kNextOrderIdOffset),
            3001u);

  OrderRow o;
  o.o_carrier_id = 5;
  const std::string obytes = o.Encode();
  EXPECT_EQ(DecodeFixed32(obytes.data() + OrderRow::kCarrierOffset), 5u);
}

TEST(TpccSchemaTest, RidCodecRoundTrip) {
  const Rid rid{123456789, 321};
  const std::string v = EncodeRid(rid);
  EXPECT_EQ(v.size(), kRidValueSize);
  EXPECT_EQ(DecodeRid(v), rid);
}

/// System fixture over the shared 1-warehouse golden image.
class TpccSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TestbedOptions opts;
    opts.policy = CachePolicy::kNone;
    opts.clients = 4;
    tb_ = std::make_unique<Testbed>(opts, &SharedGolden());
    FACE_ASSERT_OK(tb_->Start());
    wl_ = dynamic_cast<Workload*>(tb_->workload());
    ASSERT_NE(wl_, nullptr) << "the shared golden image drives TPC-C";
  }

  /// Sum a per-row value over a full table scan.
  template <typename Fn>
  void ScanTable(HeapFile* table, Fn&& fn) {
    FACE_ASSERT_OK(table->Scan([&](Rid, std::string_view row) {
      fn(row);
      return true;
    }));
  }

  std::unique_ptr<Testbed> tb_;
  Workload* wl_ = nullptr;  ///< the testbed's TPC-C driver
};

TEST_F(TpccSystemTest, LoaderCardinalitiesMatchSpec) {
  Tables* t = wl_->tables();
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t warehouses, t->warehouse.CountRows());
  EXPECT_EQ(warehouses, 1u);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t districts, t->district.CountRows());
  EXPECT_EQ(districts, kDistrictsPerWarehouse);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t customers, t->customer.CountRows());
  EXPECT_EQ(customers, kDistrictsPerWarehouse * kCustomersPerDistrict);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t items, t->item.CountRows());
  EXPECT_EQ(items, kItems);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t stock, t->stock.CountRows());
  EXPECT_EQ(stock, kStockPerWarehouse);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t orders, t->orders.CountRows());
  EXPECT_EQ(orders, kDistrictsPerWarehouse * kOrdersPerDistrict);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t new_orders, t->new_order.CountRows());
  EXPECT_EQ(new_orders, kDistrictsPerWarehouse *
                            (kOrdersPerDistrict - kFirstUndeliveredOrder + 1));
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t history, t->history.CountRows());
  EXPECT_EQ(history, customers);

  // Index cardinalities match their tables.
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t pk_c, t->pk_customer.CountEntries());
  EXPECT_EQ(pk_c, customers);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t name_c,
                            t->idx_customer_name.CountEntries());
  EXPECT_EQ(name_c, customers);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t pk_ol, t->pk_order_line.CountEntries());
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t ol_rows, t->order_line.CountRows());
  EXPECT_EQ(pk_ol, ol_rows);
  // ~10 lines per order on average (5..15 uniform).
  EXPECT_GT(ol_rows, orders * 8);
  EXPECT_LT(ol_rows, orders * 12);
}

TEST_F(TpccSystemTest, NewOrderAdvancesDistrictAndInsertsRows) {
  Tables* t = wl_->tables();
  std::string row;
  FACE_ASSERT_OK(t->pk_district.Get(DistrictKey(1, 1), &row));
  const Rid d_rid = DecodeRid(row);
  FACE_ASSERT_OK(t->district.Read(d_rid, &row));
  const uint32_t next_before = DistrictRow::Decode(row).d_next_o_id;

  // Run NewOrders until district 1 takes one (driver picks d randomly).
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t orders_before, t->orders.CountRows());
  for (int i = 0; i < 30; ++i) FACE_ASSERT_OK(wl_->NewOrder(1));

  FACE_ASSERT_OK(t->district.Read(d_rid, &row));
  EXPECT_GE(DistrictRow::Decode(row).d_next_o_id, next_before);
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t orders_after, t->orders.CountRows());
  const uint64_t added = orders_after - orders_before;
  EXPECT_GT(added, 25u);  // ~1 % user aborts may eat a couple
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t no_after, t->new_order.CountRows());
  EXPECT_EQ(no_after, 9000u + added);
}

TEST_F(TpccSystemTest, PaymentMovesMoneyConsistently) {
  Tables* t = wl_->tables();
  for (int i = 0; i < 40; ++i) FACE_ASSERT_OK(wl_->Payment(1));

  // §3.3.2.1: W_YTD = sum(D_YTD) of its districts.
  std::string row;
  FACE_ASSERT_OK(t->pk_warehouse.Get(WarehouseKey(1), &row));
  FACE_ASSERT_OK(t->warehouse.Read(DecodeRid(row), &row));
  const int64_t w_ytd = WarehouseRow::Decode(row).w_ytd;
  EXPECT_GT(w_ytd, 30000000);  // grew from the initial $300,000

  int64_t d_ytd_sum = 0;
  ScanTable(&t->district, [&](std::string_view r) {
    d_ytd_sum += DistrictRow::Decode(r).d_ytd;
  });
  EXPECT_EQ(w_ytd, d_ytd_sum - 10 * 3000000 + 30000000);

  // History grew by one row per payment.
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t history, t->history.CountRows());
  EXPECT_EQ(history, 30000u + 40u);
}

TEST_F(TpccSystemTest, DeliveryClearsOldestNewOrders) {
  Tables* t = wl_->tables();
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t no_before, t->new_order.CountRows());
  FACE_ASSERT_OK(wl_->Delivery(1));
  FACE_ASSERT_OK_AND_ASSIGN(uint64_t no_after, t->new_order.CountRows());
  EXPECT_EQ(no_after, no_before - kDistrictsPerWarehouse);

  // The delivered orders got carriers and delivery dates.
  std::string row;
  FACE_ASSERT_OK(t->pk_orders.Get(OrderKey(1, 1, kFirstUndeliveredOrder),
                                  &row));
  FACE_ASSERT_OK(t->orders.Read(DecodeRid(row), &row));
  const OrderRow order = OrderRow::Decode(row);
  EXPECT_NE(order.o_carrier_id, 0u);
  FACE_ASSERT_OK(
      t->pk_order_line.Get(OrderLineKey(1, 1, kFirstUndeliveredOrder, 1),
                           &row));
  FACE_ASSERT_OK(t->order_line.Read(DecodeRid(row), &row));
  EXPECT_NE(OrderLineRow::Decode(row).ol_delivery_d, 0u);
}

TEST_F(TpccSystemTest, ReadOnlyTransactionsComplete) {
  for (int i = 0; i < 10; ++i) {
    FACE_ASSERT_OK(wl_->OrderStatus(1));
    FACE_ASSERT_OK(wl_->StockLevel(1, 1 + i % 10));
  }
}

TEST_F(TpccSystemTest, MixedRunKeepsConsistencyConditions) {
  Tables* t = wl_->tables();
  Random unused(1);  // TPC-C draws from its own NURand stream
  for (int i = 0; i < 400; ++i) {
    FACE_ASSERT_OK(wl_->NextTxn(*tb_->db(), unused).status());
  }
  EXPECT_EQ(wl_->stats().total(), 400u);
  EXPECT_GT(wl_->stats().primary, 120u);  // NewOrder, ~45 % of the mix

  // Spec §3.3.2.1–4 over every warehouse, district, order, new-order and
  // order-line row.
  FACE_ASSERT_OK_AND_ASSIGN(workload::AuditReport audit, tb_->Audit());
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  EXPECT_GT(audit.rows_checked, 300000u) << audit.ToString();

  // A committed write that breaks §3.3.2.1 is reported.
  std::string row;
  FACE_ASSERT_OK(t->pk_district.Get(DistrictKey(1, 1), &row));
  const Rid rid = DecodeRid(row);
  FACE_ASSERT_OK(t->district.Read(rid, &row));
  DistrictRow district = DistrictRow::Decode(row);
  district.d_ytd += 1;
  const TxnId txn = tb_->db()->Begin();
  PageWriter w = tb_->db()->Writer(txn);
  FACE_ASSERT_OK(t->district.Update(&w, rid, district.Encode()));
  FACE_ASSERT_OK(tb_->db()->Commit(txn));
  FACE_ASSERT_OK_AND_ASSIGN(audit, tb_->Audit());
  EXPECT_EQ(audit.divergences, 1u) << audit.ToString();

  // Indexes still structurally sound after the run.
  FACE_ASSERT_OK(t->pk_orders.CheckInvariants());
  FACE_ASSERT_OK(t->pk_new_order.CheckInvariants());
  FACE_ASSERT_OK(t->pk_order_line.CheckInvariants());
  FACE_ASSERT_OK(t->idx_customer_name.CheckInvariants());
}

TEST_F(TpccSystemTest, CustomerSelectionByNameFindsMidpoint) {
  // Payment by last name must work for every generated name.
  for (int i = 0; i < 60; ++i) FACE_ASSERT_OK(wl_->Payment(1));
  // At least some of those went through the by-name path (60 %); the
  // absence of failures is the assertion.
}

}  // namespace
}  // namespace tpcc
}  // namespace face
