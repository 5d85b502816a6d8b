// TPC-C schema: the nine tables of the standard benchmark (clause 1.3),
// with spec-faithful fields and byte-level row codecs.
//
// Rows are stored in fixed slots sized to each table's maximum serialized
// row; codecs are deterministic so recovery replay reproduces rows
// byte-for-byte (asserted by the integration tests).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/status.hpp"

namespace vdb::tpcc {

struct WarehouseRow {
  std::uint32_t w_id = 0;
  std::string w_name;      // <= 10
  std::string w_street_1;  // <= 20
  std::string w_street_2;  // <= 20
  std::string w_city;      // <= 20
  std::string w_state;     // 2
  std::string w_zip;       // 9
  double w_tax = 0;
  double w_ytd = 0;

  void encode(Encoder& enc) const;
  static Result<WarehouseRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 160;
};

struct DistrictRow {
  std::uint32_t d_id = 0;
  std::uint32_t d_w_id = 0;
  std::string d_name;      // <= 10
  std::string d_street_1;  // <= 20
  std::string d_street_2;  // <= 20
  std::string d_city;      // <= 20
  std::string d_state;     // 2
  std::string d_zip;       // 9
  double d_tax = 0;
  double d_ytd = 0;
  std::uint32_t d_next_o_id = 1;

  void encode(Encoder& enc) const;
  static Result<DistrictRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 176;
};

struct CustomerRow {
  std::uint32_t c_id = 0;
  std::uint32_t c_d_id = 0;
  std::uint32_t c_w_id = 0;
  std::string c_first;     // <= 16
  std::string c_middle;    // 2
  std::string c_last;      // <= 16
  std::string c_street_1;  // <= 20
  std::string c_street_2;  // <= 20
  std::string c_city;      // <= 20
  std::string c_state;     // 2
  std::string c_zip;       // 9
  std::string c_phone;     // 16
  std::uint64_t c_since = 0;
  std::string c_credit;  // 2: "GC" or "BC"
  double c_credit_lim = 0;
  double c_discount = 0;
  double c_balance = 0;
  double c_ytd_payment = 0;
  std::uint32_t c_payment_cnt = 0;
  std::uint32_t c_delivery_cnt = 0;
  std::string c_data;  // <= 500

  void encode(Encoder& enc) const;
  static Result<CustomerRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 760;
};

struct HistoryRow {
  std::uint32_t h_c_id = 0;
  std::uint32_t h_c_d_id = 0;
  std::uint32_t h_c_w_id = 0;
  std::uint32_t h_d_id = 0;
  std::uint32_t h_w_id = 0;
  std::uint64_t h_date = 0;
  double h_amount = 0;
  std::string h_data;  // <= 24

  void encode(Encoder& enc) const;
  static Result<HistoryRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 96;
};

struct NewOrderRow {
  std::uint32_t no_o_id = 0;
  std::uint32_t no_d_id = 0;
  std::uint32_t no_w_id = 0;

  void encode(Encoder& enc) const;
  static Result<NewOrderRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 24;
};

struct OrderRow {
  std::uint32_t o_id = 0;
  std::uint32_t o_d_id = 0;
  std::uint32_t o_w_id = 0;
  std::uint32_t o_c_id = 0;
  std::uint64_t o_entry_d = 0;
  std::int32_t o_carrier_id = -1;  // -1 = not delivered
  std::uint8_t o_ol_cnt = 0;
  std::uint8_t o_all_local = 1;

  void encode(Encoder& enc) const;
  static Result<OrderRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 48;
};

struct OrderLineRow {
  std::uint32_t ol_o_id = 0;
  std::uint32_t ol_d_id = 0;
  std::uint32_t ol_w_id = 0;
  std::uint8_t ol_number = 0;
  std::uint32_t ol_i_id = 0;
  std::uint32_t ol_supply_w_id = 0;
  std::uint64_t ol_delivery_d = 0;  // 0 = not delivered
  std::uint8_t ol_quantity = 0;
  double ol_amount = 0;
  std::string ol_dist_info;  // 24

  void encode(Encoder& enc) const;
  static Result<OrderLineRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 96;
};

struct ItemRow {
  std::uint32_t i_id = 0;
  std::uint32_t i_im_id = 0;
  std::string i_name;  // <= 24
  double i_price = 0;
  std::string i_data;  // <= 50

  void encode(Encoder& enc) const;
  static Result<ItemRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 112;
};

struct StockRow {
  std::uint32_t s_i_id = 0;
  std::uint32_t s_w_id = 0;
  std::int32_t s_quantity = 0;
  std::array<std::string, 10> s_dist;  // 24 each
  double s_ytd = 0;
  std::uint32_t s_order_cnt = 0;
  std::uint32_t s_remote_cnt = 0;
  std::string s_data;  // <= 50

  void encode(Encoder& enc) const;
  static Result<StockRow> decode(Decoder& dec);
  static constexpr std::uint16_t kSlotSize = 384;
};

/// Canonical table names (owned by the TPCC user in the TPCC tablespace).
inline constexpr const char* kWarehouseTable = "warehouse";
inline constexpr const char* kDistrictTable = "district";
inline constexpr const char* kCustomerTable = "customer";
inline constexpr const char* kHistoryTable = "history";
inline constexpr const char* kNewOrderTable = "new_order";
inline constexpr const char* kOrderTable = "orders";
inline constexpr const char* kOrderLineTable = "order_line";
inline constexpr const char* kItemTable = "item";
inline constexpr const char* kStockTable = "stock";

/// Serializes any row type to bytes. Reserves the row's slot size up
/// front, so the encoder never regrows the vector field by field.
template <typename Row>
std::vector<std::uint8_t> to_bytes(const Row& row) {
  std::vector<std::uint8_t> out;
  Encoder enc(&out);
  enc.reserve(Row::kSlotSize);
  row.encode(enc);
  return out;
}

/// Parses a row, aborting on corruption (row bytes come from our own pages;
/// damage would be an engine bug, which tests must surface loudly).
template <typename Row>
Row from_bytes(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  auto row = Row::decode(dec);
  VDB_CHECK_MSG(row.is_ok(), "row decode failed");
  return std::move(row).value();
}

}  // namespace vdb::tpcc
