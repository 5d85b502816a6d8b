#include "common/codec.hpp"

#include <array>
#include <cstring>

namespace vdb {

Result<std::vector<std::uint8_t>> Decoder::get_bytes() {
  auto len = get_u32();
  if (!len.is_ok()) return len.status();
  if (remaining() < len.value()) {
    return Status{ErrorCode::kCorruption, "decoder: truncated blob"};
  }
  std::vector<std::uint8_t> out(data_.begin() + static_cast<long>(pos_),
                                data_.begin() + static_cast<long>(pos_) +
                                    len.value());
  pos_ += len.value();
  return out;
}

Result<std::string> Decoder::get_string() {
  auto len = get_u32();
  if (!len.is_ok()) return len.status();
  if (remaining() < len.value()) {
    return Status{ErrorCode::kCorruption, "decoder: truncated blob"};
  }
  // Build the string straight from the input span — no intermediate
  // byte-vector copy.
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                  len.value());
  pos_ += len.value();
  return out;
}

namespace {

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
// table[k] advances a byte through k additional zero bytes, letting the hot
// loop fold 8 input bytes per iteration with 8 independent lookups. Same
// polynomial, same checksums — only the stride changes.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
    tables[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

}  // namespace

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  static const auto kTables = make_crc_tables();
  const auto& t = kTables;
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
    ++p;
    --n;
  }
  return ~crc;
}

#if defined(__x86_64__)

bool crc32c_hardware_supported() {
  static const bool kSupported = [] {
    __builtin_cpu_init();  // in case the first checksum runs at static init
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return kSupported;
}

// Compiled for SSE4.2 on its own (no build flag), so the binary still runs
// on CPUs without it; crc32c() only calls it after the feature check. The
// CRC32 instruction uses the Castagnoli polynomial with the same bit order
// as the tables above, so both paths produce identical checksums.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hardware(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  const std::uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = __builtin_ia32_crc32di(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n > 0) {
    crc32 = __builtin_ia32_crc32qi(crc32, *p);
    ++p;
    --n;
  }
  return ~crc32;
}

#else

bool crc32c_hardware_supported() { return false; }

std::uint32_t crc32c_hardware(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  return crc32c_portable(data, seed);
}

#endif

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return crc32c_hardware_supported() ? crc32c_hardware(data, seed)
                                     : crc32c_portable(data, seed);
}

}  // namespace vdb
