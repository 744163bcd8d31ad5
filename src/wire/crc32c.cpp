#include "wire/crc32c.hpp"

#include <array>

namespace qosnp::wire {
namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][i] is the CRC of byte i
/// followed by k zero bytes, so eight lookups advance the CRC by eight bytes.
constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load assembled from bytes (a single load on
/// little-endian targets, correct on every target).
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const Tables& t = kTables;
  std::uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

}  // namespace qosnp::wire
