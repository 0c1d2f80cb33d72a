#include "util/crc32.h"

#include <array>
#include <cstdio>

namespace certa::util {
namespace {

/// 256-entry table for the reflected IEEE polynomial, built once at
/// static-init time (cheap: 256 * 8 shifts).
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const auto& table = Table();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

uint32_t Crc32(const std::string& data) {
  return Crc32Update(0, data.data(), data.size());
}

std::string Crc32Hex(uint32_t crc) {
  char buffer[9];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc);
  return std::string(buffer, 8);
}

bool ParseCrc32Hex(std::string_view text, uint32_t* crc) {
  if (text.size() != 8) return false;
  uint32_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint32_t>(digit);
  }
  *crc = value;
  return true;
}

}  // namespace certa::util
