#ifndef CERTA_UTIL_CRC32_H_
#define CERTA_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace certa::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// guarding every write-ahead-journal record and checkpoint payload in
/// src/persist. Chosen over a truncated 64-bit hash because its failure
/// modes under the faults we defend against (torn writes, single bit
/// flips, stray zero fill) are well understood: any burst error of up
/// to 32 bits is detected with certainty.

/// One-shot CRC of a buffer.
uint32_t Crc32(const void* data, size_t size);

/// One-shot CRC of a string payload.
uint32_t Crc32(const std::string& data);

/// Incremental form: feed `crc` from a previous call (or 0 to start)
/// to checksum discontiguous buffers as one stream.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// The CRC as 8 lowercase hex digits — the text framing of the stream
/// WAL and the stream checkpoint.
std::string Crc32Hex(uint32_t crc);

/// Parses exactly 8 lowercase hex digits; false on anything else.
bool ParseCrc32Hex(std::string_view text, uint32_t* crc);

}  // namespace certa::util

#endif  // CERTA_UTIL_CRC32_H_
