// The two CRC-32 implementations behind fobs::util::crc32, exposed so
// tests and benches can check and time each one directly. Not part of
// the public API: callers use crc32(), which picks a path once per
// process.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fobs::util::detail {

/// Byte-at-a-time table path: runs on any CPU, any length.
[[nodiscard]] std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t len,
                                           std::uint32_t seed);

/// True when this CPU can run crc32_pclmul (x86-64 with PCLMULQDQ and
/// SSE4.1); always false elsewhere.
[[nodiscard]] bool crc32_pclmul_supported();

/// Carry-less-multiply folding path (4x128-bit lanes, Barrett
/// reduction); inputs under 64 bytes and the sub-16-byte tail go
/// through the portable path. Only call it when crc32_pclmul_supported()
/// is true.
[[nodiscard]] std::uint32_t crc32_pclmul(const std::uint8_t* data, std::size_t len,
                                         std::uint32_t seed);

}  // namespace fobs::util::detail
