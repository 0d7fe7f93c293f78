// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// Used as the per-packet payload checksum on the POSIX wire format and
// as the integrity seal on resume checkpoints and negotiation frames —
// strong enough to reject the random corruption the fault-injection
// harness produces. It runs once per data packet on each side, so it
// is built for speed: carry-less-multiply folding on x86-64 CPUs with
// PCLMULQDQ (picked once per process at run time), a byte-at-a-time
// table loop everywhere else and for inputs under 64 bytes. Both paths
// give the same output (see common/crc32_detail.h).
#pragma once

#include <cstddef>
#include <cstdint>

namespace fobs::util {

/// CRC of `len` bytes starting from `seed` (pass the previous return
/// value to checksum discontiguous regions as one stream).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0);

}  // namespace fobs::util
