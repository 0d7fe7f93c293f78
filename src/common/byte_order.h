// Big-endian (network order) field encoding for every FOBS wire and
// disk format: the POSIX packet/ACK codec, the control-channel frames,
// the FOBSSTRP negotiation and the checkpoint file.
#pragma once

#include <cstdint>

namespace fobs::util {

inline void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

[[nodiscard]] inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

inline void put_u32(std::uint8_t* p, std::uint32_t v) {
  put_u16(p, static_cast<std::uint16_t>(v >> 16));
  put_u16(p + 2, static_cast<std::uint16_t>(v));
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(get_u16(p)) << 16) | get_u16(p + 2);
}

inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v >> 32));
  put_u32(p + 4, static_cast<std::uint32_t>(v));
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(get_u32(p)) << 32) | get_u32(p + 4);
}

}  // namespace fobs::util
