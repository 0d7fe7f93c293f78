#include "fobs/posix/codec.h"

#include <cstring>

#include "common/byte_order.h"
#include "common/crc32.h"

namespace fobs::posix {

namespace {

using util::get_u32;
using util::get_u64;
using util::put_u32;
using util::put_u64;

constexpr std::size_t kAckFixedSize = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 4;  // 48 bytes

}  // namespace

void encode_data_header(const DataHeader& header, std::uint8_t* out) {
  put_u32(out, kMagic);
  out[4] = kTypeData;
  out[5] = out[6] = out[7] = 0;
  put_u64(out + 8, static_cast<std::uint64_t>(header.seq));
  put_u32(out + 16, header.payload_crc);
}

std::optional<DataHeader> decode_data_header(const std::uint8_t* data, std::size_t len) {
  if (len < kDataHeaderSize) return std::nullopt;
  if (get_u32(data) != kMagic || data[4] != kTypeData) return std::nullopt;
  DataHeader header;
  header.seq = static_cast<fobs::core::PacketSeq>(get_u64(data + 8));
  header.payload_crc = get_u32(data + 16);
  return header;
}

std::uint32_t payload_crc(const std::uint8_t* payload, std::size_t len) {
  return fobs::util::crc32(payload, len);
}

std::vector<std::uint8_t> encode_ack(const fobs::core::AckMessage& ack) {
  std::vector<std::uint8_t> out(kAckFixedSize + ack.fragment.size());
  put_u32(out.data(), kMagic);
  out[4] = kTypeAck;
  out[5] = ack.complete ? 1 : 0;
  out[6] = out[7] = 0;
  put_u64(out.data() + 8, ack.ack_no);
  put_u64(out.data() + 16, static_cast<std::uint64_t>(ack.total_received));
  put_u64(out.data() + 24, static_cast<std::uint64_t>(ack.frontier));
  put_u64(out.data() + 32, static_cast<std::uint64_t>(ack.fragment_start));
  put_u32(out.data() + 40, static_cast<std::uint32_t>(ack.fragment_bits));
  put_u32(out.data() + 44, ack.epoch);
  if (!ack.fragment.empty()) {
    std::memcpy(out.data() + kAckFixedSize, ack.fragment.data(), ack.fragment.size());
  }
  return out;
}

std::optional<fobs::core::AckMessage> decode_ack(const std::uint8_t* data, std::size_t len) {
  if (len < kAckFixedSize) return std::nullopt;
  if (get_u32(data) != kMagic || data[4] != kTypeAck) return std::nullopt;
  fobs::core::AckMessage ack;
  ack.complete = data[5] != 0;
  ack.ack_no = get_u64(data + 8);
  ack.total_received = static_cast<std::int64_t>(get_u64(data + 16));
  ack.frontier = static_cast<fobs::core::PacketSeq>(get_u64(data + 24));
  ack.fragment_start = static_cast<fobs::core::PacketSeq>(get_u64(data + 32));
  ack.fragment_bits = static_cast<std::int32_t>(get_u32(data + 40));
  ack.epoch = get_u32(data + 44);
  // Reject absurd fragment sizes before touching any allocation path: a
  // legitimate fragment fits in one datagram, so a hostile/corrupt
  // 2^31-ish bit count cannot force a giant allocation here.
  if (ack.fragment_bits < 0 || ack.fragment_bits > kMaxAckFragmentBits) return std::nullopt;
  const std::size_t expected = (static_cast<std::size_t>(ack.fragment_bits) + 7) / 8;
  if (len < kAckFixedSize + expected) return std::nullopt;
  ack.fragment.assign(data + kAckFixedSize, data + kAckFixedSize + expected);
  return ack;
}

std::vector<std::uint8_t> encode_resume(std::int64_t packet_count,
                                        std::int64_t received_count,
                                        const std::vector<std::uint8_t>& bitmap) {
  std::vector<std::uint8_t> out(kResumeFixedSize + bitmap.size() + kResumeTrailerSize);
  put_u64(out.data(), kResumeToken);
  put_u64(out.data() + 8, static_cast<std::uint64_t>(packet_count));
  put_u64(out.data() + 16, static_cast<std::uint64_t>(received_count));
  put_u32(out.data() + 24, static_cast<std::uint32_t>(bitmap.size()));
  if (!bitmap.empty()) {
    std::memcpy(out.data() + kResumeFixedSize, bitmap.data(), bitmap.size());
  }
  // Seal everything after the token so a desynced stream cannot smuggle
  // a plausible-looking bitmap through.
  const std::uint32_t crc =
      fobs::util::crc32(out.data() + 8, kResumeFixedSize - 8 + bitmap.size());
  put_u32(out.data() + kResumeFixedSize + bitmap.size(), crc);
  return out;
}

std::size_t resume_frame_size(std::int64_t packet_count) {
  const auto bitmap_bytes = static_cast<std::size_t>((packet_count + 7) / 8);
  return kResumeFixedSize + bitmap_bytes + kResumeTrailerSize;
}

std::optional<ResumeFrame> decode_resume(const std::uint8_t* data, std::size_t len) {
  if (len < kResumeFixedSize + kResumeTrailerSize) return std::nullopt;
  if (get_u64(data) != kResumeToken) return std::nullopt;
  ResumeFrame frame;
  frame.packet_count = static_cast<std::int64_t>(get_u64(data + 8));
  frame.received_count = static_cast<std::int64_t>(get_u64(data + 16));
  const std::size_t bitmap_len = get_u32(data + 24);
  if (frame.packet_count < 0 || frame.received_count < 0) return std::nullopt;
  // The bitmap length field is 32-bit, so any packet count its 8x can't
  // express is malformed (also avoids overflow in the division below).
  if (frame.packet_count > static_cast<std::int64_t>(0xFFFFFFFFull) * 8) return std::nullopt;
  if (bitmap_len != static_cast<std::size_t>((frame.packet_count + 7) / 8)) {
    return std::nullopt;
  }
  if (len < kResumeFixedSize + bitmap_len + kResumeTrailerSize) return std::nullopt;
  const std::uint32_t crc = fobs::util::crc32(data + 8, kResumeFixedSize - 8 + bitmap_len);
  if (crc != get_u32(data + kResumeFixedSize + bitmap_len)) return std::nullopt;
  frame.bitmap.assign(data + kResumeFixedSize, data + kResumeFixedSize + bitmap_len);
  return frame;
}

}  // namespace fobs::posix
