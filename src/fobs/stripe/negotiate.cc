#include "fobs/stripe/negotiate.h"

#include <cstring>

#include "common/byte_order.h"
#include "common/crc32.h"

namespace fobs::stripe {

namespace {

using util::get_u16;
using util::get_u32;
using util::get_u64;
using util::put_u16;
using util::put_u32;
using util::put_u64;

bool valid_layout(std::uint8_t raw) {
  return raw == static_cast<std::uint8_t>(StripeLayout::kContiguous) ||
         raw == static_cast<std::uint8_t>(StripeLayout::kRoundRobin);
}

/// Seals everything after the 8-byte token, mirroring resume frames.
void seal(std::vector<std::uint8_t>& frame) {
  const std::size_t body = frame.size() - 8 - kStripeTrailerSize;
  put_u32(frame.data() + 8 + body, fobs::util::crc32(frame.data() + 8, body));
}

bool check_seal(const std::uint8_t* data, std::size_t frame_size) {
  const std::size_t body = frame_size - 8 - kStripeTrailerSize;
  return fobs::util::crc32(data + 8, body) == get_u32(data + 8 + body);
}

}  // namespace

std::size_t stripe_request_size(int stripes) {
  return kStripeRequestFixedSize + static_cast<std::size_t>(stripes) * 2 + kStripeTrailerSize;
}

std::size_t stripe_response_size(int stripes) {
  return kStripeResponseFixedSize + static_cast<std::size_t>(stripes) * 2 + kStripeTrailerSize;
}

std::vector<std::uint8_t> encode_stripe_request(const StripeRequest& request) {
  const int stripes = static_cast<int>(request.data_ports.size());
  std::vector<std::uint8_t> out(stripe_request_size(stripes));
  put_u64(out.data(), kStripeToken);
  out[8] = kStripeVersion;
  out[9] = static_cast<std::uint8_t>(request.layout);
  out[10] = 0;  // reserved
  put_u16(out.data() + 11, static_cast<std::uint16_t>(stripes));
  put_u64(out.data() + 13, static_cast<std::uint64_t>(request.object_bytes));
  put_u64(out.data() + 21, static_cast<std::uint64_t>(request.packet_bytes));
  for (int i = 0; i < stripes; ++i) {
    put_u16(out.data() + kStripeRequestFixedSize + static_cast<std::size_t>(i) * 2,
            request.data_ports[static_cast<std::size_t>(i)]);
  }
  seal(out);
  return out;
}

std::vector<std::uint8_t> encode_stripe_response(const StripeResponse& response) {
  const int stripes = response.accepted();
  std::vector<std::uint8_t> out(stripe_response_size(stripes));
  put_u64(out.data(), kStripeToken);
  out[8] = kStripeVersion;
  out[9] = static_cast<std::uint8_t>(response.layout);
  out[10] = 0;  // flags
  put_u16(out.data() + 11, static_cast<std::uint16_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    put_u16(out.data() + kStripeResponseFixedSize + static_cast<std::size_t>(i) * 2,
            response.control_ports[static_cast<std::size_t>(i)]);
  }
  seal(out);
  return out;
}

std::optional<StripeRequest> decode_stripe_request(const std::uint8_t* data, std::size_t len) {
  if (len < kStripeRequestFixedSize + kStripeTrailerSize) return std::nullopt;
  if (get_u64(data) != kStripeToken || data[8] != kStripeVersion) return std::nullopt;
  if (!valid_layout(data[9])) return std::nullopt;
  const int stripes = get_u16(data + 11);
  if (stripes < 1 || stripes > kMaxStripes) return std::nullopt;
  const std::size_t frame_size = stripe_request_size(stripes);
  if (len < frame_size || !check_seal(data, frame_size)) return std::nullopt;
  StripeRequest request;
  request.layout = static_cast<StripeLayout>(data[9]);
  request.object_bytes = static_cast<std::int64_t>(get_u64(data + 13));
  request.packet_bytes = static_cast<std::int64_t>(get_u64(data + 21));
  if (request.object_bytes <= 0 || request.packet_bytes <= 0) return std::nullopt;
  request.data_ports.resize(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    request.data_ports[static_cast<std::size_t>(i)] =
        get_u16(data + kStripeRequestFixedSize + static_cast<std::size_t>(i) * 2);
  }
  return request;
}

std::optional<StripeResponse> decode_stripe_response(const std::uint8_t* data, std::size_t len) {
  if (len < kStripeResponseFixedSize + kStripeTrailerSize) return std::nullopt;
  if (get_u64(data) != kStripeToken || data[8] != kStripeVersion) return std::nullopt;
  if (!valid_layout(data[9])) return std::nullopt;
  const int stripes = get_u16(data + 11);
  if (stripes > kMaxStripes) return std::nullopt;
  const std::size_t frame_size = stripe_response_size(stripes);
  if (len < frame_size || !check_seal(data, frame_size)) return std::nullopt;
  StripeResponse response;
  response.layout = static_cast<StripeLayout>(data[9]);
  response.control_ports.resize(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    response.control_ports[static_cast<std::size_t>(i)] =
        get_u16(data + kStripeResponseFixedSize + static_cast<std::size_t>(i) * 2);
  }
  return response;
}

}  // namespace fobs::stripe
