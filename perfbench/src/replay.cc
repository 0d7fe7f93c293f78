// Layer replays for the traced run: each layer's public functions are
// called from outside the layer at the workload's packet size over one
// object's packet count, timed as whole loops (the cores take clock
// reads only at ACK boundaries), repeated, and reduced to the median.
#include <arpa/inet.h>
#include <netinet/in.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "bench.h"
#include "common/crc32.h"
#include "fobs/posix/codec.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"

namespace perfbench {

namespace {

namespace fp = fobs::posix;
using fobs::core::PacketSeq;

constexpr int kRepeats = 3;
constexpr std::size_t kRing = 32;  // receive slots, as in DatagramChannel's pool
constexpr std::int64_t kMaxPumpDatagrams = 16384;
/// Bytes one pump batch may queue, kept under a default SO_RCVBUF so
/// the loopback pump measures the channel, not socket-buffer drops.
constexpr std::size_t kPumpBatchBytes = 64 << 10;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Keeps replay results observable so the loops are not optimised away.
volatile std::uint64_t g_sink = 0;

/// Median over kRepeats runs of `once`.
double median_of(const std::function<double()>& once) {
  std::vector<double> values;
  for (int i = 0; i < kRepeats; ++i) values.push_back(once());
  return median(values);
}

struct CoreReplay {
  double select_ns = 0.0;
  double place_ns = 0.0;
  double ack_build_apply_ns = 0.0;
  double ack_codec_ns = 0.0;
  double acks_per_pkt = 0.0;
};

/// One pass of the sender and receiver cores over the object: the
/// sender selects every packet once, the receiver places them in that
/// order, and every due ACK is built, encoded, decoded and applied.
CoreReplay replay_cores_once(const fobs::core::TransferSpec& spec) {
  const std::int64_t n = spec.packet_count();
  CoreReplay out;
  fobs::core::SenderCore tx(spec, fobs::core::SenderConfig{});
  std::vector<PacketSeq> order(static_cast<std::size_t>(n));
  const auto t0 = Clock::now();
  for (auto& seq : order) seq = tx.select_next().value_or(0);
  out.select_ns = ns_between(t0, Clock::now()) / static_cast<double>(n);

  fobs::core::ReceiverCore rx(spec, fobs::core::ReceiverConfig{});
  double place = 0.0;
  double build_apply = 0.0;
  double codec = 0.0;
  std::int64_t acks = 0;
  auto segment = Clock::now();
  for (const PacketSeq seq : order) {
    if (!rx.on_data_packet(seq).ack_due) continue;
    const auto placed = Clock::now();
    const auto ack = rx.make_ack();
    const auto built = Clock::now();
    const auto wire = fp::encode_ack(ack);
    const auto decoded = fp::decode_ack(wire.data(), wire.size());
    const auto coded = Clock::now();
    if (!decoded) throw std::runtime_error("ACK replay: decode_ack rejected its own encoding");
    g_sink = g_sink + static_cast<std::uint64_t>(tx.on_ack(*decoded));
    const auto applied = Clock::now();
    place += ns_between(segment, placed);
    build_apply += ns_between(placed, built) + ns_between(coded, applied);
    codec += ns_between(built, coded);
    ++acks;
    segment = applied;
  }
  place += ns_between(segment, Clock::now());
  if (!rx.complete()) throw std::runtime_error("core replay: receiver did not complete");
  out.place_ns = place / static_cast<double>(n);
  out.acks_per_pkt = static_cast<double>(acks) / static_cast<double>(n);
  if (acks > 0) {
    out.ack_build_apply_ns = build_apply / static_cast<double>(acks);
    out.ack_codec_ns = codec / static_cast<double>(acks);
  }
  return out;
}

/// Loopback pump through two DatagramChannels at the workload's
/// datagram size: batches of data datagrams out, drained back in.
/// Returns {send ns, recv ns} per datagram received.
std::pair<double, double> pump_once(std::span<const std::uint8_t> object,
                                    std::int64_t packet_bytes, std::uint16_t port) {
  const std::size_t datagram = fp::kDataHeaderSize + static_cast<std::size_t>(packet_bytes);
  std::string error;
  auto rx = fobs::net::DatagramChannel::open(fobs::net::IoOptions{}, datagram, port, &error);
  if (!rx.valid()) throw std::runtime_error("pump receiver: " + error);
  auto tx = fobs::net::DatagramChannel::open(fobs::net::IoOptions{}, datagram, std::nullopt,
                                             &error);
  if (!tx.valid()) throw std::runtime_error("pump sender: " + error);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(port);
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  const fobs::core::TransferSpec spec{static_cast<std::int64_t>(object.size()), packet_bytes};
  const std::int64_t total = std::min(spec.packet_count(), kMaxPumpDatagrams);
  const std::size_t batch = std::clamp<std::size_t>(kPumpBatchBytes / datagram, 1, kRing);
  std::vector<std::array<std::uint8_t, fp::kDataHeaderSize>> headers(batch);
  std::vector<fobs::net::DatagramView> views(batch);
  std::vector<fobs::net::RecvView> received(kRing);
  double send_ns = 0.0;
  double recv_ns = 0.0;
  std::int64_t got = 0;
  for (std::int64_t next = 0; next < total;) {
    std::size_t count = 0;
    for (; count < batch && next < total; ++count, ++next) {
      const auto len = static_cast<std::size_t>(spec.payload_bytes(next));
      const auto* payload = object.data() + spec.offset_of(next);
      fp::encode_data_header({next, fp::payload_crc(payload, len)}, headers[count].data());
      views[count] = {headers[count], {payload, len}};
    }
    const auto t0 = Clock::now();
    if (!tx.send_batch({views.data(), count}, dest, &error)) {
      throw std::runtime_error("pump send: " + error);
    }
    const auto t1 = Clock::now();
    int n = 0;
    while ((n = rx.recv_batch(received, &error)) > 0) got += n;
    if (n < 0) throw std::runtime_error("pump recv: " + error);
    send_ns += ns_between(t0, t1);
    recv_ns += ns_between(t1, Clock::now());
  }
  if (got == 0) throw std::runtime_error("pump: no datagram came back");
  return {send_ns / static_cast<double>(got), recv_ns / static_cast<double>(got)};
}

}  // namespace

double ReplayResult::sender_ns_per_pkt(std::int64_t packet_bytes) const {
  return crc_ns_per_kib * static_cast<double>(packet_bytes) / 1024.0 + data_header_encode_ns +
         select_ns + channel_send_ns;
}

double ReplayResult::receiver_ns_per_pkt() const {
  return channel_recv_ns + data_header_decode_ns + placement_ns_per_pkt + place_ns +
         acks_per_pkt * (ack_build_apply_ns + ack_codec_ns);
}

ReplayResult replay_layers(std::int64_t object_bytes, std::int64_t packet_bytes,
                           std::uint64_t seed, std::uint16_t pump_port) {
  std::vector<std::uint8_t> object(static_cast<std::size_t>(object_bytes));
  std::vector<std::uint8_t> dest(object.size());
  fill_random(object, seed);
  const fobs::core::TransferSpec spec{object_bytes, packet_bytes};
  const std::int64_t n = spec.packet_count();
  const auto packets = static_cast<double>(n);
  ReplayResult r;

  r.crc_ns_per_kib = median_of([&] {
    std::uint32_t acc = 0;
    const auto t0 = Clock::now();
    for (PacketSeq seq = 0; seq < n; ++seq) {
      acc ^= fobs::util::crc32(object.data() + spec.offset_of(seq),
                               static_cast<std::size_t>(spec.payload_bytes(seq)));
    }
    const double ns = ns_between(t0, Clock::now());
    g_sink = g_sink + acc;
    return ns / (static_cast<double>(object_bytes) / 1024.0);
  });

  // Receive placement: a datagram's payload sits in one of the pooled
  // receive slots; its CRC is checked and it is copied into the object
  // at the packet's offset.
  std::vector<std::uint8_t> ring(kRing * static_cast<std::size_t>(packet_bytes));
  for (std::size_t slot = 0; slot < kRing; ++slot) {
    fill_random({ring.data() + slot * static_cast<std::size_t>(packet_bytes),
                 static_cast<std::size_t>(packet_bytes)},
                seed + slot);
  }
  r.placement_ns_per_pkt = median_of([&] {
    std::uint32_t acc = 0;
    const auto t0 = Clock::now();
    for (PacketSeq seq = 0; seq < n; ++seq) {
      const auto len = static_cast<std::size_t>(spec.payload_bytes(seq));
      const std::uint8_t* slot =
          ring.data() + static_cast<std::size_t>(seq) % kRing * static_cast<std::size_t>(packet_bytes);
      acc ^= fp::payload_crc(slot, len);
      std::memcpy(dest.data() + spec.offset_of(seq), slot, len);
    }
    const double ns = ns_between(t0, Clock::now());
    g_sink = g_sink + acc + dest[static_cast<std::size_t>(seed % dest.size())];
    return ns / packets;
  });

  std::vector<std::array<std::uint8_t, fp::kDataHeaderSize>> headers(kRing);
  r.data_header_encode_ns = median_of([&] {
    const auto t0 = Clock::now();
    for (PacketSeq seq = 0; seq < n; ++seq) {
      fp::encode_data_header({seq, static_cast<std::uint32_t>(seq * 2654435761u)},
                             headers[static_cast<std::size_t>(seq) % kRing].data());
    }
    const double ns = ns_between(t0, Clock::now());
    g_sink = g_sink + headers[0][7];
    return ns / packets;
  });
  r.data_header_decode_ns = median_of([&] {
    std::int64_t acc = 0;
    const auto t0 = Clock::now();
    for (PacketSeq seq = 0; seq < n; ++seq) {
      const auto& h = headers[static_cast<std::size_t>(seq) % kRing];
      if (const auto decoded = fp::decode_data_header(h.data(), h.size())) acc += decoded->seq;
    }
    const double ns = ns_between(t0, Clock::now());
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
    return ns / packets;
  });

  std::vector<CoreReplay> cores;
  for (int i = 0; i < kRepeats; ++i) cores.push_back(replay_cores_once(spec));
  const auto core_median = [&](double CoreReplay::*field) {
    std::vector<double> values;
    for (const auto& c : cores) values.push_back(c.*field);
    return median(values);
  };
  r.select_ns = core_median(&CoreReplay::select_ns);
  r.place_ns = core_median(&CoreReplay::place_ns);
  r.ack_build_apply_ns = core_median(&CoreReplay::ack_build_apply_ns);
  r.ack_codec_ns = core_median(&CoreReplay::ack_codec_ns);
  r.acks_per_pkt = core_median(&CoreReplay::acks_per_pkt);

  std::vector<double> send;
  std::vector<double> recv;
  for (int i = 0; i < kRepeats; ++i) {
    const auto [s, rcv] = pump_once(object, packet_bytes, pump_port);
    send.push_back(s);
    recv.push_back(rcv);
  }
  r.channel_send_ns = median(send);
  r.channel_recv_ns = median(recv);
  return r;
}

}  // namespace perfbench
