// Striped multi-flow FOBS: the acceptance suite for the striping
// subsystem (fobs/stripe/).
//
//  - StripePlan: both layouts partition the packet space disjointly and
//    completely, the shared round_robin_split rule, rejection edges.
//  - FOBSSTRP codec: round-trips and garbage rejection.
//  - Checkpoints: the union of a base's files from any plan, files that
//    do not belong to it or are torn skipped, and the one-scan removal
//    of every sidecar.
//  - Loopback transfers over real sockets: a 4-stripe >= 64 MiB
//    transfer lands byte-identical (checksum-verified); killing one
//    stripe's flow mid-transfer degrades but stays resumable, and
//    retries with 4, 1 or 2 stripes (and 3 -> 2) resume every stored
//    packet and complete byte-identical; a striped fetch against a plain
//    pre-striping sender falls back to one flow cleanly, and so does a
//    striped sender with no control ports left; a host that is not an
//    IPv4 literal is refused before negotiating.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/bitmap.h"
#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/engine.h"
#include "fobs/posix/fileserver.h"
#include "fobs/stripe/negotiate.h"
#include "fobs/stripe/plan.h"
#include "fobs/stripe/striped_transfer.h"
#include "net/socket.h"
#include "telemetry/metrics.h"
#include "test_ports.h"

namespace fobs {
namespace {

using core::TransferSpec;
using stripe::StripeLayout;
using stripe::StripePlan;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// StripePlan
// ---------------------------------------------------------------------------

void expect_partition_is_disjoint_and_complete(const StripePlan& plan) {
  const auto& spec = plan.spec();
  const std::int64_t packets = spec.packet_count();
  std::int64_t total_packets = 0;
  std::int64_t total_bytes = 0;
  std::set<std::int64_t> seen;
  for (int s = 0; s < plan.stripe_count(); ++s) {
    EXPECT_GE(plan.stripe_packets(s), 1) << "stripe " << s << " is empty";
    total_packets += plan.stripe_packets(s);
    total_bytes += plan.stripe_bytes(s);
    for (std::int64_t local = 0; local < plan.stripe_packets(s); ++local) {
      const auto global = plan.to_global(s, local);
      EXPECT_GE(global, 0);
      EXPECT_LT(global, packets);
      EXPECT_TRUE(seen.insert(global).second) << "global " << global << " owned twice";
      // to_local is the exact inverse.
      const auto [back_s, back_local] = plan.to_local(global);
      EXPECT_EQ(back_s, s);
      EXPECT_EQ(back_local, local);
      // The plan's offset matches the whole-object offset of the
      // global packet, and the stripe-local spec's payload size
      // matches the global packet's payload size.
      EXPECT_EQ(plan.global_offset(s, local), spec.offset_of(global));
      EXPECT_EQ(plan.stripe_spec(s).payload_bytes(local), spec.payload_bytes(global));
    }
  }
  EXPECT_EQ(total_packets, packets);
  EXPECT_EQ(total_bytes, spec.object_bytes);
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), packets);
}

TEST(StripePlan, PartitionsAreDisjointAndCompleteForBothLayouts) {
  // Geometries chosen to cover: even split, remainder packets, a short
  // last packet, stripes == packets, and a single packet.
  const std::vector<TransferSpec> specs = {
      {64 * 1024, 1024},     // 64 even packets
      {65 * 1024 + 17, 1024},  // short last packet, remainder spread
      {7 * 512 + 100, 512},  // 8 packets, short tail
      {1000, 1000},          // exactly one packet
  };
  for (const auto& spec : specs) {
    for (const auto layout : {StripeLayout::kContiguous, StripeLayout::kRoundRobin}) {
      const int max = StripePlan::max_stripes(spec);
      for (int stripes : {1, 2, 3, 4, max}) {
        if (stripes < 1 || stripes > max) continue;
        StripePlan plan;
        std::string error;
        ASSERT_TRUE(StripePlan::make(spec, stripes, layout, &plan, &error))
            << to_string(layout) << " x" << stripes << ": " << error;
        expect_partition_is_disjoint_and_complete(plan);
      }
    }
  }
}

TEST(StripePlan, ShortLastPacketIsTheLastLocalPacketOfItsStripe) {
  const TransferSpec spec{10 * 1024 + 7, 1024};  // 11 packets, last is 7 B
  for (const auto layout : {StripeLayout::kContiguous, StripeLayout::kRoundRobin}) {
    StripePlan plan;
    ASSERT_TRUE(StripePlan::make(spec, 4, layout, &plan));
    const auto [owner, local] = plan.to_local(spec.packet_count() - 1);
    EXPECT_EQ(local, plan.stripe_packets(owner) - 1)
        << to_string(layout) << ": short packet must be its stripe's last local packet";
    EXPECT_EQ(plan.stripe_spec(owner).payload_bytes(local), 7);
  }
}

TEST(StripePlan, RejectsUnsatisfiableRequests) {
  StripePlan plan;
  std::string error;
  // More stripes than packets: an empty stripe would dead-lock.
  EXPECT_FALSE(StripePlan::make({4 * 1024, 1024}, 5, StripeLayout::kContiguous, &plan, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(StripePlan::make({4 * 1024, 1024}, 0, StripeLayout::kContiguous, &plan));
  EXPECT_FALSE(StripePlan::make({0, 1024}, 1, StripeLayout::kContiguous, &plan));
  EXPECT_FALSE(StripePlan::make({1024, 0}, 1, StripeLayout::kContiguous, &plan));
  // max_stripes is the usable clamp.
  EXPECT_EQ(StripePlan::max_stripes({4 * 1024, 1024}), 4);
  EXPECT_EQ(StripePlan::max_stripes({1024 * 1024, 1024}), stripe::kMaxStripes);
  EXPECT_EQ(StripePlan::max_stripes({0, 1024}), 0);
}

TEST(StripePlan, RoundRobinSplitFrontLoadsTheRemainder) {
  // The one shared partition rule (also used by the PSockets baseline):
  // bucket i gets total/parts + (i < total % parts).
  const auto split = stripe::round_robin_split(10, 4);
  EXPECT_EQ(split, (std::vector<std::int64_t>{3, 3, 2, 2}));
  const auto even = stripe::round_robin_split(8, 4);
  EXPECT_EQ(even, (std::vector<std::int64_t>{2, 2, 2, 2}));
  const auto big = stripe::round_robin_split(40'000'000, 7);
  EXPECT_EQ(std::accumulate(big.begin(), big.end(), std::int64_t{0}), 40'000'000);
  EXPECT_LE(big.front() - big.back(), 1);
}

// ---------------------------------------------------------------------------
// FOBSSTRP codec
// ---------------------------------------------------------------------------

TEST(StripeNegotiate, RequestRoundTrips) {
  stripe::StripeRequest request;
  request.layout = StripeLayout::kRoundRobin;
  request.object_bytes = 123'456'789;
  request.packet_bytes = 8192;
  request.data_ports = {40001, 40002, 40003};
  const auto wire = stripe::encode_stripe_request(request);
  EXPECT_EQ(wire.size(), stripe::stripe_request_size(3));
  const auto decoded = stripe::decode_stripe_request(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->layout, request.layout);
  EXPECT_EQ(decoded->object_bytes, request.object_bytes);
  EXPECT_EQ(decoded->packet_bytes, request.packet_bytes);
  EXPECT_EQ(decoded->data_ports, request.data_ports);
}

TEST(StripeNegotiate, ResponseRoundTripsIncludingRefusal) {
  stripe::StripeResponse response;
  response.layout = StripeLayout::kContiguous;
  response.control_ports = {41001, 41002};
  const auto wire = stripe::encode_stripe_response(response);
  const auto decoded = stripe::decode_stripe_response(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->accepted(), 2);
  EXPECT_EQ(decoded->control_ports, response.control_ports);

  // Zero accepted stripes is the explicit "run single-flow" refusal.
  const auto refusal_wire = stripe::encode_stripe_response({StripeLayout::kContiguous, {}});
  const auto refusal = stripe::decode_stripe_response(refusal_wire.data(), refusal_wire.size());
  ASSERT_TRUE(refusal.has_value());
  EXPECT_EQ(refusal->accepted(), 0);
}

TEST(StripeNegotiate, RejectsGarbage) {
  stripe::StripeRequest request;
  request.object_bytes = 4096;
  request.packet_bytes = 1024;
  request.data_ports = {40001};
  auto wire = stripe::encode_stripe_request(request);
  // Bad token.
  auto bad_token = wire;
  bad_token[0] ^= 0xFF;
  EXPECT_FALSE(stripe::decode_stripe_request(bad_token.data(), bad_token.size()).has_value());
  // Bad version.
  auto bad_version = wire;
  bad_version[8] = 99;
  EXPECT_FALSE(
      stripe::decode_stripe_request(bad_version.data(), bad_version.size()).has_value());
  // Flipped payload bit breaks the CRC seal.
  auto bad_crc = wire;
  bad_crc[15] ^= 0x01;
  EXPECT_FALSE(stripe::decode_stripe_request(bad_crc.data(), bad_crc.size()).has_value());
  // Truncated frame.
  EXPECT_FALSE(stripe::decode_stripe_request(wire.data(), wire.size() - 1).has_value());
  // A zero-stripe *request* is malformed (only responses may refuse).
  stripe::StripeRequest empty;
  empty.object_bytes = 4096;
  empty.packet_bytes = 1024;
  const auto empty_wire = stripe::encode_stripe_request(empty);
  EXPECT_FALSE(stripe::decode_stripe_request(empty_wire.data(), empty_wire.size()).has_value());
}

// ---------------------------------------------------------------------------
// Striped checkpoints
// ---------------------------------------------------------------------------

/// A checkpoint of `spec`'s whole object marking `globals`.
posix::Checkpoint object_checkpoint(const TransferSpec& spec,
                                    const std::vector<std::int64_t>& globals) {
  const auto packets = static_cast<std::size_t>(spec.packet_count());
  util::Bitmap bits(packets);
  for (const auto g : globals) bits.set(static_cast<std::size_t>(g));
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = spec.object_bytes;
  checkpoint.packet_bytes = spec.packet_bytes;
  checkpoint.received_count = static_cast<std::int64_t>(bits.count());
  checkpoint.bitmap = bits.extract_range(0, packets);
  return checkpoint;
}

/// Global packets `load_checkpoints` reads for `spec` at `base`.
std::set<std::int64_t> loaded_globals(const std::string& base, const TransferSpec& spec) {
  std::set<std::int64_t> globals;
  const auto known = posix::load_checkpoints(base, spec.object_bytes, spec.packet_bytes);
  if (!known) return globals;
  const auto packets = static_cast<std::size_t>(spec.packet_count());
  util::Bitmap bits(packets);
  bits.merge_range(0, packets, known->bitmap.data(), known->bitmap.size());
  for (std::size_t g = 0; g < packets; ++g) {
    if (bits.test(g)) globals.insert(static_cast<std::int64_t>(g));
  }
  EXPECT_EQ(known->received_count, static_cast<std::int64_t>(globals.size()));
  return globals;
}

TEST(StripedCheckpoint, UnionOfFilesFromAnyPlanIsOneObjectBitmap) {
  const std::string base = ::testing::TempDir() + "fobs_stripes_union.ckpt";
  posix::remove_striped_checkpoints(base);
  const TransferSpec spec{64 * 1024 + 321, 4096};  // 17 packets
  EXPECT_EQ(posix::checkpoint_file(base, 1, 0), base);
  EXPECT_EQ(posix::checkpoint_file(base, 3, 2), base + ".s2");

  // What three attempts leave: K = 1 at `<base>`, stripe 1 of a K = 3
  // contiguous plan at `.s1`, stripe 0 of a K = 2 round-robin plan at
  // `.s0`. Every file is in object geometry over global packets.
  StripePlan three;
  ASSERT_TRUE(StripePlan::make(spec, 3, StripeLayout::kContiguous, &three));
  StripePlan two_rr;
  ASSERT_TRUE(StripePlan::make(spec, 2, StripeLayout::kRoundRobin, &two_rr));
  const std::vector<std::int64_t> single = {0, 1, 2};
  const std::vector<std::int64_t> middle = {three.to_global(1, 0), three.to_global(1, 4)};
  const std::vector<std::int64_t> evens = {two_rr.to_global(0, 1), two_rr.to_global(0, 7),
                                           two_rr.to_global(0, 8)};
  ASSERT_TRUE(posix::save_checkpoint(posix::checkpoint_file(base, 1, 0),
                                     object_checkpoint(spec, single)));
  ASSERT_TRUE(posix::save_checkpoint(posix::checkpoint_file(base, 3, 1),
                                     object_checkpoint(spec, middle)));
  ASSERT_TRUE(posix::save_checkpoint(posix::checkpoint_file(base, 2, 0),
                                     object_checkpoint(spec, evens)));

  std::set<std::int64_t> expected(single.begin(), single.end());
  expected.insert(middle.begin(), middle.end());
  expected.insert(evens.begin(), evens.end());
  EXPECT_EQ(loaded_globals(base, spec), expected);
  // Another geometry of the same base reads nothing.
  EXPECT_FALSE(posix::load_checkpoints(base, spec.object_bytes, 1024).has_value());
  posix::remove_striped_checkpoints(base);
  EXPECT_FALSE(posix::load_checkpoints(base, spec.object_bytes, spec.packet_bytes).has_value());
}

TEST(StripedCheckpoint, UnionIgnoresMismatchedAndStripeLocalFiles) {
  const std::string base = ::testing::TempDir() + "fobs_stripes_mismatch.ckpt";
  posix::remove_striped_checkpoints(base);
  const TransferSpec spec{16 * 1024, 1024};
  StripePlan plan;
  ASSERT_TRUE(StripePlan::make(spec, 2, StripeLayout::kContiguous, &plan));
  // A file of another object, and a sidecar in stripe-local geometry
  // (what older releases wrote): stripe_bytes < object_bytes, so it
  // can never pass for an object-level record.
  ASSERT_TRUE(posix::save_checkpoint(base + ".s0", object_checkpoint({999, 128}, {0, 1, 2})));
  ASSERT_TRUE(posix::save_checkpoint(base + ".s1",
                                     object_checkpoint(plan.stripe_spec(1), {0, 1, 2, 3})));
  // A matching record under names that are not files of the base.
  ASSERT_TRUE(posix::save_checkpoint(base + ".s2.tmp", object_checkpoint(spec, {5})));
  ASSERT_TRUE(posix::save_checkpoint(base + "x.s3", object_checkpoint(spec, {6})));
  EXPECT_FALSE(posix::load_checkpoints(base, spec.object_bytes, spec.packet_bytes).has_value());

  ASSERT_TRUE(posix::save_checkpoint(base, object_checkpoint(spec, {9, 10})));
  EXPECT_EQ(loaded_globals(base, spec), (std::set<std::int64_t>{9, 10}));
  posix::remove_striped_checkpoints(base);
  std::remove((base + ".s2.tmp").c_str());
  std::remove((base + "x.s3").c_str());
}

TEST(StripedCheckpoint, UnionSkipsATornFileAndKeepsTheRest) {
  // A crash can tear one stripe's file; the others still count.
  const std::string base = ::testing::TempDir() + "fobs_stripes_torn.ckpt";
  posix::remove_striped_checkpoints(base);
  const TransferSpec spec{16 * 1024, 1024};
  ASSERT_TRUE(posix::save_checkpoint(base + ".s0", object_checkpoint(spec, {0, 1})));
  ASSERT_TRUE(posix::save_checkpoint(base + ".s1", object_checkpoint(spec, {8, 9})));
  ASSERT_TRUE(posix::save_checkpoint(base + ".s2", object_checkpoint(spec, {12})));
  std::filesystem::resize_file(base + ".s1", std::filesystem::file_size(base + ".s1") - 3);
  EXPECT_EQ(loaded_globals(base, spec), (std::set<std::int64_t>{0, 1, 12}));
  posix::remove_striped_checkpoints(base);
  // A base in a directory that does not exist reads nothing.
  EXPECT_FALSE(posix::load_checkpoints(::testing::TempDir() + "fobs_no_such_dir/out.ckpt",
                                       spec.object_bytes, spec.packet_bytes)
                   .has_value());
}

TEST(StripedCheckpoint, RemoveFindsEverySidecarAndNothingElse) {
  const std::string dir = ::testing::TempDir() + "fobs_stripes_remove";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/out.ckpt";
  auto touch = [](const std::string& path) { std::ofstream(path) << "x"; };
  // Sidecars of any stripe index go, including ones no fixed list of
  // names would reach; look-alikes and unrelated files stay.
  for (const char* doomed : {"", ".s0", ".s7", ".s63", ".s64", ".s100"}) touch(base + doomed);
  const std::vector<std::string> kept = {base + ".sx",  base + ".s",    base + ".s7.tmp",
                                         base + "x.s1", dir + "/out.bin", dir + "/other.ckpt.s1"};
  for (const auto& path : kept) touch(path);
  posix::remove_striped_checkpoints(base);
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path().string());
  }
  std::sort(left.begin(), left.end());
  auto expected = kept;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(left, expected);
  // A base whose directory does not exist is a no-op, not an error.
  posix::remove_striped_checkpoints(dir + "/missing/out.ckpt");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Loopback striped transfers (real sockets)
// ---------------------------------------------------------------------------

struct LoopbackRun {
  posix::StripedResult sender;
  posix::StripedResult receiver;
};

/// Runs one striped sender/receiver pair over loopback; the sender on
/// its own thread (run_striped_* must not run on an engine worker).
LoopbackRun run_striped_loopback(posix::TransferEngine& sender_engine,
                                 posix::TransferEngine& receiver_engine,
                                 const posix::StripedSenderOptions& send,
                                 const posix::StripedReceiverOptions& recv,
                                 std::span<const std::uint8_t> object,
                                 std::span<std::uint8_t> buffer) {
  LoopbackRun run;
  std::thread sender(
      [&] { run.sender = sender_engine.run_striped_sender(send, object); });
  run.receiver = receiver_engine.run_striped_receiver(recv, buffer);
  sender.join();
  return run;
}

TEST(StripedTransfer, FourStripes64MiBLandByteIdentical) {
  constexpr std::int64_t kObjectBytes = 64 * 1024 * 1024;
  constexpr std::int64_t kPacketBytes = 8 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0x57121FE5);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(kObjectBytes), 0);

  posix::EngineOptions sender_options;
  sender_options.workers = 4;
  posix::TransferEngine sender_engine(sender_options);
  posix::EngineOptions receiver_options;
  receiver_options.workers = 4;
  posix::TransferEngine receiver_engine(receiver_options);

  posix::StripedSenderOptions send;
  send.negotiation_port = test::port(8);
  send.endpoint.packet_bytes = kPacketBytes;
  posix::StripedReceiverOptions recv;
  recv.negotiation_port = send.negotiation_port;
  recv.stripes = 4;
  recv.endpoint.packet_bytes = kPacketBytes;

  const auto run =
      run_striped_loopback(sender_engine, receiver_engine, send, recv, object.view(), buffer);
  ASSERT_TRUE(run.receiver.completed()) << run.receiver.error;
  ASSERT_TRUE(run.sender.completed()) << run.sender.error;
  EXPECT_EQ(run.receiver.stripes, 4);
  EXPECT_EQ(run.receiver.stripes_completed, 4);
  EXPECT_FALSE(run.receiver.fallback_single_flow);
  EXPECT_EQ(run.sender.stripes, 4);
  // Byte-identical, checksum-verified.
  EXPECT_EQ(fnv1a(buffer.data(), buffer.size()),
            fnv1a(object.view().data(), object.view().size()));
  EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
  EXPECT_GT(run.receiver.goodput_mbps, 0.0);
}

TEST(StripedTransfer, RoundRobinLayoutLandsByteIdentical) {
  constexpr std::int64_t kObjectBytes = 4 * 1024 * 1024 + 999;  // short last packet
  constexpr std::int64_t kPacketBytes = 4 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0x0BB1);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(kObjectBytes), 0);

  posix::EngineOptions sender_options;
  sender_options.workers = 3;
  posix::TransferEngine sender_engine(sender_options);
  posix::EngineOptions receiver_options;
  receiver_options.workers = 3;
  posix::TransferEngine receiver_engine(receiver_options);

  posix::StripedSenderOptions send;
  send.negotiation_port = test::port(24);
  send.endpoint.packet_bytes = kPacketBytes;
  posix::StripedReceiverOptions recv;
  recv.negotiation_port = send.negotiation_port;
  recv.stripes = 3;
  recv.layout = StripeLayout::kRoundRobin;
  recv.endpoint.packet_bytes = kPacketBytes;

  const auto run =
      run_striped_loopback(sender_engine, receiver_engine, send, recv, object.view(), buffer);
  ASSERT_TRUE(run.receiver.completed()) << run.receiver.error;
  EXPECT_EQ(run.receiver.layout, StripeLayout::kRoundRobin);
  EXPECT_EQ(run.receiver.stripes, 3);
  EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
}

/// Copies every checkpoint file of `from` (`from` itself and its
/// `.s<i>` sidecars) to the same name under `to`, replacing `to`'s.
void copy_checkpoints(const std::string& from, const std::string& to) {
  posix::remove_striped_checkpoints(to);
  for (const std::string suffix : {"", ".s0", ".s1", ".s2", ".s3", ".s4", ".s5", ".s6", ".s7"}) {
    if (std::filesystem::exists(from + suffix)) {
      std::filesystem::copy_file(from + suffix, to + suffix);
    }
  }
}

/// One striped attempt over loopback for the checkpoint tests: a fresh
/// engine pair, the object into `buffer`, checkpointing at `base`.
/// The negotiation port is test::port(first_port); control and data
/// ports are kernel-chosen.
posix::StripedResult striped_attempt(std::span<const std::uint8_t> object,
                                     std::vector<std::uint8_t>& buffer,
                                     const std::string& base, int stripes, StripeLayout layout,
                                     std::vector<std::string> fault_plans, int first_port,
                                     posix::StripedResult* sender = nullptr) {
  constexpr std::int64_t kPacketBytes = 8 * 1024;
  constexpr int kTimeoutMs = 4'000;  // give up on a dead stripe fast
  posix::TransferEngine sender_engine(posix::EngineOptions{.workers = 4});
  posix::TransferEngine receiver_engine(posix::EngineOptions{.workers = 4});
  posix::StripedSenderOptions send;
  send.negotiation_port = test::port(first_port);
  send.endpoint.packet_bytes = kPacketBytes;
  send.endpoint.timeout_ms = kTimeoutMs;
  posix::StripedReceiverOptions recv;
  recv.negotiation_port = send.negotiation_port;
  recv.stripes = stripes;
  recv.layout = layout;
  recv.checkpoint_base = base;
  recv.endpoint.packet_bytes = kPacketBytes;
  recv.endpoint.timeout_ms = kTimeoutMs;
  recv.stripe_fault_plans = std::move(fault_plans);
  auto run = run_striped_loopback(sender_engine, receiver_engine, send, recv, object, buffer);
  if (sender != nullptr) *sender = std::move(run.sender);
  return run.receiver;
}

/// Blackholes a stripe's data flow from its first packet: that stripe
/// never stores anything, the others complete. The window must outlast
/// the 4 s budget: over loopback on a 4-vCPU Xeon VM a blackholed
/// stripe still sees 740,000-850,000 datagrams arrive in that time.
const std::string kDeadStripe = "seed=7;data.blackhole=0+1000000000";

TEST(StripedTransfer, KilledStripeDegradesThenResumesByteIdentical) {
  constexpr std::int64_t kObjectBytes = 8 * 1024 * 1024;
  constexpr std::int64_t kPacketBytes = 8 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0xDEAD51);
  std::vector<std::uint8_t> degraded(static_cast<std::size_t>(kObjectBytes), 0);
  const std::string base = ::testing::TempDir() + "fobs_stripes_kill.ckpt";
  posix::remove_striped_checkpoints(base);

  // Attempt 1: K = 4 with stripe 1 dead.
  const auto first = striped_attempt(object.view(), degraded, base, 4,
                                     StripeLayout::kContiguous, {"", kDeadStripe, "", ""}, 32);
  EXPECT_FALSE(first.completed());
  EXPECT_TRUE(first.degraded()) << "expected some stripes delivered, got "
                                << first.stripes_completed << " of " << first.stripes << ": "
                                << first.error;
  EXPECT_EQ(first.stripes_completed, 3);
  EXPECT_TRUE(first.resumable);
  ASSERT_EQ(first.stripe_receivers.size(), 4u);
  EXPECT_NE(first.stripe_receivers[1].status, posix::TransferStatus::kCompleted);
  StripePlan plan;
  ASSERT_TRUE(
      StripePlan::make({kObjectBytes, kPacketBytes}, 4, StripeLayout::kContiguous, &plan));
  const std::int64_t finished =
      plan.stripe_packets(0) + plan.stripe_packets(2) + plan.stripe_packets(3);

  // Retries with the same plan, one flow and two round-robin stripes,
  // each from its own copy of the degraded state (a completion removes
  // the files): every one restores exactly the finished stripes'
  // packets and lands byte-identical.
  struct Retry {
    int stripes;
    StripeLayout layout;
  };
  for (const Retry retry : {Retry{4, StripeLayout::kContiguous},
                            Retry{1, StripeLayout::kContiguous},
                            Retry{2, StripeLayout::kRoundRobin}}) {
    SCOPED_TRACE("retry with " + std::to_string(retry.stripes) + " " +
                 stripe::to_string(retry.layout) + " stripes");
    const std::string copy = base + std::to_string(retry.stripes);
    copy_checkpoints(base, copy);
    std::vector<std::uint8_t> buffer = degraded;
    const auto run =
        striped_attempt(object.view(), buffer, copy, retry.stripes, retry.layout, {}, 32);
    ASSERT_TRUE(run.completed()) << run.error;
    EXPECT_EQ(run.stripes, retry.stripes);
    EXPECT_EQ(run.packets_restored, finished);
    EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
    EXPECT_EQ(fnv1a(buffer.data(), buffer.size()),
              fnv1a(object.view().data(), object.view().size()));
    EXPECT_FALSE(posix::load_checkpoints(copy, kObjectBytes, kPacketBytes).has_value());
  }
  posix::remove_striped_checkpoints(base);
}

TEST(StripedTransfer, NarrowerRetryKeepsEveryStoredPacket) {
  // K = 3 with stripe 0 dead, then K = 2. The retry's stripe 1
  // rewrites `.s1`, which held K = 3 stripe 1's packets — half of them
  // owned by the retry's stripe 0. The record a session writes keeps
  // everything it loaded, so none of them is lost.
  constexpr std::int64_t kObjectBytes = 8 * 1024 * 1024;
  constexpr std::int64_t kPacketBytes = 8 * 1024;
  const TransferSpec spec{kObjectBytes, kPacketBytes};
  auto object = core::TransferObject::pattern(kObjectBytes, 0x3702);
  std::vector<std::uint8_t> degraded(static_cast<std::size_t>(kObjectBytes), 0);
  const std::string base = ::testing::TempDir() + "fobs_stripes_narrow.ckpt";
  posix::remove_striped_checkpoints(base);

  posix::StripedResult first_sender;
  const auto first = striped_attempt(object.view(), degraded, base, 3,
                                     StripeLayout::kContiguous, {kDeadStripe, "", ""}, 80,
                                     &first_sender);
  ASSERT_EQ(first.stripes_completed, 2) << first.error;
  ASSERT_TRUE(first.resumable);
  {
    SCOPED_TRACE("the dead stripe's sender gathers batches for its first 64 packets only");
    // Its receiver acknowledges nothing, so after 64 unacked packets
    // every send carries one protocol batch of B = 2.
    ASSERT_EQ(first_sender.stripe_senders.size(), 3u);
    const net::IoStats& dead = first_sender.stripe_senders[0].io;
    const auto batch = static_cast<std::uint64_t>(core::SenderConfig{}.batch_size);
    EXPECT_GT(dead.datagrams_sent, 1000u);
    EXPECT_LE(dead.datagrams_sent, batch * dead.send_syscalls + net::kMaxBatchDatagrams);
  }
  const auto stored = loaded_globals(base, spec);
  StripePlan three;
  ASSERT_TRUE(StripePlan::make(spec, 3, StripeLayout::kContiguous, &three));
  EXPECT_EQ(static_cast<std::int64_t>(stored.size()),
            three.stripe_packets(1) + three.stripe_packets(2));

  {
    SCOPED_TRACE("a K = 2 retry restores the whole union");
    const std::string copy = base + "2";
    copy_checkpoints(base, copy);
    std::vector<std::uint8_t> buffer = degraded;
    const auto run =
        striped_attempt(object.view(), buffer, copy, 2, StripeLayout::kContiguous, {}, 80);
    ASSERT_TRUE(run.completed()) << run.error;
    EXPECT_EQ(run.packets_restored, static_cast<std::int64_t>(stored.size()));
    EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
  }
  {
    SCOPED_TRACE("a K = 2 retry whose stripe 0 dies still records the whole union");
    // Its stripe 1 is restored whole, completes at once and writes its
    // final record; the dead stripe 0 writes nothing.
    std::vector<std::uint8_t> buffer = degraded;
    const auto run = striped_attempt(object.view(), buffer, base, 2,
                                     StripeLayout::kContiguous, {kDeadStripe, ""}, 80);
    ASSERT_EQ(run.stripes_completed, 1) << run.error;
    ASSERT_TRUE(run.stripe_receivers[1].completed());
    const auto after = loaded_globals(base, spec);
    EXPECT_TRUE(std::includes(after.begin(), after.end(), stored.begin(), stored.end()))
        << "the retry lost " << stored.size() - std::min(stored.size(), after.size())
        << " or more stored packets";
  }
  posix::remove_striped_checkpoints(base);
}

TEST(StripedTransfer, FallsBackToOneFlowAgainstPlainSender) {
  constexpr std::int64_t kObjectBytes = 1 * 1024 * 1024 + 77;
  constexpr std::int64_t kPacketBytes = 4 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0xFA11);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(kObjectBytes), 0);

  // A pre-striping sender: a plain session that has never heard of
  // FOBSSTRP. It drops the unknown token and keeps accepting, so the
  // receiver's fallback single flow pairs with it cleanly.
  posix::EngineOptions sender_options;
  sender_options.workers = 1;
  posix::TransferEngine sender_engine(sender_options);
  posix::SenderOptions plain;
  plain.data_port = test::port(48);
  plain.control_port = test::port(49);
  plain.endpoint.packet_bytes = kPacketBytes;
  auto handle = sender_engine.submit_send(plain, object.view());

  posix::EngineOptions receiver_options;
  receiver_options.workers = 1;
  posix::TransferEngine receiver_engine(receiver_options);
  posix::StripedReceiverOptions recv;
  recv.negotiation_port = plain.control_port;
  recv.data_port_base = plain.data_port;
  recv.stripes = 4;
  recv.endpoint.packet_bytes = kPacketBytes;
  const auto result = receiver_engine.run_striped_receiver(recv, buffer);

  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_TRUE(result.fallback_single_flow);
  EXPECT_EQ(result.stripes, 1);
  EXPECT_EQ(handle.wait(), posix::TransferStatus::kCompleted);
  EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
}

TEST(StripedTransfer, UnparseableHostIsRejectedBeforeNegotiating) {
  // Not an IPv4 literal: refused before the negotiation connect, not
  // retried against this machine until the deadline.
  std::vector<std::uint8_t> buffer(64 * 1024, 0);
  posix::TransferEngine receiver_engine(posix::EngineOptions{.workers = 1});
  posix::StripedReceiverOptions recv;
  recv.sender_host = "no-such-host.invalid";
  recv.negotiation_port = test::port(96);
  recv.stripes = 2;
  recv.endpoint.timeout_ms = 10'000;
  const auto start = std::chrono::steady_clock::now();
  const auto result = receiver_engine.run_striped_receiver(recv, buffer);
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions);
  EXPECT_NE(result.error.find("IPv4"), std::string::npos) << result.error;
  EXPECT_EQ(result.stripes_completed, 0);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

TEST(StripedTransfer, TakenDataPortNarrowsTheRequestToTheStripesBound) {
  // An explicit data_port_base binds stripe i at base + i before the
  // request names it. With base + 1 held by another socket only stripe
  // 0 binds, so the receiver asks for one stripe and the transfer runs
  // on it, instead of naming a port it cannot receive on.
  constexpr std::int64_t kObjectBytes = 1 * 1024 * 1024 + 77;
  constexpr std::int64_t kPacketBytes = 4 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0x7A4E);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(kObjectBytes), 0);
  const net::Fd taken = net::bind_udp(test::port(106));
  ASSERT_TRUE(taken.valid());

  posix::TransferEngine sender_engine(posix::EngineOptions{.workers = 2});
  posix::TransferEngine receiver_engine(posix::EngineOptions{.workers = 2});
  posix::StripedSenderOptions send;
  send.negotiation_port = test::port(104);
  send.endpoint.packet_bytes = kPacketBytes;
  send.endpoint.timeout_ms = 4'000;
  posix::StripedReceiverOptions recv;
  recv.negotiation_port = send.negotiation_port;
  recv.data_port_base = test::port(105);
  recv.stripes = 2;
  recv.endpoint.packet_bytes = kPacketBytes;
  recv.endpoint.timeout_ms = 4'000;

  const auto run =
      run_striped_loopback(sender_engine, receiver_engine, send, recv, object.view(), buffer);
  ASSERT_TRUE(run.receiver.completed()) << run.receiver.error;
  ASSERT_TRUE(run.sender.completed()) << run.sender.error;
  EXPECT_EQ(run.receiver.stripes, 1);
  EXPECT_EQ(run.sender.stripes, 1);
  EXPECT_FALSE(run.receiver.fallback_single_flow);
  EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
}

TEST(StripedTransfer, SenderOutOfControlPortsServesOneFlowOnTheNegotiationPort) {
  constexpr std::int64_t kObjectBytes = 1 * 1024 * 1024 + 77;
  constexpr std::int64_t kPacketBytes = 4 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0x0F0F);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(kObjectBytes), 0);

  // The sender's control range holds one port, and something already
  // listens there: no stripe listener binds, so the sender refuses
  // striping and both sides degrade to one plain flow on the
  // negotiation port.
  posix::EngineOptions sender_options;
  sender_options.workers = 1;
  sender_options.control_port_base = test::port(56);
  sender_options.control_port_count = 1;
  posix::TransferEngine sender_engine(sender_options);
  const net::Fd taken = net::listen_tcp(sender_options.control_port_base, 1);
  ASSERT_TRUE(taken.valid());
  posix::EngineOptions receiver_options;
  receiver_options.workers = 1;
  posix::TransferEngine receiver_engine(receiver_options);

  posix::StripedSenderOptions send;
  send.negotiation_port = test::port(57);
  send.endpoint.packet_bytes = kPacketBytes;
  posix::StripedReceiverOptions recv;
  recv.negotiation_port = send.negotiation_port;
  recv.stripes = 2;
  recv.endpoint.packet_bytes = kPacketBytes;

  auto& fallbacks = telemetry::MetricsRegistry::global().counter("fobs.stripe.fallbacks");
  const auto fallbacks_before = fallbacks.value();
  const auto run =
      run_striped_loopback(sender_engine, receiver_engine, send, recv, object.view(), buffer);
  ASSERT_TRUE(run.receiver.completed()) << run.receiver.error;
  ASSERT_TRUE(run.sender.completed()) << run.sender.error;
  EXPECT_TRUE(run.sender.fallback_single_flow);
  EXPECT_TRUE(run.receiver.fallback_single_flow);
  EXPECT_EQ(run.sender.stripes, 1);
  EXPECT_EQ(run.receiver.stripes, 1);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 2);  // one per side
  EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
}

// ---------------------------------------------------------------------------
// Striped fetch through the file server
// ---------------------------------------------------------------------------

TEST(StripedTransfer, StripedFetchThroughFileServerIsByteIdentical) {
  const std::string dir = ::testing::TempDir() + "fobs_stripes_fetch";
  ::mkdir(dir.c_str(), 0755);
  auto original = core::TransferObject::pattern(6 * 1024 * 1024 + 13, 0xF57);
  const auto checksum = original.checksum();
  ASSERT_TRUE(original.write_to_file(dir + "/dataset.bin"));

  posix::FileServerOptions server_options;
  server_options.dir = dir;
  server_options.max_stripes = 8;
  server_options.quiet = true;
  server_options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(server_options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions fetch;
  fetch.catalog_port = server.options().catalog_port;
  fetch.name = "dataset.bin";
  fetch.out_path = dir + "/fetched.bin";
  fetch.stripes = 4;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.stripes, 4);
  EXPECT_FALSE(result.fallback_single_flow);
  EXPECT_EQ(result.checksum, checksum);

  // The same client against a server that refuses striping degrades to
  // one flow and still verifies.
  server.stop();
  server_options.max_stripes = 1;
  posix::FileServer plain_server(server_options);
  ASSERT_TRUE(plain_server.start());
  fetch.catalog_port = plain_server.options().catalog_port;
  fetch.out_path = dir + "/fetched_plain.bin";
  const auto fallback = posix::fetch_file(fetch);
  ASSERT_TRUE(fallback.completed()) << fallback.error;
  EXPECT_TRUE(fallback.fallback_single_flow);
  EXPECT_EQ(fallback.stripes, 1);
  EXPECT_EQ(fallback.checksum, checksum);
  plain_server.stop();
}

}  // namespace
}  // namespace fobs
