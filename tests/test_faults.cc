// Unit tests for the robustness building blocks: the fault-plan
// grammar and injector, the CRC32 helper (both implementations against
// a bitwise reference), the resume-frame codec, and the checkpoint
// sidecar format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/crc32_detail.h"
#include "common/rng.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "net/faults.h"

namespace fobs {
namespace {

using net::FaultAction;
using net::FaultChannel;
using net::FaultInjector;
using net::FaultPlan;

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors) {
  // The standard IEEE 802.3 check value.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(util::crc32(check, sizeof check), 0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_EQ(util::crc32(zero, 4), 0x2144DF1Cu);
}

TEST(Crc32, SeedChainsIncrementalComputation) {
  const std::uint8_t data[] = {10, 20, 30, 40, 50, 60};
  const auto whole = util::crc32(data, sizeof data);
  const auto first = util::crc32(data, 3);
  EXPECT_EQ(util::crc32(data + 3, 3, first), whole);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(1024, 0xA5);
  const auto clean = util::crc32(data.data(), data.size());
  for (const std::size_t pos : {std::size_t{0}, std::size_t{511}, data.size() - 1}) {
    data[pos] ^= 0x01;
    EXPECT_NE(util::crc32(data.data(), data.size()), clean);
    data[pos] ^= 0x01;
  }
}

// Differential checks: the dispatched CRC and each implementation
// behind it against a plain bitwise oracle, across the lengths where
// the folding path switches strategy (64-byte lanes, 16-byte blocks,
// the byte tail), every alignment, and every seed split.

std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

using CrcFn = std::uint32_t (*)(const std::uint8_t*, std::size_t, std::uint32_t);

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

void expect_matches_reference(CrcFn crc, const char* name) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (const std::size_t n : {1023, 1024, 1025, 8191, 8192, 8193, 64 * 1024}) {
    lengths.push_back(n);
  }
  constexpr std::size_t kMaxOffset = 15;
  const auto buffer = random_bytes(64 * 1024 + kMaxOffset, 0xC3C32);
  for (const std::size_t len : lengths) {
    for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
      const std::uint8_t* data = buffer.data() + offset;
      const std::uint32_t seed = static_cast<std::uint32_t>(len * 2654435761u + offset);
      ASSERT_EQ(crc(data, len, 0), reference_crc32(data, len, 0))
          << name << " len=" << len << " offset=" << offset;
      ASSERT_EQ(crc(data, len, seed), reference_crc32(data, len, seed))
          << name << " seeded, len=" << len << " offset=" << offset;
    }
  }

  const auto chain = random_bytes(200, 0x5EED);
  const std::uint32_t whole = reference_crc32(chain.data(), chain.size(), 0);
  for (std::size_t split = 0; split <= chain.size(); ++split) {
    const std::uint32_t head = crc(chain.data(), split, 0);
    ASSERT_EQ(crc(chain.data() + split, chain.size() - split, head), whole)
        << name << " split=" << split;
  }
}

TEST(Crc32, DispatchedMatchesBitwiseReference) {
  expect_matches_reference(util::crc32, "dispatched");
}

TEST(Crc32, PortableMatchesBitwiseReference) {
  expect_matches_reference(util::detail::crc32_portable, "portable");
}

TEST(Crc32, PclmulMatchesBitwiseReference) {
  if (!util::detail::crc32_pclmul_supported()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ/SSE4.1";
  }
  expect_matches_reference(util::detail::crc32_pclmul, "pclmul");
}

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, EmptyStringIsEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlan, ParsesFullGrammar) {
  const auto plan =
      FaultPlan::parse("seed=7;data.corrupt=0.01;data.drop=0.05;ack.dup=0.5;"
                       "ack.blackhole=8+16;control.drop=1;crash=3000");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->data.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(plan->data.drop, 0.05);
  EXPECT_DOUBLE_EQ(plan->ack.duplicate, 0.5);
  EXPECT_EQ(plan->ack.blackhole_start, 8);
  EXPECT_EQ(plan->ack.blackhole_count, 16);
  EXPECT_DOUBLE_EQ(plan->control.drop, 1.0);
  EXPECT_EQ(plan->crash_at_packet, 3000);
  EXPECT_FALSE(plan->empty());
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const auto plan =
      FaultPlan::parse("seed=42;data.corrupt=0.25;ack.blackhole=0+4;crash=10");
  ASSERT_TRUE(plan.has_value());
  const auto reparsed = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->seed, plan->seed);
  EXPECT_DOUBLE_EQ(reparsed->data.corrupt, plan->data.corrupt);
  EXPECT_EQ(reparsed->ack.blackhole_start, plan->ack.blackhole_start);
  EXPECT_EQ(reparsed->ack.blackhole_count, plan->ack.blackhole_count);
  EXPECT_EQ(reparsed->crash_at_packet, plan->crash_at_packet);
}

TEST(FaultPlan, ParsesPlainDecimalsOnly) {
  // The grammar is locale-independent plain decimals: no locale's
  // comma separator, no exponent notation.
  const auto plan = FaultPlan::parse("data.corrupt=0.25;ack.drop=.5;control.dup=1");
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->data.corrupt, 0.25);
  EXPECT_DOUBLE_EQ(plan->ack.drop, 0.5);
  EXPECT_DOUBLE_EQ(plan->control.duplicate, 1.0);
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=0,25").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=1e-2").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=.").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=").has_value());
}

TEST(FaultPlan, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=1.5", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=-0.1").has_value());
  EXPECT_FALSE(FaultPlan::parse("bogus=1").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.bogus=1").has_value());
  EXPECT_FALSE(FaultPlan::parse("tcp.drop=0.5").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.drop").has_value());
  EXPECT_FALSE(FaultPlan::parse("ack.blackhole=8").has_value());
  EXPECT_FALSE(FaultPlan::parse("ack.blackhole=8+0").has_value());
  EXPECT_FALSE(FaultPlan::parse("crash=-1").has_value());
  EXPECT_FALSE(FaultPlan::parse("seed=notanumber").has_value());
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministicPerSeed) {
  const auto plan = FaultPlan::parse("seed=9;data.corrupt=0.2;data.drop=0.2;data.dup=0.2");
  ASSERT_TRUE(plan.has_value());
  FaultInjector a(*plan);
  FaultInjector b(*plan);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(FaultChannel::kData), b.next(FaultChannel::kData)) << "packet " << i;
  }
  EXPECT_GT(a.total_injected(), 0);
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

TEST(FaultInjector, ChannelsAreIndependentOfInterleaving) {
  const auto plan = FaultPlan::parse("seed=5;data.drop=0.3;ack.drop=0.3");
  ASSERT_TRUE(plan.has_value());
  // Injector A: all data packets first, then all ACK packets.
  FaultInjector a(*plan);
  std::vector<FaultAction> a_data, a_ack;
  for (int i = 0; i < 200; ++i) a_data.push_back(a.next(FaultChannel::kData));
  for (int i = 0; i < 200; ++i) a_ack.push_back(a.next(FaultChannel::kAck));
  // Injector B: interleaved. The per-channel sequences must not change.
  FaultInjector b(*plan);
  std::vector<FaultAction> b_data, b_ack;
  for (int i = 0; i < 200; ++i) {
    b_ack.push_back(b.next(FaultChannel::kAck));
    b_data.push_back(b.next(FaultChannel::kData));
  }
  EXPECT_EQ(a_data, b_data);
  EXPECT_EQ(a_ack, b_ack);
}

TEST(FaultInjector, BlackholeWindowDropsExactRange) {
  const auto plan = FaultPlan::parse("ack.blackhole=3+4");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  for (int i = 0; i < 10; ++i) {
    const auto action = injector.next(FaultChannel::kAck);
    if (i >= 3 && i < 7) {
      EXPECT_EQ(action, FaultAction::kDrop) << "packet " << i;
    } else {
      EXPECT_EQ(action, FaultAction::kPass) << "packet " << i;
    }
  }
  EXPECT_EQ(injector.stats(FaultChannel::kAck).dropped, 4);
  EXPECT_EQ(injector.stats(FaultChannel::kAck).seen, 10);
}

TEST(FaultInjector, CrashTriggersAfterNDataPackets) {
  const auto plan = FaultPlan::parse("crash=5");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(injector.crash_due()) << "packet " << i;
    injector.next(FaultChannel::kData);
  }
  EXPECT_TRUE(injector.crash_due());
  // ACK traffic does not advance the crash counter.
  FaultInjector ack_only(*plan);
  for (int i = 0; i < 50; ++i) ack_only.next(FaultChannel::kAck);
  EXPECT_FALSE(ack_only.crash_due());
}

TEST(FaultInjector, CleanPlanNeverInjects) {
  FaultInjector injector(FaultPlan{});
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(injector.next(FaultChannel::kData), FaultAction::kPass);
  }
  EXPECT_EQ(injector.total_injected(), 0);
}

// ---------------------------------------------------------------------------
// Resume frame codec
// ---------------------------------------------------------------------------

TEST(ResumeCodec, RoundTrip) {
  const std::vector<std::uint8_t> bitmap = {0xFF, 0x0F, 0xA0};
  const auto wire = posix::encode_resume(20, 13, bitmap);
  EXPECT_EQ(wire.size(), posix::resume_frame_size(20));
  const auto frame = posix::decode_resume(wire.data(), wire.size());
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->packet_count, 20);
  EXPECT_EQ(frame->received_count, 13);
  EXPECT_EQ(frame->bitmap, bitmap);
}

TEST(ResumeCodec, RejectsCorruptedFrame) {
  const std::vector<std::uint8_t> bitmap = {0xFF, 0x0F, 0xA0};
  auto wire = posix::encode_resume(20, 13, bitmap);
  for (const std::size_t pos : {std::size_t{9}, std::size_t{25}, wire.size() - 1}) {
    auto copy = wire;
    copy[pos] ^= 0x40;
    EXPECT_FALSE(posix::decode_resume(copy.data(), copy.size()).has_value())
        << "flipped byte " << pos;
  }
  // Truncation and a wrong token are rejected too.
  EXPECT_FALSE(posix::decode_resume(wire.data(), wire.size() - 1).has_value());
  auto bad_token = wire;
  bad_token[0] = 'X';
  EXPECT_FALSE(posix::decode_resume(bad_token.data(), bad_token.size()).has_value());
}

TEST(ResumeCodec, RejectsInconsistentBitmapLength) {
  // 100 packets need 13 bitmap bytes; claim 100 but attach 3.
  const std::vector<std::uint8_t> bitmap = {0xFF, 0x0F, 0xA0};
  const auto wire = posix::encode_resume(100, 13, bitmap);
  EXPECT_FALSE(posix::decode_resume(wire.data(), wire.size()).has_value());
}

// ---------------------------------------------------------------------------
// decode_ack hardening (hostile fragment_bits)
// ---------------------------------------------------------------------------

TEST(AckHardening, RejectsAbsurdFragmentBits) {
  core::AckMessage ack;
  ack.fragment_bits = 8;
  ack.fragment = {0xFF};
  auto wire = posix::encode_ack(ack);
  // Patch fragment_bits (offset 40, big-endian u32) to a value no
  // datagram could carry; the decoder must bail before allocating.
  const std::uint32_t absurd = static_cast<std::uint32_t>(posix::kMaxAckFragmentBits + 1);
  wire[40] = static_cast<std::uint8_t>(absurd >> 24);
  wire[41] = static_cast<std::uint8_t>(absurd >> 16);
  wire[42] = static_cast<std::uint8_t>(absurd >> 8);
  wire[43] = static_cast<std::uint8_t>(absurd);
  EXPECT_FALSE(posix::decode_ack(wire.data(), wire.size()).has_value());
}

TEST(AckHardening, RoundTripsReceiverEpoch) {
  core::AckMessage ack;
  ack.ack_no = 7;
  ack.epoch = 0xDEADBEEFu;
  ack.fragment_bits = 8;
  ack.fragment = {0xFF};
  const auto wire = posix::encode_ack(ack);
  const auto decoded = posix::decode_ack(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, 0xDEADBEEFu);
  EXPECT_EQ(decoded->ack_no, 7u);
  EXPECT_EQ(decoded->fragment, ack.fragment);
}

TEST(AckHardening, AcceptsMaximumLegitimateFragment) {
  core::AckMessage ack;
  ack.fragment_bits = 1024;
  ack.fragment = std::vector<std::uint8_t>(128, 0x55);
  const auto wire = posix::encode_ack(ack);
  EXPECT_TRUE(posix::decode_ack(wire.data(), wire.size()).has_value());
}

// ---------------------------------------------------------------------------
// Checkpoint sidecar
// ---------------------------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Named by pid and test, not by address: sanitizer runtimes give
    // every process the same heap layout, so `this` collides across
    // parallel test processes.
    path_ = ::testing::TempDir() + "fobs_checkpoint_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".ckpt";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 100 * 1024;
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 42;
  checkpoint.bitmap = std::vector<std::uint8_t>(13, 0xAB);
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  const auto loaded = posix::load_checkpoint(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->object_bytes, checkpoint.object_bytes);
  EXPECT_EQ(loaded->packet_bytes, checkpoint.packet_bytes);
  EXPECT_EQ(loaded->received_count, checkpoint.received_count);
  EXPECT_EQ(loaded->bitmap, checkpoint.bitmap);
  EXPECT_EQ(loaded->packet_count(), 100);
}

TEST_F(CheckpointTest, MissingFileLoadsNothing) {
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());
}

TEST_F(CheckpointTest, RejectsTornOrTamperedFile) {
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 8 * 1024;
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 3;
  checkpoint.bitmap = {0x07};
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));

  // Flip one bitmap byte in place: the CRC seal must catch it.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    const char tampered = 0x0F;
    file.write(&tampered, 1);
  }
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());

  // A truncated (torn) file is rejected as well.
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  {
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 2);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());

  // A foreign file (wrong magic) never parses.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    const std::string junk(64, 'x');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());
}

TEST_F(CheckpointTest, FileIsTheFOBSCKP1Layout) {
  // The on-disk format resumes files written by earlier releases, so
  // its bytes are pinned: magic, four big-endian u64 (object bytes,
  // packet bytes, received count, bitmap length), the packed bitmap,
  // and a big-endian CRC32 of everything after the magic.
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 3000;  // 3 packets of 1024
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 2;
  checkpoint.bitmap = {0x05};
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  std::ifstream in(path_, std::ios::binary);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  const std::vector<std::uint8_t> expected = {
      'F',  'O',  'B',  'S',  'C',  'K',  'P',  '1',      // magic
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0B, 0xB8,     // object_bytes
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,     // packet_bytes
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,     // received_count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,     // bitmap length
      0x05,                                               // bitmap
      0xAD, 0xED, 0xD7, 0xA7};                            // CRC32
  EXPECT_EQ(bytes, expected);
}

TEST_F(CheckpointTest, SaveLeavesNoTemporaryFileBehind) {
  // The write goes through `<path>.tmp` and a rename; a successful save
  // leaves only the checkpoint itself, and overwriting keeps the latest.
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 2048;
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 1;
  checkpoint.bitmap = {0x01};
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  checkpoint.received_count = 2;
  checkpoint.bitmap = {0x03};
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  EXPECT_FALSE(std::ifstream(path_ + ".tmp").good());
  const auto loaded = posix::load_checkpoint(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->received_count, 2);
  EXPECT_EQ(loaded->bitmap, checkpoint.bitmap);
}

TEST_F(CheckpointTest, RemoveDeletesTheFile) {
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 1024;
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 1;
  checkpoint.bitmap = {0x01};
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  posix::remove_striped_checkpoints(path_);
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());
}

}  // namespace
}  // namespace fobs
