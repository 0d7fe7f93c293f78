// Deterministic proofs of the recovery rules in fobs/session.h.
//
// A SenderSession and a ReceiverSession are pumped back to back over a
// seeded in-memory link: no sockets and no clock, so each recovery
// claim is asserted exactly, for every seed, instead of bounded by what
// wall-clock timing allowed. Each seed picks its loss regime from a
// small matrix (clean, light or heavy loss on each direction, after the
// loss regimes of the Lossy-BSP model), its selection policy, and its
// own fault plans.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/rng.h"
#include "fobs/session.h"
#include "fobs/stripe/plan.h"
#include "net/faults.h"
#include "telemetry/metrics.h"

namespace fobs::core {
namespace {

constexpr std::uint64_t kSeeds = 200;
constexpr std::int64_t kPackets = 2000;
constexpr TransferSpec kSpec{kPackets * 1024, 1024};
constexpr double kLossMatrix[] = {0.0, 0.02, 0.15};
constexpr int kMaxRounds = 100'000;

net::FaultPlan plan_of(const std::string& spec) {
  std::string error;
  const auto plan = net::FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(net::FaultPlan{});
}

/// True when every bit of `a` is also set in `b`.
bool subset(const util::Bitmap& a, const util::Bitmap& b) {
  const auto pa = a.extract_range(0, a.size());
  const auto pb = b.extract_range(0, b.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if ((pa[i] & ~pb[i]) != 0) return false;
  }
  return true;
}

std::int64_t stalls_metric() {
  return telemetry::MetricsRegistry::global().counter("fobs.fault.stalls").value();
}

SenderConfig sender_config(std::uint64_t seed) {
  SenderConfig config;
  config.batch_size = 8;
  config.selection = seed % 2 == 0 ? SelectionKind::kCircular : SelectionKind::kRandomUnacked;
  config.seed = seed;
  return config;
}

/// A sender and the live receiver incarnation, joined by a lossy,
/// mildly reordering datagram link each way and a reliable control
/// stream (connect, hello, resume frame, completion).
class Link {
 public:
  explicit Link(std::uint64_t seed)
      : rng_(seed),
        data_loss_(kLossMatrix[seed % 3]),
        ack_loss_(kLossMatrix[(seed / 3) % 3]),
        sender_faults_(plan_of("seed=" + std::to_string(seed) +
                               ";data.corrupt=0.02;data.drop=0.02;data.dup=0.02")),
        sender_(kSpec, sender_config(seed)) {
    EXPECT_TRUE(stripe::StripePlan::make(kSpec, 1, stripe::StripeLayout::kContiguous, &plan_));
    sender_.set_fault_injector(&sender_faults_);
  }

  SenderSession& sender() { return sender_; }
  /// The resume record as last persisted (empty before the first save).
  [[nodiscard]] const util::Bitmap& saved() const { return saved_; }
  [[nodiscard]] int saves() const { return saves_; }
  [[nodiscard]] std::int64_t corrupt_data_delivered() const { return corrupt_data_; }
  [[nodiscard]] std::int64_t corrupt_acks_delivered() const { return corrupt_acks_; }

  /// Starts a receiver incarnation under fault plan `plan`, resuming
  /// from `record` (nullable), and connects it to the sender. Data in
  /// flight to the previous incarnation dies with its socket; its ACKs
  /// already in flight are still delivered.
  ReceiverSession& start_receiver(std::uint32_t epoch, const std::string& plan,
                                  const util::Bitmap* record) {
    auto faults = std::make_unique<net::FaultInjector>(plan_of(plan));
    ReceiverConfig config;
    config.ack_frequency = 8;
    auto receiver =
        std::make_unique<ReceiverSession>(kSpec, config, /*draws_data_faults=*/true);
    receiver->set_fault_injector(faults.get());
    receiver->set_epoch(epoch);
    const auto known = record != nullptr ? record->extract_range(0, record->size())
                                         : std::vector<std::uint8_t>{};
    receiver->open_record(plan_, 0, record != nullptr ? known.data() : nullptr, known.size());
    receiver_ = std::move(receiver);
    receiver_faults_ = std::move(faults);
    data_.clear();
    corrupt_data_ = 0;
    saves_ = 0;
    saved_ = util::Bitmap();

    sender_.on_control_connected();
    sender_.on_hello(epoch);
    if (receiver_->resume_due()) {
      const auto bits = receiver_->core().received().extract_range(0, kPackets);
      sender_.on_resume(bits.data(), bits.size(), kPackets);
    }
    return *receiver_;
  }

  /// Sends new ACKs to `held` instead of the link, until released.
  void hold_acks(std::vector<AckMessage>* held) { held_ = held; }

  /// Pumps whole rounds until `done()`. False when that never happens,
  /// or as soon as `check()`, run after every round, returns false.
  template <typename Done, typename Check>
  bool run_until(Done done, Check check) {
    for (int round = 0; round < kMaxRounds; ++round) {
      if (done()) return true;
      send_batch();
      drain_data();
      deliver_acks();
      if (!check()) return false;
    }
    return false;
  }
  template <typename Done>
  bool run_until(Done done) {
    return run_until(done, [] { return true; });
  }

  /// Delivers one ACK datagram to the sender.
  void deliver(const AckMessage& ack, bool corrupt) {
    if (corrupt) ++corrupt_acks_;
    sender_.on_ack(corrupt ? nullptr : &ack);
  }

 private:
  struct DataDatagram {
    PacketSeq seq;
    bool corrupt;
  };
  struct AckDatagram {
    AckMessage message;
    bool corrupt;
  };

  void send_batch() {
    SenderCore& core = sender_.core();
    for (int i = 0; i < core.current_batch_size() && !core.all_acked(); ++i) {
      const auto seq = core.select_next();
      if (!seq) break;
      const DatagramFate fate = sender_.next_data_fate();
      for (int copy = 0; copy < fate.copies; ++copy) {
        if (!rng_.bernoulli(data_loss_)) data_.push_back({*seq, fate.corrupt});
      }
    }
  }

  void drain_data() {
    while (!data_.empty()) {
      if (data_.size() > 1 && rng_.bernoulli(0.1)) std::swap(data_[0], data_[1]);
      if (receiver_->crash_due()) {
        data_.clear();  // the rest dies with the incarnation
        return;
      }
      const DataDatagram datagram = data_.front();
      data_.pop_front();
      if (datagram.corrupt) ++corrupt_data_;
      const auto admitted = receiver_->admit(datagram.seq, !datagram.corrupt);
      if (admitted.ack_due) {
        auto ack = receiver_->next_ack();
        if (ack.save_record) {
          saved_ = receiver_->record();
          ++saves_;
        }
        if (held_ != nullptr) {
          held_->push_back(std::move(ack.message));
        } else {
          for (int copy = 0; copy < ack.fate.copies; ++copy) {
            if (!rng_.bernoulli(ack_loss_)) acks_.push_back({ack.message, ack.fate.corrupt});
          }
        }
      }
      if (admitted.just_completed) sender_.on_completion();
    }
  }

  void deliver_acks() {
    while (!acks_.empty()) {
      if (acks_.size() > 1 && rng_.bernoulli(0.1)) std::swap(acks_[0], acks_[1]);
      const AckDatagram ack = std::move(acks_.front());
      acks_.pop_front();
      deliver(ack.message, ack.corrupt);
    }
  }

  util::Rng rng_;
  double data_loss_;
  double ack_loss_;
  stripe::StripePlan plan_;
  net::FaultInjector sender_faults_;
  SenderSession sender_;
  std::unique_ptr<net::FaultInjector> receiver_faults_;
  std::unique_ptr<ReceiverSession> receiver_;
  std::deque<DataDatagram> data_;
  std::deque<AckDatagram> acks_;
  std::vector<AckMessage>* held_ = nullptr;
  util::Bitmap saved_;
  int saves_ = 0;
  std::int64_t corrupt_data_ = 0;
  std::int64_t corrupt_acks_ = 0;
};

std::uint32_t epoch_of(std::uint64_t seed, int incarnation) {
  return static_cast<std::uint32_t>(seed * 4 + static_cast<std::uint64_t>(incarnation) + 1);
}

TEST(SessionRecovery, CrashThenResumeFromTheSavedRecord) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Link link(seed);
    const auto crash_at = 400 + static_cast<std::int64_t>((seed * 37) % 1200);
    const auto& first = link.start_receiver(
        epoch_of(seed, 1),
        "seed=" + std::to_string(seed) + ";ack.corrupt=0.03;ack.dup=0.03;crash=" +
            std::to_string(crash_at),
        nullptr);
    ASSERT_TRUE(link.run_until([&] { return first.crashed(); }));
    // The record is saved every 16 ACKs, and it holds what was stored.
    EXPECT_EQ(link.saves(), first.core().stats().acks_built / 16);
    ASSERT_GT(link.saves(), 0);
    const util::Bitmap record = link.saved();
    EXPECT_TRUE(subset(record, first.core().received()));
    const std::int64_t first_corrupt = first.stats().corrupt_packets_dropped;
    EXPECT_EQ(first_corrupt, link.corrupt_data_delivered());

    // The new incarnation restores exactly the saved record, and the
    // resume frame tells the sender exactly that much.
    const auto& second = link.start_receiver(
        epoch_of(seed, 2), "seed=" + std::to_string(seed + 1) + ";ack.corrupt=0.03", &record);
    const std::int64_t restored = second.stats().packets_restored;
    EXPECT_EQ(restored, static_cast<std::int64_t>(record.count()));
    EXPECT_GT(restored, 0);
    EXPECT_EQ(link.sender().stats().packets_resumed, restored);

    const std::vector<std::uint32_t> at_resume = link.sender().core().send_counts();
    ASSERT_TRUE(link.run_until([&] { return link.sender().completed(); }));
    EXPECT_TRUE(second.core().complete());
    // Every packet the record lacked was sent after the resume, and no
    // restored packet was sent again.
    const auto& after = link.sender().core().send_counts();
    std::int64_t distinct_after = 0;
    std::int64_t restored_resent = 0;
    for (std::size_t seq = 0; seq < after.size(); ++seq) {
      if (after[seq] == at_resume[seq]) continue;
      ++distinct_after;
      if (record.test(seq)) ++restored_resent;
    }
    EXPECT_EQ(distinct_after, kPackets - restored);
    EXPECT_EQ(restored_resent, 0);
    // Checksum failures were counted exactly once each, on both sides.
    EXPECT_EQ(second.stats().corrupt_packets_dropped, link.corrupt_data_delivered());
    EXPECT_EQ(link.sender().stats().corrupt_acks_dropped, link.corrupt_acks_delivered());
    EXPECT_EQ(link.sender().stats().reconnects, 1);
  }
}

TEST(SessionRecovery, StaleAcksOfADeadEpochAreRefusedAfterReconnect) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Link link(seed);
    const auto& first = link.start_receiver(epoch_of(seed, 1), "", nullptr);
    const auto progress = 300 + static_cast<std::int64_t>((seed * 53) % 900);
    ASSERT_TRUE(
        link.run_until([&] { return first.core().stats().packets_received >= progress; }));
    // The first incarnation's last K ACKs are still in flight when it
    // dies; the second incarnation starts from scratch.
    const auto stale = static_cast<std::size_t>(1 + seed % 8);
    std::vector<AckMessage> in_flight;
    link.hold_acks(&in_flight);
    ASSERT_TRUE(link.run_until([&] { return in_flight.size() >= stale; }));
    in_flight.resize(stale);
    link.hold_acks(nullptr);
    const auto& second = link.start_receiver(epoch_of(seed, 2), "", nullptr);

    // After the new hello, one dead-epoch ACK lands per round; at every
    // step the sender believes only what the live receiver holds.
    std::size_t next_stale = 0;
    bool view_within_live = true;
    const auto check = [&] {
      if (next_stale < in_flight.size()) link.deliver(in_flight[next_stale++], false);
      view_within_live = subset(link.sender().core().acked_view(), second.core().received());
      return view_within_live;
    };
    const bool completed = link.run_until([&] { return link.sender().completed(); }, check);
    EXPECT_TRUE(view_within_live) << "the sender believes a packet the live receiver lacks";
    ASSERT_TRUE(completed);
    EXPECT_EQ(next_stale, stale);
    EXPECT_EQ(link.sender().stats().stale_acks_dropped, static_cast<std::int64_t>(stale));
    EXPECT_TRUE(second.core().complete());
  }
}

TEST(SessionRecovery, FaultActionsMapToOneDatagramFate) {
  EXPECT_EQ(fate_of(net::FaultAction::kPass).copies, 1);
  EXPECT_FALSE(fate_of(net::FaultAction::kPass).corrupt);
  EXPECT_EQ(fate_of(net::FaultAction::kDrop).copies, 0);
  EXPECT_EQ(fate_of(net::FaultAction::kDuplicate).copies, 2);
  EXPECT_EQ(fate_of(net::FaultAction::kCorrupt).copies, 1);
  EXPECT_TRUE(fate_of(net::FaultAction::kCorrupt).corrupt);
}

TEST(SessionRecovery, StallVerdictIsTimeoutWithoutProgressAndStalledAfterIt) {
  // Three empty 10 ns intervals make the budget; the verdict depends
  // only on whether anything ever progressed.
  SenderSession silent(kSpec, SenderConfig{});
  silent.arm_stall_clock(0, 10, 3);
  EXPECT_FALSE(silent.stall_expired(29));
  EXPECT_TRUE(silent.stall_expired(30));
  const std::int64_t stalls = stalls_metric();
  EXPECT_EQ(silent.give_up(), GiveUp::kTimeout);
  EXPECT_EQ(stalls_metric(), stalls + 1);

  SenderSession connected(kSpec, SenderConfig{});
  connected.on_control_connected();
  connected.arm_stall_clock(0, 10, 3);
  EXPECT_TRUE(connected.stall_expired(30));
  EXPECT_EQ(connected.give_up(), GiveUp::kStalled);

  ReceiverSession idle(kSpec, ReceiverConfig{}, /*draws_data_faults=*/false);
  idle.arm_stall_clock(100, 10, 3);
  EXPECT_FALSE(idle.stall_expired(129));
  EXPECT_TRUE(idle.stall_expired(130));
  EXPECT_EQ(idle.give_up(), GiveUp::kTimeout);

  ReceiverSession progressed(kSpec, ReceiverConfig{}, /*draws_data_faults=*/false);
  progressed.arm_stall_clock(0, 10, 3);
  progressed.admit(0, true);
  EXPECT_FALSE(progressed.stall_expired(10));  // the first interval saw progress
  EXPECT_TRUE(progressed.stall_expired(40));
  EXPECT_EQ(progressed.give_up(), GiveUp::kStalled);
  EXPECT_EQ(stalls_metric(), stalls + 4);
}

}  // namespace
}  // namespace fobs::core
