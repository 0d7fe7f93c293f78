// Sans-io recovery sessions: the rules FOBS adds to the paper's greedy
// sender and bitmap ACKs, written once for every driver. They sit above
// the protocol cores and own the send step (the packets of one send and
// their fault fates), checksum rejects, the fault plan's crash point,
// ACK epochs, the object-space resume record and the resume frame, and
// the progress-based stall give-up. Like the cores they have no sockets
// and no clock (time comes in as nanoseconds), so the POSIX and
// simulator drivers feed them the same calls and tests/test_session.cc
// pumps a pair over an in-memory link.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/bitmap.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
#include "fobs/stripe/plan.h"
#include "net/faults.h"

namespace fobs::core {

/// What a fault-plan action does to one datagram.
struct DatagramFate {
  int copies = 1;        ///< 0 = dropped, 2 = duplicated
  bool corrupt = false;  ///< arrives with a failing checksum
};

/// The one mapping from a FaultAction to its effect on a datagram.
[[nodiscard]] constexpr DatagramFate fate_of(fobs::net::FaultAction action) {
  switch (action) {
    case fobs::net::FaultAction::kDrop: return {0, false};
    case fobs::net::FaultAction::kCorrupt: return {1, true};
    case fobs::net::FaultAction::kDuplicate: return {2, false};
    case fobs::net::FaultAction::kPass: break;
  }
  return {};
}

/// Why a transfer that stopped progressing gave up.
enum class GiveUp : std::uint8_t {
  kTimeout,  ///< never made any progress: the peer never showed up
  kStalled,  ///< made progress, then none for the whole stall budget
};

/// What both sessions share: the core, the tracer, the fault plan and
/// its crash point, and the stall clock.
template <typename Core>
class Session {
 public:
  [[nodiscard]] Core& core() { return core_; }
  [[nodiscard]] const Core& core() const { return core_; }

  /// Attaches a per-transfer event tracer to the session and its core.
  void set_tracer(telemetry::EventTracer* tracer) {
    tracer_ = tracer;
    core_.set_tracer(tracer);
  }
  /// Installs `clock` on the tracer, if any, and records transfer_start.
  void begin_trace(telemetry::EventTracer::ClockFn clock) {
    if (tracer_ == nullptr) return;
    tracer_->set_clock(std::move(clock));
    tracer_->record(telemetry::EventType::kTransferStart, -1, core_.spec().packet_count());
  }
  /// Attaches the fault plan's executor (nullable; must outlive the
  /// session). The simulator shares one between both sessions.
  void set_fault_injector(fobs::net::FaultInjector* faults) { faults_ = faults; }

  /// True once the plan's crash point was reached. Latched: a crashed
  /// incarnation stays silent for good.
  bool crash_due() {
    if (!crashed_ && faults_ != nullptr && faults_->crash_due()) crashed_ = true;
    return crashed_;
  }
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Arms the stall clock: from `start_ns` a progress check runs once
  /// per `interval_ns`, and `limit` empty intervals in a row spend the
  /// budget. An unarmed clock never expires.
  void arm_stall_clock(std::int64_t start_ns, std::int64_t interval_ns, int limit) {
    interval_ns_ = std::max<std::int64_t>(1, interval_ns);
    next_check_ns_ = start_ns + interval_ns_;
    limit_ = std::max(1, limit);
  }
  /// Runs the progress checks due by `now_ns`; an interval without
  /// progress is traced as a `stall` event. True once the budget is spent.
  bool stall_expired(std::int64_t now_ns);

 protected:
  template <typename Config>
  Session(TransferSpec spec, Config config) : core_(spec, config) {}

  /// The plan's next action on `channel`; pass-through without a plan.
  DatagramFate draw(fobs::net::FaultChannel channel) {
    return faults_ != nullptr ? fate_of(faults_->next(channel)) : DatagramFate{};
  }
  /// Counts a checksum failure: `dropped`, the metric, the trace event.
  void drop_corrupt(PacketSeq seq, std::int64_t& dropped);
  /// Counts a control reconnect: in `reconnects`, the metric, the trace.
  void note_reconnect(int& reconnects);
  /// Counts the give-up in fobs.fault.stalls and classifies it.
  GiveUp give_up(bool progressed);
  /// Restarts the stall budget from `progress`, the next check's bar.
  void reset_progress(std::int64_t progress) { progress_ = progress; streak_ = 0; }

  Core core_;
  fobs::net::FaultInjector* faults_ = nullptr;
  telemetry::EventTracer* tracer_ = nullptr;

 private:
  bool crashed_ = false;
  int limit_ = 0;  ///< 0 = stall clock not armed
  int streak_ = 0;  ///< consecutive intervals without progress
  std::int64_t progress_ = 0;
  std::int64_t interval_ns_ = 1;
  std::int64_t next_check_ns_ = 0;
};

struct SenderSessionStats {
  std::int64_t corrupt_acks_dropped = 0;     ///< ACKs that failed their checksum
  std::int64_t corrupt_control_dropped = 0;  ///< completion frames that did
  std::int64_t stale_acks_dropped = 0;       ///< ACKs of another incarnation's epoch
  int reconnects = 0;                        ///< control connections after the first
  std::int64_t packets_resumed = 0;          ///< packets learned from resume frames
};

class SenderSession : public Session<SenderCore> {
 public:
  SenderSession(TransferSpec spec, SenderConfig config) : Session(spec, config) {}

  [[nodiscard]] const SenderSessionStats& stats() const { return stats_; }

  /// One packet of a send and the plan's data-channel action on it.
  struct Pick {
    PacketSeq seq;
    DatagramFate fate;
  };
  /// Opens one send (paper phase 1) of the core's B packets. The first
  /// pass gathers more whole batches, up to `room` packets (what the
  /// driver can push as one send; 1 never gathers): see pick_due().
  void open_send(int room) {
    batch_ = core_.current_batch_size();
    room_ = room;
    picked_ = 0;
    first_pass_ = true;
  }
  /// Whether the open send takes another packet. Drivers check their
  /// own gates (crash point, writability) between this and next_pick().
  [[nodiscard]] bool pick_due() const;
  /// The next packet by the selection policy, recorded as sent, with
  /// its fate; nullopt when no pick is due.
  std::optional<Pick> next_pick();
  /// Closes the send and traces it as one `batch_sent` event.
  void close_send();

  /// One ACK arrived (null: it failed its checksum). Corrupt ones and
  /// ones of a dead incarnation's epoch are counted and dropped; the
  /// rest reach the core, until completion.
  void on_ack(const AckMessage* ack);

  /// A control connection was accepted. Every one after the first is a
  /// (possibly restarted) receiver in an unknown state: the core forgets
  /// its ACK view, and ACKs are refused until the next hello. Returns
  /// true for such a reconnect, so the driver can discard queued ACKs.
  bool on_control_connected();
  /// A receiver has connected at least once (and so is listening).
  [[nodiscard]] bool connected() const { return connected_; }

  /// A hello announced the receiver's incarnation epoch (never 0): from
  /// now on only ACKs stamped with it are applied.
  void on_hello(std::uint32_t epoch) { epoch_ = epoch; filtering_ = true; }

  /// A resume frame: the receiver's restored bitmap (extract_range
  /// format). Ignored unless `nbits` is this transfer's packet count.
  void on_resume(const std::uint8_t* packed, std::size_t packed_len, std::int64_t nbits);

  /// The completion signal; a corrupted one is counted and ignored.
  /// Returns whether it was accepted.
  bool on_completion(bool corrupted = false);
  [[nodiscard]] bool completed() const { return core_.completion_received(); }

  /// Timeout if no receiver ever connected and nothing was ever acked,
  /// stalled otherwise.
  GiveUp give_up() { return Session::give_up(connected_ || core_.stats().packets_acked > 0); }

 private:
  SenderSessionStats stats_;
  int batch_ = 0;  ///< B of the open send; 0 = none open
  int room_ = 0;
  int picked_ = 0;
  bool first_pass_ = false;  ///< every packet picked so far is a first transmission
  bool connected_ = false;
  std::uint32_t epoch_ = 0;  ///< 0 after a reconnect: nothing matches
  bool filtering_ = false;   ///< set by the first hello
};

struct ReceiverSessionStats {
  std::int64_t corrupt_packets_dropped = 0;  ///< checksum or corrupt-draw rejects
  std::int64_t packets_restored = 0;         ///< pre-seeded from the resume record
  int reconnects = 0;                        ///< control reconnects after a loss
};

class ReceiverSession : public Session<ReceiverCore> {
 public:
  /// ACKs built between two saves of the resume record.
  static constexpr int kCheckpointEveryAcks = 16;

  /// `draws_data_faults`: arrivals draw the plan's data schedule (each
  /// POSIX endpoint has its own plan; the sim's shared one is drawn by
  /// the sender).
  ReceiverSession(TransferSpec spec, ReceiverConfig config, bool draws_data_faults)
      : Session(spec, config), draws_data_faults_(draws_data_faults) {}

  [[nodiscard]] const ReceiverSessionStats& stats() const { return stats_; }

  /// This incarnation's epoch, stamped on every ACK (0 = unversioned).
  void set_epoch(std::uint32_t epoch) { epoch_ = epoch; }

  /// Opens the resume record over the whole object of `plan`, whose
  /// stripe `stripe` this session carries (`plan` must outlive it).
  /// `known` (nullable, extract_range format) is a loaded record: it is
  /// kept, and its bits of this stripe are restored into the core. Call
  /// before any packet arrives. Returns the packets restored.
  std::int64_t open_record(const stripe::StripePlan& plan, int stripe,
                           const std::uint8_t* known, std::size_t known_len);
  /// The loaded record plus every packet received since; empty when no
  /// record was opened.
  [[nodiscard]] const fobs::util::Bitmap& record() const { return record_; }

  /// Whether the sender should be told what is already here.
  [[nodiscard]] bool resume_due() const {
    return stats_.packets_restored > 0 || core_.complete();
  }

  /// One data packet arrived: a failed checksum or a drop/corrupt draw
  /// rejects it, otherwise it is placed in the core and the record. The
  /// caller copies the payload when `newly_received`.
  ReceiverCore::PacketResult admit(PacketSeq seq, bool checksum_ok);

  struct OutgoingAck {
    AckMessage message;        ///< stamped with this incarnation's epoch
    DatagramFate fate;         ///< the plan's ACK-channel action
    bool save_record = false;  ///< the record is due to be persisted
  };
  OutgoingAck next_ack();

  /// The plan's control-channel action on the completion signal.
  DatagramFate completion_fate() { return draw(fobs::net::FaultChannel::kControl); }

  /// The control connection had to be re-established.
  void on_control_reconnected() { note_reconnect(stats_.reconnects); }

  /// Timeout if no packet ever arrived, stalled otherwise.
  GiveUp give_up() { return Session::give_up(core_.stats().packets_received > 0); }

 private:
  ReceiverSessionStats stats_;
  bool draws_data_faults_;
  std::uint32_t epoch_ = 0;
  fobs::util::Bitmap record_;
  const stripe::StripePlan* plan_ = nullptr;
  int stripe_ = 0;
  int acks_since_save_ = 0;
};

}  // namespace fobs::core
