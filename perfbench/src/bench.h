// Shared pieces of the FOBS end-to-end benchmark: workload geometry,
// seeded input generation, port selection, in-memory spans, the
// per-operation sample, and the metric report.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "net/datagram_channel.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (user + system) from getrusage, in seconds.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of this process (ru_maxrss), in MiB.
[[nodiscard]] double peak_rss_mib();

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// splitmix64: the only source of input randomness, so one seed fixes
/// object bytes, the fetch file sizes and the fetch order.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

void fill_random(std::span<std::uint8_t> out, std::uint64_t seed);
/// FNV-1a 64, computed here independently of the library so a fetch's
/// reported checksum is checked against the served bytes.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);

/// One benchmark workload. Transfer workloads move one in-memory object
/// per operation; the fetch workload fetches one file per operation.
struct WorkloadSpec {
  const char* name;
  std::int64_t object_bytes;  ///< transfer workloads only
  std::int64_t packet_bytes;
  int stripes;                ///< 0 = single-flow engine sessions
  bool fetch;
};

[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
/// The object size a run uses: the smoke check runs every transfer
/// workload at a sixteenth of its size.
[[nodiscard]] inline std::int64_t object_bytes(const WorkloadSpec& spec, bool smoke) {
  return smoke ? spec.object_bytes / 16 : spec.object_bytes;
}
[[nodiscard]] std::vector<std::string> workload_names();

/// A block of ports outside the kernel's ephemeral range, so no port the
/// benchmark binds can be taken by an unrelated outgoing connection.
/// Each process picks its own block.
class PortBlock {
 public:
  static constexpr int kSize = 256;
  /// Picks a block from the ranges outside ip_local_port_range.
  static std::optional<PortBlock> choose(std::uint64_t salt, std::string* error);
  [[nodiscard]] std::uint16_t at(int offset) const {
    return static_cast<std::uint16_t>(first_ + offset);
  }
  [[nodiscard]] std::uint16_t first() const { return first_; }
  [[nodiscard]] const std::string& ephemeral_range() const { return ephemeral_; }

 private:
  std::uint16_t first_ = 0;
  std::string ephemeral_;
};

/// Benchmark-side spans around the calls into the library, kept in
/// memory and written as JSONL when the run ends. Spans of one
/// operation share `op`; `parent` is the id of the enclosing span
/// (-1 for a root).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  int add(const char* name, int parent, int op, Clock::time_point start, Clock::time_point end);
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    int id;
    int parent;
    int op;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What one closed-loop operation produced. Counts a layer cannot
/// report for a workload stay zero.
struct OpSample {
  bool ok = false;  ///< both sides completed and the bytes verified
  std::string error;
  double wall_s = 0.0;  ///< submit -> both sides terminal (fetch: fetch_file call)
  double cpu_s = 0.0;   ///< process CPU time spent inside wall_s
  std::int64_t bytes = 0;
  std::int64_t packets_needed = 0;
  /// Data packets the sender(s) sent; -1 when the sender is not the
  /// benchmark's own (the file server's counts only reach the metrics
  /// registry).
  std::int64_t packets_sent = -1;
  /// Sender and receiver `elapsed_seconds` (striped: slowest stripe).
  /// The fetch workload has only the receive side, derived from the
  /// FetchResult's bytes and goodput.
  double sender_elapsed_s = 0.0;
  double receiver_elapsed_s = 0.0;
  fobs::net::IoStats send_io;
  fobs::net::IoStats recv_io;
  double negotiate_s = 0.0;  ///< striped: receiver wall minus StripedResult elapsed
  double skew = 1.0;         ///< striped: slowest / fastest stripe elapsed
  // Tracer counts, filled for traced operations only.
  std::int64_t acks_sent = 0;
  std::int64_t drop_while_acking = 0;
  std::int64_t stalls = 0;
};

/// Server-side counters of the fetch workload (the sender runs inside
/// the FileServer, so its packet counts come from the metrics registry).
struct ServerCounters {
  std::uint64_t transfers_failed = 0;
  std::uint64_t catalog_timeouts = 0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< shrink objects and files for the smoke check
  std::string out_dir;
};

/// A workload after set-up: inputs generated, engine or server running.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs operation number `op` (closed loop: returns when it is over).
  virtual OpSample run_op(int op, bool traced, SpanLog& spans) = 0;
  /// Waits until the server has accounted for every started transfer,
  /// then returns its counters; nullopt for transfer workloads.
  virtual std::optional<ServerCounters> server_counters() { return std::nullopt; }
  /// Median catalog round trip for a refused name, in ms; nullopt for
  /// transfer workloads.
  virtual std::optional<double> catalog_ms(int /*trips*/) { return std::nullopt; }
  /// Directory whose filesystem the fingerprint reports.
  [[nodiscard]] virtual std::string data_dir() const { return {}; }
};

/// Sets up `spec`: generates its inputs from `options.seed` and starts
/// the engines or the file server. Returns nullptr (and `error`) when
/// set-up fails.
std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec, const RunOptions& options,
                                        const PortBlock& ports, std::string* error);

/// Layer replays at one packet size over one object's packet count.
struct ReplayResult {
  double crc_ns_per_kib = 0.0;
  double placement_ns_per_pkt = 0.0;
  double data_header_encode_ns = 0.0;
  double data_header_decode_ns = 0.0;
  double ack_codec_ns = 0.0;  ///< encode + decode of one ACK
  double select_ns = 0.0;
  double place_ns = 0.0;
  double ack_build_apply_ns = 0.0;  ///< per ACK
  double acks_per_pkt = 0.0;
  double channel_send_ns = 0.0;
  double channel_recv_ns = 0.0;
  /// Per-packet sums of the replayed costs each side pays.
  [[nodiscard]] double sender_ns_per_pkt(std::int64_t packet_bytes) const;
  [[nodiscard]] double receiver_ns_per_pkt() const;
};

ReplayResult replay_layers(std::int64_t object_bytes, std::int64_t packet_bytes,
                           std::uint64_t seed, std::uint16_t pump_port);

/// Metrics by name with their unit, printed as text lines and as the
/// final JSON object.
class Report {
 public:
  /// `applies` false marks a metric whose layer this workload does not
  /// run: its value is 0 and its text line reads "n/a".
  void add(const std::string& name, double value, const std::string& unit,
           bool applies = true);
  void print_lines(std::ostream& os, const char* prefix) const;
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool applies;
  };
  std::vector<Entry> entries_;
};

/// One-line JSON host fingerprint: cores, CPU model, kernel, compiler,
/// build type, and the filesystem behind `data_dir`.
[[nodiscard]] std::string host_fingerprint(const std::string& data_dir);
[[nodiscard]] bool release_build();

}  // namespace perfbench
