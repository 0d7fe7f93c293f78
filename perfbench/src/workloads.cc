// The benchmark's workloads, each driving the library only through its
// public entry points: TransferEngine::submit_send/submit_receive
// (bulk_8k, paper_1k), run_striped_sender/run_striped_receiver
// (striped_2), and FileServer with fetch_file (fetch_small). Every
// operation is verified against its source bytes.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "bench.h"
#include "fobs/posix/engine.h"
#include "fobs/posix/fileserver.h"
#include "fobs/stripe/striped_transfer.h"
#include "telemetry/trace.h"

namespace perfbench {

namespace {

namespace fp = fobs::posix;
using fobs::telemetry::EventTracer;
using fobs::telemetry::EventType;

/// Bounded give-up budget, so a hung operation costs seconds and is
/// counted as a failure instead of stalling the run.
constexpr int kTimeoutMs = 10'000;
/// Hard cap on waiting for an engine session before cancelling it.
constexpr auto kWaitLimit = std::chrono::milliseconds(3 * kTimeoutMs);

// Offsets inside the process's PortBlock. Consecutive operations rotate
// through a window so no operation reuses the previous one's ports.
constexpr int kControlPorts = 0;        // 64: control / negotiation ports
constexpr int kDataPorts = 64;          // 64: receiver UDP data ports
constexpr int kStripeControlPorts = 128;  // 64: striped sender's engine allocator
constexpr int kCatalogPort = 192;       // fetch_small catalog listener
constexpr int kServerControlPorts = 193;  // 32: FileServer per-session control ports
constexpr int kWindow = 64;

std::int64_t packets_for(std::int64_t bytes, std::int64_t packet_bytes) {
  return (bytes + packet_bytes - 1) / packet_bytes;
}

fp::EndpointOptions endpoint(std::int64_t packet_bytes, EventTracer* tracer) {
  fp::EndpointOptions e;
  e.packet_bytes = packet_bytes;
  e.timeout_ms = kTimeoutMs;
  e.tracer = tracer;
  return e;
}

void add_trace_counts(OpSample& s, const EventTracer& tracer) {
  s.acks_sent += tracer.count(EventType::kAckSent);
  s.drop_while_acking += tracer.count(EventType::kDropWhileAcking);
  s.stalls += tracer.count(EventType::kStall);
}

std::vector<std::uint8_t> make_object(std::int64_t bytes, std::uint64_t seed) {
  std::vector<std::uint8_t> object(static_cast<std::size_t>(bytes));
  fill_random(object, seed);
  return object;
}

/// Records the spans every transfer operation shares.
void transfer_spans(SpanLog& spans, int op, Clock::time_point clear, Clock::time_point submit,
                    Clock::time_point terminal, Clock::time_point verified) {
  const int root = spans.add("transfer", -1, op, clear, verified);
  spans.add("clear_buffer", root, op, clear, submit);
  spans.add("submit_to_terminal", root, op, submit, terminal);
  spans.add("verify", root, op, terminal, verified);
}

// ---------------------------------------------------------------------------
// bulk_8k, paper_1k: one flow, a sender and a receiver session on one engine.
// ---------------------------------------------------------------------------

class SingleFlow final : public Workload {
 public:
  SingleFlow(std::int64_t object_bytes, std::int64_t packet_bytes, std::uint64_t seed,
             const PortBlock& ports)
      : packet_bytes_(packet_bytes),
        ports_(ports),
        object_(make_object(object_bytes, seed)),
        dest_(object_.size()),
        engine_(fp::EngineOptions{.workers = 2}) {}

  OpSample run_op(int op, bool traced, SpanLog& spans) override {
    OpSample s;
    s.bytes = static_cast<std::int64_t>(object_.size());
    s.packets_needed = packets_for(s.bytes, packet_bytes_);
    const auto clear = Clock::now();
    std::fill(dest_.begin(), dest_.end(), 0);

    EventTracer send_tracer;
    EventTracer recv_tracer;
    fp::SenderOptions send;
    send.data_port = ports_.at(kDataPorts + op % kWindow);
    send.control_port = ports_.at(kControlPorts + op % kWindow);
    send.endpoint = endpoint(packet_bytes_, traced ? &send_tracer : nullptr);
    fp::ReceiverOptions recv;
    recv.data_port = send.data_port;
    recv.control_port = send.control_port;
    recv.endpoint = endpoint(packet_bytes_, traced ? &recv_tracer : nullptr);

    const double cpu0 = process_cpu_seconds();
    const auto submit = Clock::now();
    const auto sender = engine_.submit_send(send, object_);
    const auto receiver = engine_.submit_receive(recv, dest_);
    const bool finished = sender.wait_for(kWaitLimit) && receiver.wait_for(kWaitLimit);
    if (!finished) {
      sender.cancel();
      receiver.cancel();
      sender.wait();
      receiver.wait();
    }
    const auto terminal = Clock::now();
    s.cpu_s = process_cpu_seconds() - cpu0;
    s.wall_s = seconds_between(submit, terminal);

    const auto& sr = sender.sender_result();
    const auto& rr = receiver.receiver_result();
    s.packets_sent = sr.packets_sent;
    s.sender_elapsed_s = sr.elapsed_seconds;
    s.receiver_elapsed_s = rr.elapsed_seconds;
    s.send_io = sr.io;
    s.recv_io = rr.io;
    if (!sr.completed() || !rr.completed()) {
      s.error = std::string("sender ") + fp::to_string(sr.status) + " " + sr.error +
                ", receiver " + fp::to_string(rr.status) + " " + rr.error;
    } else if (std::memcmp(dest_.data(), object_.data(), object_.size()) != 0) {
      s.error = "received bytes differ from the object";
    } else {
      s.ok = true;
    }
    if (traced) {
      add_trace_counts(s, send_tracer);
      add_trace_counts(s, recv_tracer);
    }
    transfer_spans(spans, op, clear, submit, terminal, Clock::now());
    return s;
  }

 private:
  std::int64_t packet_bytes_;
  PortBlock ports_;
  std::vector<std::uint8_t> object_;
  std::vector<std::uint8_t> dest_;
  fp::TransferEngine engine_;
};

// ---------------------------------------------------------------------------
// striped_2: one object over N stripes, a sender and a receiver engine.
// ---------------------------------------------------------------------------

class Striped final : public Workload {
 public:
  Striped(std::int64_t object_bytes, std::int64_t packet_bytes, int stripes,
          std::uint64_t seed, const PortBlock& ports)
      : packet_bytes_(packet_bytes),
        stripes_(stripes),
        ports_(ports),
        object_(make_object(object_bytes, seed)),
        dest_(object_.size()),
        send_engine_(fp::EngineOptions{.workers = static_cast<std::size_t>(stripes),
                                       .control_port_base = ports.at(kStripeControlPorts),
                                       .control_port_count = kWindow}),
        recv_engine_(fp::EngineOptions{.workers = static_cast<std::size_t>(stripes)}) {}

  OpSample run_op(int op, bool traced, SpanLog& spans) override {
    OpSample s;
    s.bytes = static_cast<std::int64_t>(object_.size());
    const auto clear = Clock::now();
    std::fill(dest_.begin(), dest_.end(), 0);

    EventTracer send_tracer;
    EventTracer recv_tracer;
    fp::StripedSenderOptions send;
    send.negotiation_port = ports_.at(kControlPorts + op % kWindow);
    send.max_stripes = stripes_;
    send.endpoint = endpoint(packet_bytes_, traced ? &send_tracer : nullptr);
    fp::StripedReceiverOptions recv;
    recv.negotiation_port = send.negotiation_port;
    recv.data_port_base = ports_.at(kDataPorts + (op * stripes_) % kWindow);
    recv.stripes = stripes_;
    // A single-flow fallback would not exercise striping: count it as a
    // failure instead.
    recv.allow_single_flow_fallback = false;
    recv.endpoint = endpoint(packet_bytes_, traced ? &recv_tracer : nullptr);

    const double cpu0 = process_cpu_seconds();
    const auto submit = Clock::now();
    fp::StripedResult sres;
    std::thread sender([&] { sres = send_engine_.run_striped_sender(send, object_); });
    const fp::StripedResult rres = recv_engine_.run_striped_receiver(recv, dest_);
    const auto received = Clock::now();
    sender.join();
    const auto terminal = Clock::now();
    s.cpu_s = process_cpu_seconds() - cpu0;
    s.wall_s = seconds_between(submit, terminal);

    s.packets_sent = 0;
    for (const auto& r : sres.stripe_senders) {
      s.packets_sent += r.packets_sent;
      s.packets_needed += r.packets_needed;
    }
    if (s.packets_needed == 0) s.packets_needed = packets_for(s.bytes, packet_bytes_);
    s.sender_elapsed_s = sres.elapsed_seconds;
    s.receiver_elapsed_s = rres.elapsed_seconds;
    s.send_io = sres.io;
    s.recv_io = rres.io;
    s.negotiate_s = seconds_between(submit, received) - rres.elapsed_seconds;
    double fastest = 0.0;
    double slowest = 0.0;
    for (const auto& r : rres.stripe_receivers) {
      fastest = fastest == 0.0 ? r.elapsed_seconds : std::min(fastest, r.elapsed_seconds);
      slowest = std::max(slowest, r.elapsed_seconds);
    }
    s.skew = fastest > 0.0 ? slowest / fastest : 1.0;

    if (!sres.completed() || !rres.completed()) {
      s.error = std::string("sender ") + fp::to_string(sres.status) + " " + sres.error +
                ", receiver " + fp::to_string(rres.status) + " " + rres.error;
    } else if (rres.stripes != stripes_ || rres.fallback_single_flow) {
      s.error = "ran " + std::to_string(rres.stripes) + " stripes, wanted " +
                std::to_string(stripes_);
    } else if (std::memcmp(dest_.data(), object_.data(), object_.size()) != 0) {
      s.error = "received bytes differ from the object";
    } else {
      s.ok = true;
    }
    if (traced) {
      add_trace_counts(s, send_tracer);
      add_trace_counts(s, recv_tracer);
    }
    transfer_spans(spans, op, clear, submit, terminal, Clock::now());
    return s;
  }

 private:
  std::int64_t packet_bytes_;
  int stripes_;
  PortBlock ports_;
  std::vector<std::uint8_t> object_;
  std::vector<std::uint8_t> dest_;
  fp::TransferEngine send_engine_;
  fp::TransferEngine recv_engine_;
};

// ---------------------------------------------------------------------------
// fetch_small: a FileServer and one fetch_file client in a closed loop.
// ---------------------------------------------------------------------------

/// Removes its directory tree when destroyed.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

struct ServedFile {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::uint64_t checksum = 0;
};

bool read_file(const std::filesystem::path& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

class FetchSmall final : public Workload {
 public:
  static constexpr std::int64_t kMinFile = 64 << 10;
  static constexpr std::int64_t kMaxFile = 1 << 20;

  FetchSmall(std::int64_t packet_bytes, int file_count, std::uint64_t seed,
             const PortBlock& ports, const std::filesystem::path& root)
      : packet_bytes_(packet_bytes), seed_(seed), ports_(ports), root_(root) {
    const auto serve = root_.path() / "serve";
    std::filesystem::create_directories(serve);
    std::filesystem::create_directories(root_.path() / "client");
    // Log-uniform sizes between kMinFile and kMaxFile, so small files
    // (set-up dominated) and large ones both appear in the mix. Sizes
    // are stratified (file i lies in the i-th of `file_count` equal
    // log-size bands) so every seed yields the same size distribution.
    Rng rng(seed);
    for (int i = 0; i < file_count; ++i) {
      const double u = (i + static_cast<double>(rng.below(1'000'000)) / 1e6) / file_count;
      const auto size = static_cast<std::int64_t>(
          static_cast<double>(kMinFile) *
          std::pow(static_cast<double>(kMaxFile) / static_cast<double>(kMinFile), u));
      ServedFile file;
      file.name = "file" + std::to_string(i) + ".bin";
      file.bytes = make_object(size, rng.next());
      file.checksum = fnv1a(file.bytes);
      std::ofstream out(serve / file.name, std::ios::binary);
      out.write(reinterpret_cast<const char*>(file.bytes.data()),
                static_cast<std::streamsize>(file.bytes.size()));
      if (!out) throw std::runtime_error("cannot write " + (serve / file.name).string());
      files_.push_back(std::move(file));
      order_.push_back(static_cast<std::size_t>(i));
    }
    fp::FileServerOptions options;
    options.dir = serve.string();
    options.catalog_port = ports_.at(kCatalogPort);
    options.control_port_base = ports_.at(kServerControlPorts);
    options.control_port_count = 32;
    options.workers = 2;
    options.quiet = true;
    options.endpoint.timeout_ms = kTimeoutMs;
    server_ = std::make_unique<fp::FileServer>(options);
    if (!server_->start()) {
      throw std::runtime_error("file server failed to start on port " +
                               std::to_string(options.catalog_port));
    }
  }

  OpSample run_op(int op, bool traced, SpanLog& spans) override {
    // Every file is fetched once per cycle, in a seeded order, so all
    // seeds fetch the same mix.
    if (fetches_ % order_.size() == 0) {
      Rng rng(seed_ ^ (0xF17E5ull * (fetches_ / order_.size() + 1)));
      for (std::size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng.below(i + 1)]);
      }
    }
    const ServedFile& file = files_[order_[fetches_++ % order_.size()]];
    OpSample s;
    s.bytes = static_cast<std::int64_t>(file.bytes.size());
    s.packets_needed = packets_for(s.bytes, packet_bytes_);
    const auto out_path = root_.path() / "client" / file.name;

    EventTracer tracer;
    fp::FetchOptions fetch;
    fetch.catalog_port = ports_.at(kCatalogPort);
    fetch.name = file.name;
    fetch.out_path = out_path.string();
    fetch.data_port = ports_.at(kDataPorts + op % kWindow);
    fetch.quiet = true;
    fetch.endpoint.timeout_ms = kTimeoutMs;
    fetch.endpoint.tracer = traced ? &tracer : nullptr;

    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    const fp::FetchResult result = fp::fetch_file(fetch);
    const auto end = Clock::now();
    s.cpu_s = process_cpu_seconds() - cpu0;
    s.wall_s = seconds_between(start, end);
    // fetch_file reports no elapsed time; its goodput is computed over
    // the receive session, so bytes / goodput is the transfer phase.
    if (result.goodput_mbps > 0.0) {
      s.receiver_elapsed_s =
          static_cast<double>(result.bytes) * 8.0 / (result.goodput_mbps * 1e6);
    }

    std::vector<std::uint8_t> fetched;
    if (!result.completed()) {
      s.error = std::string("fetch ") + fp::to_string(result.status) + " " + result.error;
    } else if (result.bytes != s.bytes || result.checksum != file.checksum) {
      s.error = "fetch of " + file.name + " returned a wrong size or checksum";
    } else if (!read_file(out_path, fetched) || fetched != file.bytes) {
      s.error = "fetched file " + file.name + " differs from the served one";
    } else {
      s.ok = true;
    }
    std::error_code ignored;
    std::filesystem::remove(out_path, ignored);
    if (traced) add_trace_counts(s, tracer);

    const auto verified = Clock::now();
    const int root = spans.add("fetch", -1, op, start, verified);
    const int call = spans.add("fetch_file", root, op, start, end);
    // fetch_file has no finer public split: its transfer phase is
    // derived from the result, the rest is catalog, .part set-up and
    // the finalize (msync, rename).
    const auto transfer = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(std::min(s.receiver_elapsed_s, s.wall_s)));
    spans.add("catalog_and_finalize", call, op, start, end - transfer);
    spans.add("transfer", call, op, end - transfer, end);
    spans.add("verify", root, op, end, verified);
    return s;
  }

  std::optional<ServerCounters> server_counters() override {
    // The server's session can turn terminal just after the client's
    // fetch returned; wait for its books to close before reading them.
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (server_->transfers_completed() + server_->transfers_failed() <
               server_->transfers_started() &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ServerCounters{server_->transfers_failed(), server_->catalog_timeouts()};
  }

  std::optional<double> catalog_ms(int trips) override {
    std::vector<double> times;
    for (int i = 0; i < trips; ++i) {
      const auto start = Clock::now();
      if (!refused_round_trip()) return std::nullopt;
      times.push_back(seconds_between(start, Clock::now()) * 1e3);
    }
    return median(times);
  }

  [[nodiscard]] std::string data_dir() const override { return root_.path().string(); }

 private:
  /// One catalog exchange for a name the server does not have, over
  /// the public catalog protocol; true when the refusal arrived.
  bool refused_round_trip() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ports_.at(kCatalogPort));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string reply;
    bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    const std::string request =
        "perfbench-missing " + std::to_string(ports_.at(kDataPorts)) + "\n";
    ok = ok && ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
                   static_cast<ssize_t>(request.size());
    char ch = 0;
    while (ok) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, kTimeoutMs) <= 0 || ::recv(fd, &ch, 1, 0) != 1) {
        ok = false;
      } else if (ch == '\n') {
        break;
      } else {
        reply.push_back(ch);
      }
    }
    ::close(fd);
    return ok && reply.rfind("-1", 0) == 0;
  }

  std::int64_t packet_bytes_;
  std::uint64_t seed_;
  PortBlock ports_;
  ScratchDir root_;  // declared before server_: removed after the server stops
  std::vector<ServedFile> files_;
  std::vector<std::size_t> order_;
  std::uint64_t fetches_ = 0;
  std::unique_ptr<fp::FileServer> server_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec, const RunOptions& options,
                                        const PortBlock& ports, std::string* error) {
  const std::int64_t bytes = object_bytes(spec, options.smoke);
  try {
    if (spec.fetch) {
      const auto root = std::filesystem::path(options.out_dir) /
                        ("fetch-" + std::to_string(::getpid()));
      return std::make_unique<FetchSmall>(spec.packet_bytes, options.smoke ? 4 : 32,
                                          options.seed, ports, root);
    }
    if (spec.stripes > 0) {
      return std::make_unique<Striped>(bytes, spec.packet_bytes, spec.stripes,
                                       options.seed, ports);
    }
    return std::make_unique<SingleFlow>(bytes, spec.packet_bytes, options.seed, ports);
  } catch (const std::exception& e) {
    *error = e.what();
    return nullptr;
  }
}

}  // namespace perfbench
