#include "fobs/posix/fileserver.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/stripe/striped_transfer.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace {

using Clock = std::chrono::steady_clock;

/// Longest catalog line accepted, newline excluded: 511 bytes.
constexpr std::size_t kMaxLineBytes = 512;

/// Reads one '\n'-terminated line (newline stripped) from a stream
/// socket, giving up at `deadline` or as soon as `abort` (optional) is
/// set. The timeout is what keeps a connected-but-silent client from
/// wedging a catalog worker forever; the abort flag lets a server
/// shutdown reclaim such a worker without waiting out the timeout.
/// Reads in chunks: each catalog connection carries one line each way,
/// so whatever follows the newline is never meant for a later read.
/// Returns false on timeout/abort/EOF/error or a line of
/// kMaxLineBytes or more; `line` holds whatever arrived.
bool recv_line(int fd, Clock::time_point deadline, std::string& line,
               const std::atomic<bool>* abort = nullptr) {
  line.clear();
  char chunk[kMaxLineBytes];
  while (line.size() < kMaxLineBytes) {
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) return false;
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(
                                          remaining.count(), 100)));
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return false;  // EOF before the newline
    if (n < 0) {
      if (errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) continue;
      return false;
    }
    const char* end = chunk + n;
    const char* newline = std::find(static_cast<const char*>(chunk), end, '\n');
    line.append(chunk, static_cast<std::size_t>(newline - chunk));
    if (newline != end) return line.size() < kMaxLineBytes;
  }
  return false;  // over-long request line
}

bool name_is_safe(const std::string& name) {
  if (name.empty() || name.front() == '/') return false;
  return name.find("..") == std::string::npos;
}

}  // namespace

// ---------------------------------------------------------------------------
// FileServer
// ---------------------------------------------------------------------------

FileServer::FileServer(FileServerOptions options) : options_(std::move(options)) {}

FileServer::~FileServer() { stop(); }

bool FileServer::start() {
  if (engine_) return false;  // already started
  if (options_.dir.empty() ||
      (options_.control_port_base != 0 && options_.control_port_count == 0)) {
    return false;
  }
  EngineOptions engine_options;
  engine_options.workers = options_.workers;
  engine_options.control_port_base = options_.control_port_base;
  engine_options.control_port_count = options_.control_port_count;
  engine_options.trace_dir = options_.trace_dir;
  engine_ = std::make_unique<TransferEngine>(engine_options);
  if (!engine_->start_acceptor(options_.catalog_port, [this](int fd, std::string peer) {
        handle_catalog(fd, peer);
      })) {
    engine_.reset();
    return false;
  }
  options_.catalog_port = engine_->acceptor_port();
  if (!options_.quiet) {
    const unsigned base = options_.control_port_base;
    const std::string ports =
        base == 0 ? std::string("kernel-chosen")
                  : "[" + std::to_string(base) + ", " +
                        std::to_string(base + options_.control_port_count) + ")";
    std::printf("fobsd: serving %s on port %u (%zu workers, control ports %s)\n",
                options_.dir.c_str(), options_.catalog_port, options_.workers, ports.c_str());
  }
  return true;
}

void FileServer::stop() {
  if (!engine_) return;
  // Quiesce order matters: the stopping flag makes catalog handlers
  // bail out of recv_line and refuse new sessions; cancelling live
  // sessions first frees pool workers so queued handlers drain fast;
  // stop_acceptor() then blocks until every dispatched handler has
  // returned — only after that is it safe to destroy the engine the
  // handlers call into.
  stopping_.store(true);
  engine_->cancel_all();
  engine_->stop_acceptor();
  engine_->cancel_all();  // sessions submitted by handlers mid-shutdown
  engine_->wait_idle();
  engine_.reset();
  stopping_.store(false);
}

bool FileServer::running() const { return engine_ != nullptr && engine_->acceptor_running(); }

void FileServer::handle_catalog(int fd, const std::string& peer_host) {
  net::Fd conn(fd);  // closed on every early return
  if (stopping_.load(std::memory_order_relaxed)) return;
  requests_.fetch_add(1, std::memory_order_relaxed);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max(1, options_.catalog_recv_timeout_ms));
  std::string request;
  if (!recv_line(fd, deadline, request, &stopping_)) {
    if (!stopping_.load(std::memory_order_relaxed)) {
      catalog_timeouts_.fetch_add(1, std::memory_order_relaxed);
      telemetry::MetricsRegistry::global().counter("fobs.fileserver.catalog_timeouts").inc();
    }
    return;
  }
  auto reply = [&](const std::string& line) {
    net::send_all(fd, line.data(), line.size(), deadline);
  };
  auto refuse = [&] {
    refused_.fetch_add(1, std::memory_order_relaxed);
    reply("-1 0\n");
  };
  const auto space = request.find(' ');
  const std::string name = request.substr(0, space);
  int client_port = 0;
  int client_stripes = 1;  // optional third token: requested stripes
  if (space != std::string::npos) {
    std::sscanf(request.c_str() + space + 1, "%d %d", &client_port, &client_stripes);
  }

  // A shutdown would cancel a new session at once: shed the request.
  if (stopping_.load(std::memory_order_relaxed)) return refuse();
  auto mapped = name_is_safe(name)
                    ? fobs::core::TransferObject::map_file(options_.dir + "/" + name)
                    : std::nullopt;
  if (!mapped || client_port <= 0 || client_port > 65535) return refuse();
  // Listen first, then advertise: the client's control connect (or
  // FOBSSTRP negotiation) waits in this listener's backlog however long
  // the session takes to reach a worker.
  net::Fd listener = engine_->listen_control_port();
  if (!listener.valid()) {
    // Every port of the control range is carrying a transfer: shed load
    // instead of queueing a session that could not listen anywhere.
    telemetry::MetricsRegistry::global().counter("fobs.fileserver.port_exhausted").inc();
    return refuse();
  }
  const std::uint16_t control_port = net::local_port(listener.get());
  auto object = std::make_shared<fobs::core::TransferObject>(std::move(*mapped));
  reply(std::to_string(object->size()) + " " + std::to_string(control_port) + "\n");
  conn.reset();  // catalog exchange done; the transfer session takes over

  StripedSenderOptions send_options;
  send_options.negotiation_port = control_port;
  send_options.max_stripes =
      std::min(options_.max_stripes, std::min(client_stripes, stripe::kMaxStripes));
  send_options.endpoint = options_.endpoint;
  StripedSessionParams params;
  params.keepalive = object;
  params.on_complete = [this, name, peer_host, client_port](const StripedResult& result) {
    if (result.completed()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!options_.quiet) {
      std::printf("fobsd: %s -> %s:%d  %s (%d stripe%s%s, %.0f Mb/s)\n", name.c_str(),
                  peer_host.c_str(), client_port, to_string(result.status), result.stripes,
                  result.stripes == 1 ? "" : "s",
                  result.fallback_single_flow ? ", fallback" : "", result.goodput_mbps);
    }
  };
  started_.fetch_add(1, std::memory_order_relaxed);
  std::string error;
  // A striped request turns the replied control port into the FOBSSTRP
  // negotiation port. Anything else is already a settled 1-stripe plan:
  // the reply fixed both of its ports, so it launches without a
  // negotiation round trip — and a pre-striping client sees exactly the
  // plain exchange it expects.
  bool launched = false;
  if (client_stripes > 1 && send_options.max_stripes > 1) {
    params.listener = std::move(listener);
    launched = engine_->submit_striped_send(send_options, object->view(), std::move(params),
                                            &error);
  } else {
    StripeLaunch launch{.peer_host = peer_host,
                        .peer_ports = {static_cast<std::uint16_t>(client_port)}};
    launch.sockets.push_back(std::move(listener));
    launched = engine_->launch_striped_send(send_options, object->view(), std::move(launch),
                                            std::move(params), &error);
  }
  if (!launched) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (!options_.quiet) {
      std::printf("fobsd: %s -> %s:%d  launch failed: %s\n", name.c_str(), peer_host.c_str(),
                  client_port, error.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// fetch_file
// ---------------------------------------------------------------------------

FetchResult fetch_file(const FetchOptions& options) {
  FetchResult result;
  result.status = TransferStatus::kBadOptions;
  if (options.catalog_port == 0 || options.name.empty() || options.out_path.empty()) {
    result.error = "invalid options: catalog_port, name, out_path are required";
    return result;
  }
  if (!net::make_addr(options.host, options.catalog_port)) {
    result.error = "invalid options: host must be an IPv4 address";
    return result;
  }
  // Bind the data sockets before the catalog line names the first: a
  // taken port fails here, before the server starts a session, and the
  // request asks for as many stripes as were bound.
  std::vector<net::Fd> data_sockets =
      bind_data_sockets(options.data_port, std::clamp(options.stripes, 1, stripe::kMaxStripes));
  if (data_sockets.empty()) {
    result.status = TransferStatus::kSocketError;
    result.error = "udp bind failed on data port " + std::to_string(options.data_port);
    return result;
  }
  const int stripes = static_cast<int>(data_sockets.size());
  const std::uint16_t data_port = net::local_port(data_sockets.front().get());

  // Catalog exchange. The connect retries with backoff (the server may
  // still be starting); connect, request and reply share one deadline.
  const auto catalog_deadline =
      Clock::now() + std::chrono::milliseconds(std::max(1, options.endpoint.timeout_ms));
  net::Fd conn =
      net::connect_with_backoff(options.host, options.catalog_port, catalog_deadline);
  if (!conn.valid()) {
    result.status = TransferStatus::kPeerLost;
    result.error = "catalog connect failed";
    return result;
  }
  std::string catalog_line = options.name + " " + std::to_string(data_port);
  if (stripes > 1) catalog_line += " " + std::to_string(stripes);
  catalog_line += "\n";
  net::send_all(conn.get(), catalog_line.data(), catalog_line.size(), catalog_deadline);
  std::string reply;
  const bool got_reply = recv_line(conn.get(), catalog_deadline, reply);
  conn.reset();
  long long size = -1;
  int control_port = 0;
  if (got_reply) std::sscanf(reply.c_str(), "%lld %d", &size, &control_port);
  if (size < 0 || control_port <= 0) {
    result.status = TransferStatus::kPeerLost;
    result.error = "server refused '" + options.name + "'";
    return result;
  }
  result.bytes = size;

  // Crash resilience: the receive buffer IS the <out>.part file — a
  // writable shared mapping, so every validated packet lands in the
  // page cache the moment it is written and the bitmap sidecar can
  // never record packets whose bytes a hard crash (kill -9, OOM) threw
  // away. The bitmap may lag the data, which only costs resends.
  const std::string partial_path = options.out_path + ".part";
  const std::string checkpoint_path = options.out_path + ".ckpt";
  struct stat part_stat{};
  const bool resuming = options.resume && ::stat(partial_path.c_str(), &part_stat) == 0 &&
                        part_stat.st_size == static_cast<off_t>(size);
  if (!resuming) {
    // No matching partial bytes: a leftover checkpoint (object-level or
    // per-stripe sidecar) describes data we do not have, and restoring
    // it would leave silent zero-filled holes in the fetched file.
    remove_striped_checkpoints(checkpoint_path);
  } else if (!options.quiet) {
    std::printf("fobsd: found partial fetch %s, attempting resume\n", partial_path.c_str());
  }
  auto partial = fobs::core::TransferObject::map_file_rw(partial_path,
                                                         static_cast<std::int64_t>(size));
  if (!partial) {
    result.status = TransferStatus::kSocketError;
    result.error = "cannot map " + partial_path;
    return result;
  }
  StripedReceiverOptions receive;
  receive.sender_host = options.host;
  receive.negotiation_port = static_cast<std::uint16_t>(control_port);
  receive.stripes = stripes;
  receive.layout = options.layout;
  receive.checkpoint_base = checkpoint_path;
  receive.endpoint = options.endpoint;
  // Every stripe's receive session writes the mapping at plan offsets.
  // One stripe needs no negotiation: the catalog reply fixed its ports.
  TransferEngine engine(EngineOptions{.workers = static_cast<std::size_t>(stripes)});
  const StripedResult received =
      stripes > 1 ? engine.run_striped_receiver(receive, partial->mutable_view(),
                                                std::move(data_sockets))
                  : engine.launch_striped_receive(
                        receive, partial->mutable_view(),
                        StripeLaunch{.peer_ports = {receive.negotiation_port},
                                     .sockets = std::move(data_sockets)});
  result.status = received.status;
  result.error = received.error;
  result.packets_restored = received.packets_restored;
  result.goodput_mbps = received.goodput_mbps;
  result.stripes = received.stripes;
  result.fallback_single_flow = received.fallback_single_flow;
  if (!options.quiet && received.fallback_single_flow) {
    std::printf("fobsd: server declined striping; fetched over one flow\n");
  }
  partial->sync();
  if (!result.completed()) {
    if (!options.quiet) {
      std::printf("fobsd: kept partial bytes in %s for resume\n", partial_path.c_str());
    }
    return result;
  }
  result.checksum = partial->checksum();
  partial.reset();  // unmap before renaming into place
  if (std::rename(partial_path.c_str(), options.out_path.c_str()) != 0) {
    result.status = TransferStatus::kSocketError;
    result.error = "cannot move " + partial_path + " to " + options.out_path;
  }
  return result;
}

}  // namespace fobs::posix
