// A concurrent FOBS file server (and its fetch client) built on the
// session engine — the library form of `fobsd`.
//
// Catalog protocol (one TCP connection per request):
//   client -> "<name> <client-udp-port>[ <stripes>]\n"
//   server -> "<size> <control-port>\n"     (size -1 = refused)
// then the server pushes the file with a FOBS transfer: data to the
// client's UDP port, the completion signal accepted on the per-session
// control port. Each side binds the port it names before naming it:
// the client its UDP data socket(s) before the request line, the server
// its control listener before the reply, so the client's first connect
// is accepted and the server's first datagram finds its socket. Every
// transfer, on both ends, is a K-stripe plan run by
// the stripe orchestrator (fobs/stripe/striped_transfer.h). Without the
// optional third token the reply has settled a 1-stripe plan, and no
// negotiation follows: the exchange is byte for byte the plain one. A
// client that wants K > 1 appends the token; the server then treats
// the replied control port as a FOBSSTRP negotiation port —
// pre-striping servers parse the port with atoi and ignore the extra
// token, so a striped-capable client degrades to one flow. Catalog
// sockets carry a receive timeout: a client that connects and sends
// nothing stalls only its own pool worker for
// `catalog_recv_timeout_ms`, never the accept loop.
//
// The fetch client is crash-resilient: it receives into a writable
// mapping of `<out>.part` with a `<out>.ckpt` bitmap sidecar, resumes
// from both when they match, and renames into place when complete.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "fobs/posix/engine.h"

namespace fobs::posix {

struct FileServerOptions {
  std::string dir;  ///< directory served (required)
  /// TCP catalog listener; 0 binds a kernel-chosen port, which start()
  /// writes back here (read it through options()).
  std::uint16_t catalog_port = 0;
  /// Each session's control listener binds the first free port of
  /// [base, base + count), so at most `count` transfers run at once and
  /// further requests are refused. Base 0 = kernel-chosen ports.
  std::uint16_t control_port_base = 0;
  std::uint16_t control_port_count = 32;
  /// Worker threads: bounds concurrently running transfers (plus
  /// in-flight catalog exchanges).
  std::size_t workers = 4;
  /// Catalog-socket receive timeout — the serve loop can no longer be
  /// wedged by a silent client.
  int catalog_recv_timeout_ms = 5'000;
  /// Per-session JSONL traces are written here when non-empty.
  std::string trace_dir;
  /// Suppress per-request stdout lines (tests).
  bool quiet = false;
  /// Most stripes the server grants one striped request (further
  /// clamped by free control ports and the object's packet count).
  /// 1 refuses striping: striped clients degrade to a single flow.
  int max_stripes = 8;
  /// Applied to every transfer session (timeout, packet size, ...).
  EndpointOptions endpoint;
};

class FileServer {
 public:
  explicit FileServer(FileServerOptions options);
  ~FileServer();

  FileServer(const FileServer&) = delete;
  FileServer& operator=(const FileServer&) = delete;

  /// Binds the catalog listener and starts accepting. False when the
  /// options are invalid (no dir, or a control range with a base but no
  /// count) or the port cannot be bound.
  bool start();
  /// Stops accepting, cancels live sessions, waits for them to finish.
  void stop();
  [[nodiscard]] bool running() const;

  [[nodiscard]] const FileServerOptions& options() const { return options_; }

  // Lifetime counters (monotonic).
  [[nodiscard]] std::uint64_t requests_handled() const { return requests_.load(); }
  [[nodiscard]] std::uint64_t requests_refused() const { return refused_.load(); }
  [[nodiscard]] std::uint64_t catalog_timeouts() const { return catalog_timeouts_.load(); }
  [[nodiscard]] std::uint64_t transfers_started() const { return started_.load(); }
  [[nodiscard]] std::uint64_t transfers_completed() const { return completed_.load(); }
  [[nodiscard]] std::uint64_t transfers_failed() const { return failed_.load(); }

 private:
  void handle_catalog(int fd, const std::string& peer_host);

  FileServerOptions options_;
  std::unique_ptr<TransferEngine> engine_;
  /// Set for the duration of stop(): catalog handlers still in flight
  /// abort their recv and refuse new sessions, so the engine can be
  /// quiesced and destroyed without racing them.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> catalog_timeouts_{0};
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
};

struct FetchOptions {
  std::string host = "127.0.0.1";  ///< server address, an IPv4 literal
  std::uint16_t catalog_port = 0;  ///< server's catalog port (required)
  std::string name;                ///< file name in the server's directory
  std::string out_path;            ///< local destination path
  /// Local UDP data port: 0 binds a kernel-chosen port per stripe;
  /// otherwise stripe i binds data_port + i. Bound before the catalog
  /// line names it; a taken port fails the fetch with kSocketError
  /// before anything reaches the server.
  std::uint16_t data_port = 0;
  /// Resume from `<out>.part` + `<out>.ckpt` when they match.
  bool resume = true;
  bool quiet = false;
  /// Stripe count to request (> 1 enables FOBSSTRP negotiation; the
  /// server may grant fewer, and no more are asked for than data ports
  /// could be bound). Falls back to a single flow against pre-striping
  /// servers.
  int stripes = 1;
  stripe::StripeLayout layout = stripe::StripeLayout::kContiguous;
  /// Applied to the receive session(s). endpoint.timeout_ms also
  /// bounds the catalog exchange, connect retries included.
  EndpointOptions endpoint;
};

struct FetchResult {
  TransferStatus status = TransferStatus::kPending;
  std::string error;
  std::int64_t bytes = 0;
  std::int64_t packets_restored = 0;  ///< resumed from a checkpoint
  double goodput_mbps = 0.0;
  std::uint64_t checksum = 0;  ///< FNV-1a of the fetched content
  int stripes = 0;             ///< flows actually used (post-negotiation)
  /// Striping was requested but the transfer ran as one plain flow.
  bool fallback_single_flow = false;

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
};

/// Fetches one file from a FileServer (or `fobsd serve`). Blocking.
FetchResult fetch_file(const FetchOptions& options);

}  // namespace fobs::posix
