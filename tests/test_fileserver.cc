// FileServer + fetch_file end-to-end over loopback: the acceptance
// test for the concurrent fobsd redesign (three overlapping fetches
// from distinct clients, all byte-identical) plus the catalog-timeout
// bugfix (a connected-but-silent client can no longer wedge the serve
// loop), the refusal paths, resuming through fetch_file with one and
// two stripes, pairing with a pre-striping server, per-stripe session
// traces, and the rendezvous: every port either side names is bound
// first. Servers bind kernel-chosen catalog and control ports, and
// fetches kernel-chosen data ports.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bitmap.h"
#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/fileserver.h"
#include "fobs/stripe/plan.h"
#include "fobs/stripe/negotiate.h"
#include "fobs/stripe/striped_transfer.h"
#include "net/socket.h"
#include "test_ports.h"

namespace fobs {
namespace {

/// Stages `count` pattern files ("dataset<i>.bin") into a fresh
/// directory under the test temp dir; returns their checksums.
std::vector<std::uint64_t> stage_files(const std::string& dir,
                                       const std::vector<std::int64_t>& sizes) {
  ::mkdir(dir.c_str(), 0755);
  std::vector<std::uint64_t> checksums;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    auto object = core::TransferObject::pattern(sizes[i], 0xF11E + static_cast<int>(i));
    checksums.push_back(object.checksum());
    EXPECT_TRUE(object.write_to_file(dir + "/dataset" + std::to_string(i) + ".bin"));
  }
  return checksums;
}

/// Opens a TCP connection to 127.0.0.1:`port`; returns the fd or -1.
int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Waits (bounded) until the server has accounted every transfer it
/// started. It counts one in the session's exit hook, which runs after
/// its sender read the completion token — possibly after fetch_file
/// has already returned on the client side.
void wait_transfers_settled(const posix::FileServer& server) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.transfers_completed() + server.transfers_failed() !=
             server.transfers_started() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// ---------------------------------------------------------------------------
// Acceptance: >= 3 overlapping fetches from distinct clients
// ---------------------------------------------------------------------------

TEST(FileServer, ThreeOverlappingFetchesAreByteIdentical) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_accept";
  const std::vector<std::int64_t> sizes = {768 * 1024, 256 * 1024 + 7, 512 * 1024};
  const auto checksums = stage_files(dir, sizes);

  posix::FileServerOptions options;
  options.dir = dir;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());

  // Three clients fetch concurrently, each on its own kernel-chosen UDP
  // data port.
  std::vector<posix::FetchResult> results(sizes.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    clients.emplace_back([&, i] {
      posix::FetchOptions fetch;
      fetch.catalog_port = server.options().catalog_port;
      fetch.name = "dataset" + std::to_string(i) + ".bin";
      fetch.out_path = dir + "/fetched" + std::to_string(i) + ".bin";
      fetch.quiet = true;
      fetch.endpoint.timeout_ms = 30'000;
      results[i] = posix::fetch_file(fetch);
    });
  }
  for (auto& client : clients) client.join();

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(results[i].status, posix::TransferStatus::kCompleted)
        << "fetch " << i << ": " << results[i].error;
    EXPECT_EQ(results[i].bytes, sizes[i]);
    EXPECT_EQ(results[i].checksum, checksums[i]) << "fetch " << i << " content differs";
    // The fetched file really landed on disk at full size.
    auto fetched =
        core::TransferObject::map_file(dir + "/fetched" + std::to_string(i) + ".bin");
    ASSERT_TRUE(fetched.has_value()) << "fetch " << i;
    EXPECT_EQ(fetched->size(), sizes[i]);
    EXPECT_EQ(fetched->checksum(), checksums[i]);
  }
  wait_transfers_settled(server);
  EXPECT_EQ(server.requests_handled(), sizes.size());
  EXPECT_EQ(server.transfers_started(), sizes.size());
  EXPECT_EQ(server.transfers_completed(), sizes.size());
  EXPECT_EQ(server.transfers_failed(), 0u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Bugfix: a silent catalog client must not wedge the serve loop
// ---------------------------------------------------------------------------

TEST(FileServer, SilentCatalogClientTimesOutAndServiceContinues) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_silent";
  const auto checksums = stage_files(dir, {128 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_recv_timeout_ms = 500;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  // A client connects and then says nothing — the pre-engine fobsd
  // would block on recv() here forever, wedging every later request.
  const int silent = connect_tcp(server.options().catalog_port);
  ASSERT_GE(silent, 0);

  // While the silent client sits there, a real fetch must still work.
  posix::FetchOptions fetch;
  fetch.catalog_port = server.options().catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched0.bin";
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  EXPECT_EQ(result.status, posix::TransferStatus::kCompleted) << result.error;
  EXPECT_EQ(result.checksum, checksums[0]);

  // The silent connection is reaped by the catalog receive timeout.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.catalog_timeouts() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.catalog_timeouts(), 1u);
  wait_transfers_settled(server);
  EXPECT_EQ(server.transfers_completed(), 1u);
  ::close(silent);
  server.stop();
}

TEST(FileServer, StopWithHandlerInFlightIsPromptAndSafe) {
  // Regression: stop() used to destroy the engine while a catalog
  // handler could still be blocked in its receive (up to
  // catalog_recv_timeout_ms), leaving the handler to call into a dead
  // engine. stop() must quiesce that handler first — and do so promptly
  // (the stopping flag aborts the receive), not by waiting out the
  // timeout.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_stoprace";
  stage_files(dir, {4 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_recv_timeout_ms = 10'000;
  options.quiet = true;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  // Connect silently and wait until the handler is actually running
  // (it counts the request on entry), so stop() races a live handler.
  const int silent = connect_tcp(server.options().catalog_port);
  ASSERT_GE(silent, 0);
  const auto dispatch_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.requests_handled() == 0 &&
         std::chrono::steady_clock::now() < dispatch_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.requests_handled(), 1u);

  const auto stop_start = std::chrono::steady_clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - stop_start)
                           .count();
  EXPECT_FALSE(server.running());
  EXPECT_LT(stop_ms, 5'000) << "stop() should abort the blocked handler, not wait out "
                               "catalog_recv_timeout_ms";
  ::close(silent);
}

// ---------------------------------------------------------------------------
// Refusal paths
// ---------------------------------------------------------------------------

TEST(FileServer, UnknownFileAndTraversalAreRefused) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_refuse";
  stage_files(dir, {4 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.quiet = true;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions missing;
  missing.catalog_port = server.options().catalog_port;
  missing.name = "no-such-file.bin";
  missing.out_path = dir + "/never.bin";
  missing.quiet = true;
  const auto refused = posix::fetch_file(missing);
  EXPECT_EQ(refused.status, posix::TransferStatus::kPeerLost);
  EXPECT_FALSE(refused.completed());

  posix::FetchOptions traversal = missing;
  traversal.name = "../dataset0.bin";
  const auto blocked = posix::fetch_file(traversal);
  EXPECT_FALSE(blocked.completed());

  EXPECT_EQ(server.requests_refused(), 2u);
  EXPECT_EQ(server.transfers_started(), 0u);
  server.stop();
}

TEST(FileServer, TakenDataPortFailsBeforeTheServerStartsASession) {
  // fetch_file binds its data port before the catalog line names it. A
  // port another socket holds fails the fetch there: the server never
  // hears of it, instead of starting a session that holds a worker and
  // a control port until its timeout.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_taken";
  stage_files(dir, {64 * 1024});
  posix::FileServerOptions options;
  options.dir = dir;
  options.quiet = true;
  options.endpoint.timeout_ms = 4'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  const net::Fd taken = net::bind_udp(0);
  ASSERT_TRUE(taken.valid());
  posix::FetchOptions fetch;
  fetch.catalog_port = server.options().catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched.bin";
  fetch.data_port = net::local_port(taken.get());
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 4'000;
  const auto result = posix::fetch_file(fetch);
  EXPECT_EQ(result.status, posix::TransferStatus::kSocketError) << result.error;
  EXPECT_EQ(server.requests_handled(), 0u);
  EXPECT_EQ(server.transfers_started(), 0u);
  EXPECT_FALSE(std::filesystem::exists(fetch.out_path + ".part"));
  server.stop();
  std::filesystem::remove_all(dir);
}

TEST(FileServer, FetchAgainstARefusedPortFailsWithinItsTimeout) {
  // A port nobody listens on: bind an ephemeral one, then close it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(probe);

  posix::FetchOptions fetch;
  fetch.catalog_port = ntohs(addr.sin_port);
  fetch.name = "anything.bin";
  fetch.out_path = ::testing::TempDir() + "fobs_fileserver_refused.bin";
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 300;
  const auto start = std::chrono::steady_clock::now();
  const auto result = posix::fetch_file(fetch);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status, posix::TransferStatus::kPeerLost) << result.error;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(FileServer, UnparseableHostFailsFastInsteadOfFetchingFromThisMachine) {
  // A host name is not an IPv4 literal: the fetch must refuse it before
  // any connect, not read it as 0.0.0.0 (this machine) and quietly
  // fetch from the local server.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_badhost";
  stage_files(dir, {64 * 1024});
  posix::FileServerOptions options;
  options.dir = dir;
  options.quiet = true;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions fetch;
  fetch.host = "no-such-host.invalid";
  fetch.catalog_port = server.options().catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched.bin";
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 5'000;
  const auto start = std::chrono::steady_clock::now();
  const auto result = posix::fetch_file(fetch);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions) << result.error;
  EXPECT_NE(result.error.find("IPv4"), std::string::npos) << result.error;
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
  EXPECT_FALSE(std::filesystem::exists(fetch.out_path));
  EXPECT_EQ(server.requests_handled(), 0u);
  server.stop();
  std::filesystem::remove_all(dir);
}

TEST(FileServer, StartRejectsInvalidOptions) {
  posix::FileServerOptions no_dir_options;
  posix::FileServer no_dir(no_dir_options);
  EXPECT_FALSE(no_dir.start());

  // A control range with a base but no ports could never serve.
  posix::FileServerOptions empty_range_options;
  empty_range_options.dir = "/tmp";
  empty_range_options.control_port_base = test::port(9);
  empty_range_options.control_port_count = 0;
  posix::FileServer empty_range(empty_range_options);
  EXPECT_FALSE(empty_range.start());
}

TEST(FileServer, CatalogPortZeroIsKernelChosenAndReported) {
  posix::FileServerOptions options;
  options.dir = "/tmp";
  options.quiet = true;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.options().catalog_port;
  EXPECT_NE(port, 0);
  const int conn = connect_tcp(port);
  EXPECT_GE(conn, 0);
  if (conn >= 0) ::close(conn);
  server.stop();
}

// ---------------------------------------------------------------------------
// Resuming through fetch_file
// ---------------------------------------------------------------------------

constexpr std::int64_t kResumeBytes = 256 * 1024 + 100;  // 257 packets of 1 KiB
constexpr std::int64_t kResumePacket = 1024;
constexpr std::int64_t kResumeMarked = 128;  // packets already on disk

/// A checkpoint of an `object_bytes` object with its first `marked`
/// packets received.
posix::Checkpoint first_packets_checkpoint(std::int64_t object_bytes, std::int64_t marked) {
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = object_bytes;
  checkpoint.packet_bytes = kResumePacket;
  const auto packets = static_cast<std::size_t>(checkpoint.packet_count());
  util::Bitmap bits(packets);
  for (std::int64_t i = 0; i < marked; ++i) bits.set(static_cast<std::size_t>(i));
  checkpoint.received_count = marked;
  checkpoint.bitmap = bits.extract_range(0, packets);
  return checkpoint;
}

/// Leaves what an interrupted fetch of `original` to `out` leaves: a
/// full-size `<out>.part` holding only the first kResumeMarked packets,
/// and (when `with_checkpoint`) an object-level `<out>.ckpt` marking
/// exactly those.
void stage_partial_fetch(const core::TransferObject& original, const std::string& out,
                         bool with_part, bool with_checkpoint) {
  if (with_part) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(original.size()), 0);
    const auto view = original.view();
    std::copy(view.begin(), view.begin() + kResumeMarked * kResumePacket, bytes.begin());
    std::ofstream part(out + ".part", std::ios::binary | std::ios::trunc);
    part.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(part.good());
  }
  if (with_checkpoint) {
    ASSERT_TRUE(posix::save_checkpoint(
        out + ".ckpt", first_packets_checkpoint(original.size(), kResumeMarked)));
  }
}

/// Names in `out`'s directory that start with `<out>.ckpt`.
std::vector<std::string> checkpoint_files(const std::string& out) {
  const std::filesystem::path path(out);
  const std::string prefix = path.filename().string() + ".ckpt";
  std::vector<std::string> found;
  for (const auto& entry : std::filesystem::directory_iterator(path.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  return found;
}

TEST(FileServer, FetchResumesFromPartialFileWithOneOrTwoStripes) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_resume";
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  auto original = core::TransferObject::pattern(kResumeBytes, 0x5E5);
  ASSERT_TRUE(original.write_to_file(dir + "/dataset.bin"));

  posix::FileServerOptions options;
  options.dir = dir;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  auto fetch_to = [&](const std::string& out, int stripes) {
    posix::FetchOptions fetch;
    fetch.catalog_port = server.options().catalog_port;
    fetch.name = "dataset.bin";
    fetch.out_path = out;
    fetch.stripes = stripes;
    fetch.quiet = true;
    fetch.endpoint.timeout_ms = 30'000;
    return posix::fetch_file(fetch);
  };
  auto fetched_matches = [&](const std::string& out) {
    auto fetched = core::TransferObject::map_file(out);
    return fetched.has_value() && fetched->size() == original.size() &&
           std::equal(fetched->view().begin(), fetched->view().end(),
                      original.view().begin());
  };

  {
    SCOPED_TRACE("K=1 resumes exactly the marked packets");
    const std::string out = dir + "/one.bin";
    stage_partial_fetch(original, out, /*with_part=*/true, /*with_checkpoint=*/true);
    const auto result = fetch_to(out, 1);
    ASSERT_TRUE(result.completed()) << result.error;
    EXPECT_EQ(result.stripes, 1);
    EXPECT_EQ(result.packets_restored, kResumeMarked);
    EXPECT_EQ(result.checksum, original.checksum());
    EXPECT_TRUE(fetched_matches(out));
    EXPECT_TRUE(checkpoint_files(out).empty());
  }
  {
    SCOPED_TRACE("K=2 stripes each restore their packets from the object-level checkpoint");
    const std::string out = dir + "/two.bin";
    stage_partial_fetch(original, out, true, true);
    const auto result = fetch_to(out, 2);
    ASSERT_TRUE(result.completed()) << result.error;
    EXPECT_EQ(result.stripes, 2);
    EXPECT_FALSE(result.fallback_single_flow);
    // Contiguous layout: the marked packets all fall in stripe 0.
    EXPECT_EQ(result.packets_restored, kResumeMarked);
    EXPECT_TRUE(fetched_matches(out));
    EXPECT_TRUE(checkpoint_files(out).empty());
  }
  {
    SCOPED_TRACE("a checkpoint without its .part is discarded");
    const std::string out = dir + "/orphan.bin";
    stage_partial_fetch(original, out, /*with_part=*/false, /*with_checkpoint=*/true);
    const auto result = fetch_to(out, 1);
    ASSERT_TRUE(result.completed()) << result.error;
    EXPECT_EQ(result.packets_restored, 0);
    EXPECT_TRUE(fetched_matches(out));
    EXPECT_TRUE(checkpoint_files(out).empty());
  }
  {
    SCOPED_TRACE("a plain fetch after a degraded 2-stripe attempt removes its sidecars");
    const std::string out = dir + "/leftover.bin";
    stage_partial_fetch(original, out, true, true);
    // What a degraded 2-stripe attempt of an older release left besides
    // the merged `.ckpt`: stripe 0's sidecar, in stripe-local geometry,
    // which the union of the base's files skips.
    stripe::StripePlan plan;
    ASSERT_TRUE(stripe::StripePlan::make({kResumeBytes, kResumePacket}, 2,
                                         stripe::StripeLayout::kContiguous, &plan));
    ASSERT_TRUE(posix::save_checkpoint(
        out + ".ckpt.s0", first_packets_checkpoint(plan.stripe_bytes(0), kResumeMarked)));
    const auto result = fetch_to(out, 1);
    ASSERT_TRUE(result.completed()) << result.error;
    EXPECT_EQ(result.packets_restored, kResumeMarked);
    EXPECT_TRUE(fetched_matches(out));
    EXPECT_TRUE(checkpoint_files(out).empty())
        << "left behind: " << ::testing::PrintToString(checkpoint_files(out));
  }
  wait_transfers_settled(server);
  EXPECT_EQ(server.transfers_completed(), 4u);
  server.stop();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// One stripe is a plain exchange: no FOBSSTRP round trip
// ---------------------------------------------------------------------------

TEST(FileServer, DefaultFetchPairsWithAPreStripingServer) {
  // A server that predates striping: it answers one catalog line and
  // serves a plain sender session on the replied control port. A fetch
  // that negotiated even a 1-stripe plan would have its FOBSSTRP token
  // dropped there and report a fallback.
  auto object = core::TransferObject::pattern(96 * 1024 + 5, 0x01D);
  const std::string out = ::testing::TempDir() + "fobs_fileserver_prestriping.bin";

  net::Fd listener = net::listen_tcp(0, 1);
  net::Fd control = net::listen_tcp(0, 1);
  ASSERT_TRUE(listener.valid());
  ASSERT_TRUE(control.valid());
  std::string request;
  int data_port = 0;
  posix::SenderResult served;
  std::thread stub([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    net::Fd conn = net::accept_until(listener.get(), deadline);
    if (!conn.valid()) return;
    char ch = 0;
    while (net::read_exact(conn.get(), &ch, 1, deadline) && ch != '\n') request.push_back(ch);
    std::sscanf(request.c_str(), "%*s %d", &data_port);
    const std::string reply = std::to_string(object.size()) + " " +
                              std::to_string(net::local_port(control.get())) + "\n";
    net::send_all(conn.get(), reply.data(), reply.size(), deadline);
    conn.reset();
    posix::SenderOptions plain;
    plain.data_port = static_cast<std::uint16_t>(data_port);
    plain.endpoint.timeout_ms = 10'000;
    posix::SessionParams params;
    params.socket = std::move(control);
    posix::TransferEngine engine(posix::EngineOptions{.workers = 1});
    auto handle = engine.submit_send(plain, object.view(), std::move(params));
    handle.wait();
    served = handle.sender_result();
  });

  posix::FetchOptions fetch;
  fetch.catalog_port = net::local_port(listener.get());
  fetch.name = "dataset.bin";
  fetch.out_path = out;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 10'000;
  const auto result = posix::fetch_file(fetch);
  stub.join();

  EXPECT_NE(data_port, 0);
  EXPECT_EQ(request, "dataset.bin " + std::to_string(data_port));
  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_FALSE(result.fallback_single_flow);
  EXPECT_EQ(result.stripes, 1);
  EXPECT_EQ(result.checksum, object.checksum());
  EXPECT_TRUE(served.completed()) << served.error;
  std::filesystem::remove(out);
}

// ---------------------------------------------------------------------------
// Session traces: one JSONL file per stripe session
// ---------------------------------------------------------------------------

TEST(FileServer, StripedFetchWritesOneTracePerStripeSession) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_traces";
  const std::string trace_dir = dir + "/traces";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(trace_dir);
  const auto checksums = stage_files(dir, {200 * 1024 + 3});

  posix::FileServerOptions options;
  options.dir = dir;
  options.trace_dir = trace_dir;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions fetch;
  fetch.catalog_port = server.options().catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched.bin";
  fetch.stripes = 2;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  ASSERT_TRUE(result.completed()) << result.error;
  ASSERT_EQ(result.stripes, 2);
  EXPECT_EQ(result.checksum, checksums[0]);
  wait_transfers_settled(server);
  server.stop();

  // Session ids are engine-wide, so only the stripe suffix is known.
  // Names and lines must round-trip through their fixed formats.
  std::vector<int> stripes_traced;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    const std::string file = entry.path().filename().string();
    unsigned long long id = 0;
    int stripe = -1;
    ASSERT_EQ(std::sscanf(file.c_str(), "session_%llu_s%d.jsonl", &id, &stripe), 2) << file;
    ASSERT_EQ(file, "session_" + std::to_string(id) + "_s" + std::to_string(stripe) + ".jsonl");
    stripes_traced.push_back(stripe);
    std::ifstream in(entry.path());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_FALSE(lines.empty()) << file;
    EXPECT_NE(lines.front().find("\"event\":\"transfer_start\""), std::string::npos) << file;
    for (const auto& line : lines) {
      long long t_ns = 0;
      long long seq = 0;
      long long value = 0;
      char event[64] = {0};
      const char* format = R"({"t_ns":%lld,"event":"%63[a-z_]","seq":%lld,"value":%lld})";
      ASSERT_EQ(std::sscanf(line.c_str(), format, &t_ns, event, &seq, &value), 4)
          << file << ": " << line;
      EXPECT_EQ(line, "{\"t_ns\":" + std::to_string(t_ns) + ",\"event\":\"" + event +
                          "\",\"seq\":" + std::to_string(seq) +
                          ",\"value\":" + std::to_string(value) + "}");
    }
  }
  std::sort(stripes_traced.begin(), stripes_traced.end());
  EXPECT_EQ(stripes_traced, (std::vector<int>{0, 1}));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Rendezvous: a port goes on the wire only once something listens on it
// ---------------------------------------------------------------------------

/// Sends one catalog request line and returns the replied control port
/// (0 when refused or nothing came back). With `split_at` the line goes
/// out in two writes 20 ms apart, split before that byte.
std::uint16_t catalog_request(std::uint16_t catalog_port, const std::string& line,
                              std::size_t split_at = 0) {
  net::Fd conn(connect_tcp(catalog_port));
  if (!conn.valid() || !net::set_nonblocking(conn.get())) return 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  if (split_at > 0) {
    if (!net::send_all(conn.get(), line.data(), split_at, deadline)) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!net::send_all(conn.get(), line.data() + split_at, line.size() - split_at, deadline)) {
    return 0;
  }
  std::string reply;
  char ch = 0;
  while (net::read_exact(conn.get(), &ch, 1, deadline) && ch != '\n') reply.push_back(ch);
  long long size = -1;
  int port = 0;
  if (std::sscanf(reply.c_str(), "%lld %d", &size, &port) != 2 || size < 0) return 0;
  return static_cast<std::uint16_t>(port);
}

TEST(FileServer, AdvertisedControlPortsAcceptTheFirstConnect) {
  // The catalog reply's control port, and every stripe control port of
  // a FOBSSTRP response, take one connect() with no retry. Repeated:
  // a server that advertised before binding lost this race only some
  // of the time.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_rendezvous";
  constexpr std::int64_t kBytes = 64 * 1024;
  constexpr int kStripes = 4;
  stage_files(dir, {kBytes});
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    posix::FileServerOptions options;
    options.dir = dir;
    options.workers = 2 + kStripes;
    options.quiet = true;
    options.endpoint.timeout_ms = 30'000;
    posix::FileServer server(options);
    ASSERT_TRUE(server.start());
    const std::uint16_t catalog = server.options().catalog_port;

    // Each request names UDP ports this client has bound, as fetch_file
    // does.
    std::vector<net::Fd> data;
    for (int i = 0; i < 1 + kStripes; ++i) data.push_back(net::bind_udp(0));
    auto data_port = [&](int i) {
      return net::local_port(data[static_cast<std::size_t>(i)].get());
    };
    const std::uint16_t plain =
        catalog_request(catalog, "dataset0.bin " + std::to_string(data_port(0)) + "\n");
    ASSERT_NE(plain, 0);
    const net::Fd control(connect_tcp(plain));
    EXPECT_TRUE(control.valid()) << "catalog reply's control port " << plain << " refused";

    const std::uint16_t negotiation = catalog_request(
        catalog, "dataset0.bin " + std::to_string(data_port(1)) + " " +
                     std::to_string(kStripes) + "\n");
    ASSERT_NE(negotiation, 0);
    net::Fd conn(connect_tcp(negotiation));
    ASSERT_TRUE(conn.valid()) << "negotiation port " << negotiation << " refused";
    ASSERT_TRUE(net::set_nonblocking(conn.get()));
    stripe::StripeRequest request;
    request.object_bytes = kBytes;
    request.packet_bytes = options.endpoint.packet_bytes;
    for (int i = 0; i < kStripes; ++i) {
      request.data_ports.push_back(data_port(1 + i));
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const auto wire = stripe::encode_stripe_request(request);
    ASSERT_TRUE(net::send_all(conn.get(), wire.data(), wire.size(), deadline));
    std::vector<std::uint8_t> frame(stripe::stripe_response_size(kStripes));
    ASSERT_TRUE(net::read_exact(conn.get(), frame.data(), frame.size(), deadline));
    const auto response = stripe::decode_stripe_response(frame.data(), frame.size());
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->accepted(), kStripes);
    std::vector<net::Fd> stripes;
    for (const auto port : response->control_ports) {
      stripes.emplace_back(connect_tcp(port));
      EXPECT_TRUE(stripes.back().valid()) << "stripe control port " << port << " refused";
    }
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(FileServer, FourStripeFetchNamesFourKernelChosenDataPorts) {
  // data_port 0: each stripe binds its own kernel-chosen port before a
  // request names it, so the ports need not be contiguous. A stub
  // server reads them off the wire (the catalog line, then the FOBSSTRP
  // request) and serves them with real sender sessions.
  constexpr std::int64_t kBytes = 512 * 1024 + 9;
  constexpr int kStripes = 4;
  auto object = core::TransferObject::pattern(kBytes, 0x4B0);
  const std::string out = ::testing::TempDir() + "fobs_fileserver_kernel_ports.bin";
  std::filesystem::remove(out);
  net::Fd catalog = net::listen_tcp(0, 1);
  net::Fd negotiation = net::listen_tcp(0, 1);
  ASSERT_TRUE(catalog.valid());
  ASSERT_TRUE(negotiation.valid());

  posix::TransferEngine engine(posix::EngineOptions{.workers = kStripes});
  std::string line;
  std::vector<std::uint16_t> named;
  std::thread stub([&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    net::Fd conn = net::accept_until(catalog.get(), deadline);
    if (!conn.valid()) return;
    char ch = 0;
    while (net::read_exact(conn.get(), &ch, 1, deadline) && ch != '\n') line.push_back(ch);
    const std::string reply = std::to_string(object.size()) + " " +
                              std::to_string(net::local_port(negotiation.get())) + "\n";
    net::send_all(conn.get(), reply.data(), reply.size(), deadline);
    conn = net::accept_until(negotiation.get(), deadline);
    if (!conn.valid()) return;
    std::vector<std::uint8_t> frame(stripe::stripe_request_size(kStripes));
    if (!net::read_exact(conn.get(), frame.data(), frame.size(), deadline)) return;
    const auto request = stripe::decode_stripe_request(frame.data(), frame.size());
    if (!request) return;
    named = request->data_ports;
    posix::StripeLaunch launch{.layout = request->layout, .peer_ports = request->data_ports};
    stripe::StripeResponse response{request->layout, {}};
    for (int i = 0; i < kStripes; ++i) {
      launch.sockets.push_back(net::listen_tcp(0, 1));
      response.control_ports.push_back(net::local_port(launch.sockets.back().get()));
    }
    const auto wire = stripe::encode_stripe_response(response);
    net::send_all(conn.get(), wire.data(), wire.size(), deadline);
    posix::StripedSenderOptions send;
    send.endpoint.timeout_ms = 10'000;
    engine.launch_striped_send(send, object.view(), std::move(launch), {});
  });

  posix::FetchOptions fetch;
  fetch.catalog_port = net::local_port(catalog.get());
  fetch.name = "dataset.bin";
  fetch.out_path = out;
  fetch.stripes = kStripes;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 10'000;
  const auto result = posix::fetch_file(fetch);
  stub.join();

  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.stripes, kStripes);
  EXPECT_EQ(result.checksum, object.checksum());
  ASSERT_EQ(named.size(), static_cast<std::size_t>(kStripes));
  EXPECT_EQ(line, "dataset.bin " + std::to_string(named.front()) + " 4");
  int lo = 0;
  int hi = 0;
  std::ifstream("/proc/sys/net/ipv4/ip_local_port_range") >> lo >> hi;
  for (const auto port : named) {
    EXPECT_EQ(std::count(named.begin(), named.end(), port), 1) << port;
    if (hi > 0) {
      EXPECT_GE(port, lo);
      EXPECT_LE(port, hi);
    }
  }
  std::filesystem::remove(out);
}

TEST(FileServer, ExhaustedControlRangeRefusesUntilAPortFrees) {
  // The range is the kernel's to enforce: with its only port taken, a
  // request is refused; once the port is free, the reply names it.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_range";
  const auto checksums = stage_files(dir, {32 * 1024});
  posix::FileServerOptions options;
  options.dir = dir;
  options.control_port_base = test::port(32);
  options.control_port_count = 1;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions fetch;
  fetch.catalog_port = server.options().catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched0.bin";
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  {
    const net::Fd taken = net::listen_tcp(options.control_port_base, 1);
    ASSERT_TRUE(taken.valid());
    EXPECT_EQ(posix::fetch_file(fetch).status, posix::TransferStatus::kPeerLost);
    EXPECT_EQ(server.requests_refused(), 1u);
  }
  const auto result = posix::fetch_file(fetch);
  EXPECT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.checksum, checksums[0]);
  wait_transfers_settled(server);
  // The session's port is the range's one port, free again once the
  // session ended.
  const net::Fd data = net::bind_udp(0);
  const std::string line = "dataset0.bin " + std::to_string(net::local_port(data.get())) + "\n";
  EXPECT_EQ(catalog_request(server.options().catalog_port, line), options.control_port_base);
  server.stop();
  std::filesystem::remove_all(dir);
}

TEST(FileServer, CatalogLineIsAssembledAcrossWritesAndCapped) {
  // The server reads the request in chunks: a line in two pieces is
  // still one request, and a line past the 511-byte cap is refused.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_line";
  stage_files(dir, {16 * 1024});
  posix::FileServerOptions options;
  options.dir = dir;
  options.quiet = true;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());
  const std::uint16_t catalog = server.options().catalog_port;

  const net::Fd data = net::bind_udp(0);
  const std::string line = "dataset0.bin " + std::to_string(net::local_port(data.get())) + "\n";
  EXPECT_NE(catalog_request(catalog, line, /*split_at=*/7), 0);
  // The server counts the session before it replies.
  EXPECT_EQ(server.transfers_started(), 1u);

  EXPECT_EQ(catalog_request(catalog, std::string(600, 'a') + "\n"), 0);
  EXPECT_EQ(server.catalog_timeouts(), 1u);
  EXPECT_EQ(server.transfers_started(), 1u);
  server.stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fobs
