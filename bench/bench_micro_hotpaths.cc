// Microbenchmarks (google-benchmark) for the hot paths the simulator
// and protocol cores hit millions of times per transfer, plus a
// loopback comparison of the batched (sendmmsg/recvmmsg scatter-gather)
// and fallback (sendto/recvfrom + assembly copy) datagram I/O paths.
// The comparison always runs first and writes its machine-readable
// result to BENCH_io.json (syscalls per packet and MB/s per mode).
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/bitmap.h"
#include "common/crc32.h"
#include "common/crc32_detail.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "fobs/ack.h"
#include "fobs/receiver_core.h"
#include "fobs/selection.h"
#include "fobs/sender_core.h"
#include "net/datagram_channel.h"
#include "net/seq_range_set.h"
#include "sim/simulation.h"

namespace {

using fobs::util::Bitmap;
using fobs::util::Rng;

void BM_BitmapSet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bitmap(n);
  Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    bitmap.set(i);
    i = (i + 7919) % n;  // prime stride touches everything
    if (bitmap.all_set()) bitmap.clear_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitmapSet)->Arg(40960)->Arg(1 << 20);

void BM_BitmapFirstClearCircular(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bitmap(n);
  // Leave every 64th bit clear — the worst realistic density late in a
  // transfer.
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 64 != 0) bitmap.set(i);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    auto hit = bitmap.first_clear_circular(cursor);
    benchmark::DoNotOptimize(hit);
    cursor = *hit + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitmapFirstClearCircular)->Arg(40960);

void BM_AckBuildAndApply(benchmark::State& state) {
  const std::int64_t packets = state.range(0);
  Bitmap received(static_cast<std::size_t>(packets));
  Rng rng(2);
  for (std::int64_t i = 0; i < packets; ++i) {
    if (!rng.bernoulli(0.02)) received.set(static_cast<std::size_t>(i));
  }
  fobs::core::AckBuilder builder(packets, 1024);
  Bitmap view(static_cast<std::size_t>(packets));
  for (auto _ : state) {
    auto ack = builder.build(received, 0, static_cast<std::int64_t>(received.count()));
    benchmark::DoNotOptimize(fobs::core::apply_ack(ack, view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AckBuildAndApply)->Arg(40960);

void BM_SenderSelectNext(benchmark::State& state) {
  fobs::core::TransferSpec spec{40 * 1024 * 1024, 1024};
  fobs::core::SenderConfig config;
  config.selection = static_cast<fobs::core::SelectionKind>(state.range(0));
  fobs::core::SenderCore sender(spec, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sender.select_next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SenderSelectNext)
    ->Arg(static_cast<int>(fobs::core::SelectionKind::kCircular))
    ->Arg(static_cast<int>(fobs::core::SelectionKind::kRandomUnacked));

void BM_ReceiverOnPacket(benchmark::State& state) {
  fobs::core::TransferSpec spec{40 * 1024 * 1024, 1024};
  fobs::core::ReceiverConfig config;
  config.ack_frequency = 64;
  fobs::core::ReceiverCore receiver(spec, config);
  std::int64_t seq = 0;
  const std::int64_t n = spec.packet_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.on_data_packet(seq));
    seq = (seq + 7919) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReceiverOnPacket);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  fobs::sim::Simulation sim;
  fobs::util::Rng rng(3);
  for (auto _ : state) {
    sim.schedule_in(fobs::util::Duration::nanoseconds(
                        static_cast<std::int64_t>(rng.uniform_int(0, 10000))),
                    [] {});
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_SeqRangeSetInsert(benchmark::State& state) {
  fobs::net::SeqRangeSet set;
  fobs::util::Rng rng(4);
  for (auto _ : state) {
    const auto b = rng.uniform_int(0, 1'000'000) * 1460;
    set.insert(b, b + 1460);
    if (set.range_count() > 4096) set.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeqRangeSetInsert);

// Wall-clock cost of simulating one whole transfer (how fast the
// simulator itself is — the sweep benches run hundreds of these).
void BM_SimulateWholeTransfer(benchmark::State& state) {
  const std::int64_t mb = state.range(0);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    fobs::exp::FobsRunParams params;
    params.object_bytes = mb * 1024 * 1024;
    const auto result =
        fobs::exp::run_fobs(fobs::exp::spec_for(fobs::exp::PathId::kShortHaul), params,
                            seed++);
    benchmark::DoNotOptimize(result.packets_sent);
  }
  state.SetItemsProcessed(state.iterations() * mb * 1024);  // packets simulated
}
BENCHMARK(BM_SimulateWholeTransfer)->Arg(4)->Arg(40)->Unit(benchmark::kMillisecond);

/// The per-packet payload checksum: arg 0 picks the path (0 = the
/// dispatched crc32(), 1 = the portable byte-at-a-time path), arg 1 the
/// payload size in bytes.
void BM_Crc32(benchmark::State& state) {
  const bool portable = state.range(0) == 1;
  const auto len = static_cast<std::size_t>(state.range(1));
  Rng rng(3);
  std::vector<std::uint8_t> payload(len);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    const std::uint32_t crc = portable
                                  ? fobs::util::detail::crc32_portable(payload.data(), len, 0)
                                  : fobs::util::crc32(payload.data(), len);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
  state.SetLabel(portable ? "portable" : "dispatched");
}
BENCHMARK(BM_Crc32)->Args({0, 1024})->Args({0, 8192})->Args({1, 1024})->Args({1, 8192});

// ---------------------------------------------------------------------------
// Datagram I/O layer: batched vs fallback over loopback
// ---------------------------------------------------------------------------

struct IoRunResult {
  double seconds = 0.0;
  double mb_per_s = 0.0;
  fobs::net::IoStats tx;
};

/// Pumps `count` datagrams of `datagram_bytes` (header + gathered
/// payload) over loopback in one mode, with a drain thread keeping the
/// receive socket empty, and reports sender-side syscall counts and
/// throughput.
IoRunResult pump_loopback(fobs::net::IoMode mode, int count, std::size_t datagram_bytes) {
  IoRunResult result;
  fobs::net::IoOptions io;
  io.mode = mode;
  io.recv_buffer_bytes = 8 << 20;
  std::string error;
  auto rx = fobs::net::DatagramChannel::open(io, datagram_bytes, 0, &error);
  auto tx = fobs::net::DatagramChannel::open(io, datagram_bytes, std::nullopt, &error);
  if (!rx.valid() || !tx.valid()) {
    std::fprintf(stderr, "io bench setup failed: %s\n", error.c_str());
    return result;
  }
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(rx.local_port());
  ::inet_pton(AF_INET, "127.0.0.1", &dest.sin_addr);

  std::atomic<bool> stop{false};
  std::thread drain([&] {
    std::vector<fobs::net::RecvView> views(static_cast<std::size_t>(io.recv_batch));
    while (!stop.load(std::memory_order_relaxed)) {
      if (rx.recv_batch(views, nullptr) <= 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });

  constexpr std::size_t kHeaderBytes = 20;
  std::vector<std::uint8_t> header(kHeaderBytes, 0x5A);
  std::vector<std::uint8_t> payload(datagram_bytes - kHeaderBytes, 0xA5);
  const fobs::net::DatagramView view{std::span<const std::uint8_t>(header),
                                     std::span<const std::uint8_t>(payload)};
  std::vector<fobs::net::DatagramView> batch(static_cast<std::size_t>(io.send_batch), view);

  const auto start = std::chrono::steady_clock::now();
  int sent = 0;
  while (sent < count) {
    const int want = std::min(count - sent, io.send_batch);
    if (!tx.send_batch(std::span(batch.data(), static_cast<std::size_t>(want)), dest,
                       &error)) {
      std::fprintf(stderr, "io bench send failed: %s\n", error.c_str());
      break;
    }
    sent += want;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  stop.store(true);
  drain.join();
  result.tx = tx.stats();
  if (result.seconds > 0) {
    result.mb_per_s = static_cast<double>(result.tx.bytes_sent) / result.seconds / 1e6;
  }
  return result;
}

void append_io_json(std::FILE* f, const char* key, const IoRunResult& r) {
  const double per_packet =
      r.tx.datagrams_sent > 0
          ? static_cast<double>(r.tx.send_syscalls) / static_cast<double>(r.tx.datagrams_sent)
          : 0.0;
  std::fprintf(f,
               "  \"%s\": {\"mb_per_s\": %.1f, \"send_syscalls\": %llu, "
               "\"datagrams\": %llu, \"syscalls_per_packet\": %.4f, "
               "\"copy_bytes_avoided\": %lld}",
               key, r.mb_per_s, static_cast<unsigned long long>(r.tx.send_syscalls),
               static_cast<unsigned long long>(r.tx.datagrams_sent), per_packet,
               static_cast<long long>(r.tx.copy_bytes_avoided));
}

/// Runs the batched-vs-fallback comparison and writes BENCH_io.json.
void write_io_comparison(const char* path) {
  constexpr int kDatagrams = 20'000;
  constexpr std::size_t kDatagramBytes = 8 * 1024;
  const auto fallback = pump_loopback(fobs::net::IoMode::kFallback, kDatagrams, kDatagramBytes);
#if defined(__linux__)
  const auto batched = pump_loopback(fobs::net::IoMode::kBatched, kDatagrams, kDatagramBytes);
#else
  const auto batched = fallback;
#endif
  const double reduction =
      batched.tx.send_syscalls > 0 && fallback.tx.datagrams_sent > 0 &&
              batched.tx.datagrams_sent > 0
          ? (static_cast<double>(fallback.tx.send_syscalls) /
             static_cast<double>(fallback.tx.datagrams_sent)) /
                (static_cast<double>(batched.tx.send_syscalls) /
                 static_cast<double>(batched.tx.datagrams_sent))
          : 0.0;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"datagram_bytes\": %zu,\n  \"datagrams\": %d,\n", kDatagramBytes,
               kDatagrams);
  append_io_json(f, "batched", batched);
  std::fprintf(f, ",\n");
  append_io_json(f, "fallback", fallback);
  std::fprintf(f, ",\n  \"syscall_reduction\": %.1f\n}\n", reduction);
  std::fclose(f);
  std::printf("BENCH_io: batched %.0f MB/s (%.4f syscalls/pkt), fallback %.0f MB/s "
              "(%.4f syscalls/pkt), %.1fx fewer syscalls -> %s\n",
              batched.mb_per_s,
              batched.tx.datagrams_sent > 0
                  ? static_cast<double>(batched.tx.send_syscalls) /
                        static_cast<double>(batched.tx.datagrams_sent)
                  : 0.0,
              fallback.mb_per_s,
              fallback.tx.datagrams_sent > 0
                  ? static_cast<double>(fallback.tx.send_syscalls) /
                        static_cast<double>(fallback.tx.datagrams_sent)
                  : 0.0,
              reduction, path);
}

/// The same comparison as a google-benchmark case: arg 0 = batched,
/// 1 = fallback; items processed = datagrams pushed.
void BM_DatagramChannelSend(benchmark::State& state) {
  const auto mode =
      state.range(0) == 0 ? fobs::net::IoMode::kBatched : fobs::net::IoMode::kFallback;
#if !defined(__linux__)
  if (mode == fobs::net::IoMode::kBatched) {
    state.SkipWithError("sendmmsg unavailable on this platform");
    return;
  }
#endif
  constexpr int kPerIteration = 2'000;
  std::int64_t datagrams = 0;
  for (auto _ : state) {
    const auto run = pump_loopback(mode, kPerIteration, 8 * 1024);
    datagrams += static_cast<std::int64_t>(run.tx.datagrams_sent);
    benchmark::DoNotOptimize(run.mb_per_s);
  }
  state.SetItemsProcessed(datagrams);
}
BENCHMARK(BM_DatagramChannelSend)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  write_io_comparison("BENCH_io.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
