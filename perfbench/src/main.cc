// The FOBS end-to-end benchmark program.
//
//   fobs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--smoke]
//
// Sets the workload up several times (reporting the median as setup_s),
// then runs closed-loop operations for --seconds, verifying each one.
// With --trace 0 the final JSON line carries the end-to-end metrics;
// with --trace 1 every other operation runs with EventTracers attached,
// the layers are replayed at the workload's packet size, spans are
// written to <out-dir>, and the JSON line carries the per-layer metrics.
// Every metric is also printed as a text line with its unit. The exit
// code is non-zero when any operation failed or did not verify.
// perfbench/README.md says why each workload and metric exists.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "telemetry/metrics.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

void usage() {
  std::cerr << "usage: fobs_perfbench --workload <";
  const auto names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) std::cerr << (i ? "|" : "") << names[i];
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--smoke]\n";
}

bool parse(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Process-wide counters of the metrics registry the drivers update;
/// they cover the file server's sessions too.
struct RegistrySnapshot {
  std::int64_t packets_sent = 0;
  std::int64_t duplicates = 0;
  std::int64_t corrupt_drops = 0;
  std::int64_t stale_acks = 0;
  std::int64_t reconnects = 0;

  static RegistrySnapshot take() {
    auto& reg = fobs::telemetry::MetricsRegistry::global();
    return {reg.counter("fobs.posix.sender.packets_sent").value(),
            reg.counter("fobs.posix.receiver.duplicates").value(),
            reg.counter("fobs.fault.corrupt_drops").value(),
            reg.counter("fobs.fault.stale_acks").value(),
            reg.counter("fobs.fault.reconnects").value()};
  }
  RegistrySnapshot operator-(const RegistrySnapshot& o) const {
    return {packets_sent - o.packets_sent, duplicates - o.duplicates,
            corrupt_drops - o.corrupt_drops, stale_acks - o.stale_acks,
            reconnects - o.reconnects};
  }
};

struct TimedOp {
  OpSample sample;
  double op_s = 0.0;  ///< the whole operation, clearing and verifying included
};

/// Everything the timed phase measured.
struct Phase {
  std::vector<double> setup_s;
  std::vector<TimedOp> plain;   ///< untraced operations: the end-to-end figures
  std::vector<TimedOp> traced;  ///< operations with EventTracers attached
  RegistrySnapshot registry;    ///< registry deltas over the timed phase
  std::optional<ServerCounters> server;
  std::optional<double> catalog_ms;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double goodput_mbps(const OpSample& s) {
  return ratio(static_cast<double>(s.bytes) * 8.0, s.wall_s * 1e6);
}

/// `value` of every operation that completed and verified.
template <typename F>
std::vector<double> collect(const std::vector<TimedOp>& ops, F&& value) {
  std::vector<double> out;
  for (const auto& op : ops) {
    if (op.sample.ok) out.push_back(value(op.sample));
  }
  return out;
}

std::int64_t sum_needed(const std::vector<TimedOp>& ops) {
  std::int64_t n = 0;
  for (const auto& op : ops) n += op.sample.packets_needed;
  return n;
}

/// Median wall time per packet of one side's driver loop, per flow (a
/// stripe carries packets_needed / stripes packets).
double driver_ns_per_pkt(const std::vector<TimedOp>& ops, const WorkloadSpec& spec,
                         double OpSample::*elapsed) {
  const int flows = spec.stripes > 0 ? spec.stripes : 1;
  return median(collect(ops, [&](const OpSample& s) {
    return ratio(s.*elapsed * 1e9 * flows, static_cast<double>(s.packets_needed));
  }));
}

/// The gated end-to-end metrics. The figures that time operations are
/// medians over the timed operations, so a few operations slowed by the
/// host do not move them.
Report end_to_end_report(const Phase& p) {
  std::vector<TimedOp> all = p.plain;
  all.insert(all.end(), p.traced.begin(), p.traced.end());
  std::int64_t sent = 0;
  bool sender_known = true;
  for (const auto& t : p.plain) {
    sent += t.sample.packets_sent;
    sender_known = sender_known && t.sample.packets_sent >= 0;
  }
  // The file server's sender reports only to the registry, which also
  // sees the traced operations of a traced run.
  const double amplification =
      sender_known ? ratio(static_cast<double>(sent), static_cast<double>(sum_needed(p.plain)))
                   : ratio(static_cast<double>(p.registry.packets_sent),
                           static_cast<double>(sum_needed(all)));
  const auto latencies_ms = collect(p.plain, [](const OpSample& s) { return s.wall_s * 1e3; });
  const auto cpu_ms_per_mib = collect(p.plain, [](const OpSample& s) {
    return ratio(s.cpu_s * 1e3, static_cast<double>(s.bytes) / (1 << 20));
  });
  Report r;
  r.add("fetch_ms_p50", quantile(latencies_ms, 0.5), "ms");
  r.add("cpu_ms_per_mib", median(cpu_ms_per_mib), "ms/MiB");
  r.add("send_amplification", amplification, "ratio");
  r.add("setup_s", median(p.setup_s), "s");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB");
  return r;
}

Report layer_report(const WorkloadSpec& spec, const Phase& p, const ReplayResult& rp) {
  std::vector<TimedOp> all = p.plain;
  all.insert(all.end(), p.traced.begin(), p.traced.end());
  const bool striped = spec.stripes > 0;
  const bool engine = !spec.fetch;  // fetch_file hides its sessions' results
  fobs::net::IoStats send_io;
  fobs::net::IoStats recv_io;
  for (const auto& t : all) {
    send_io.datagrams_sent += t.sample.send_io.datagrams_sent;
    send_io.send_syscalls += t.sample.send_io.send_syscalls;
    send_io.send_would_block += t.sample.send_io.send_would_block;
    recv_io.datagrams_received += t.sample.recv_io.datagrams_received;
    recv_io.recv_syscalls += t.sample.recv_io.recv_syscalls;
  }
  std::int64_t acks = 0;
  std::int64_t drops = 0;
  std::int64_t stalls = 0;
  for (const auto& t : p.traced) {
    acks += t.sample.acks_sent;
    drops += t.sample.drop_while_acking;
    stalls += t.sample.stalls;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double all_needed = d(sum_needed(all));
  const double plain_goodput = median(collect(p.plain, goodput_mbps));
  const double traced_goodput = median(collect(p.traced, goodput_mbps));
  const auto wall = [](const OpSample& s) { return s.wall_s; };
  const auto half = static_cast<std::ptrdiff_t>(p.plain.size() / 2);
  const std::vector<TimedOp> first(p.plain.begin(), p.plain.begin() + half);
  const std::vector<TimedOp> second(p.plain.begin() + half, p.plain.end());

  Report r;
  r.add("crc32.ns_per_kib", rp.crc_ns_per_kib, "ns/KiB");
  r.add("placement.ns_per_pkt", rp.placement_ns_per_pkt, "ns");
  r.add("codec.data_header_ns", rp.data_header_encode_ns + rp.data_header_decode_ns, "ns");
  r.add("codec.ack_ns", rp.ack_codec_ns, "ns");
  r.add("sender_core.select_ns", rp.select_ns, "ns");
  r.add("receiver_core.place_ns", rp.place_ns, "ns");
  r.add("ack.build_apply_ns", rp.ack_build_apply_ns, "ns");
  r.add("channel.send_ns_per_dgram", rp.channel_send_ns, "ns");
  r.add("channel.recv_ns_per_dgram", rp.channel_recv_ns, "ns");
  r.add("replay.sender_ns_per_pkt", rp.sender_ns_per_pkt(spec.packet_bytes), "ns");
  r.add("replay.receiver_ns_per_pkt", rp.receiver_ns_per_pkt(), "ns");
  r.add("io.dgrams_per_send_call", ratio(d(send_io.datagrams_sent), d(send_io.send_syscalls)),
        "count", engine);
  r.add("io.dgrams_per_recv_call",
        ratio(d(recv_io.datagrams_received), d(recv_io.recv_syscalls)), "count", engine);
  r.add("io.send_would_block_per_kpkt",
        ratio(1e3 * d(send_io.send_would_block), d(send_io.datagrams_sent)), "count", engine);
  r.add("driver.ns_per_pkt", driver_ns_per_pkt(all, spec, &OpSample::receiver_elapsed_s), "ns");
  r.add("driver.dup_per_kpkt", ratio(1e3 * d(p.registry.duplicates), all_needed), "count");
  r.add("driver.corrupt_drops", d(p.registry.corrupt_drops), "count");
  r.add("driver.stale_acks", d(p.registry.stale_acks), "count");
  r.add("driver.reconnects", d(p.registry.reconnects), "count");
  r.add("engine.overhead_ms", median(collect(all, [](const OpSample& s) {
          return (s.wall_s - std::max(s.sender_elapsed_s, s.receiver_elapsed_s)) * 1e3;
        })),
        "ms", engine);
  r.add("stripe.negotiate_ms",
        median(collect(all, [](const OpSample& s) { return s.negotiate_s * 1e3; })), "ms",
        striped);
  r.add("stripe.skew", median(collect(all, [](const OpSample& s) { return s.skew; })), "ratio",
        striped);
  r.add("fileserver.catalog_ms", p.catalog_ms.value_or(0.0), "ms", spec.fetch);
  r.add("fileserver.overhead_ms", median(collect(all, [](const OpSample& s) {
          return (s.wall_s - s.receiver_elapsed_s) * 1e3;
        })),
        "ms", spec.fetch);
  r.add("fileserver.drift", ratio(median(collect(second, wall)), median(collect(first, wall))),
        "ratio", spec.fetch);
  r.add("fileserver.transfers_failed", p.server ? d(p.server->transfers_failed) : 0.0, "count",
        spec.fetch);
  r.add("fileserver.catalog_timeouts", p.server ? d(p.server->catalog_timeouts) : 0.0, "count",
        spec.fetch);
  r.add("trace.acks_per_kpkt", ratio(1e3 * d(acks), d(sum_needed(p.traced))), "count");
  r.add("trace.drop_while_acking", d(drops), "count");
  r.add("trace.stalls", d(stalls), "count");
  r.add("trace.overhead_pct", 100.0 * ratio(plain_goodput - traced_goodput, plain_goodput), "%");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    usage();
    return 2;
  }
  std::string error;
  const auto ports = PortBlock::choose(
      args.seed ^ (static_cast<std::uint64_t>(::getpid()) << 20) ^
          static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()),
      &error);
  if (!ports) {
    std::cerr << "perfbench: " << error << '\n';
    return 1;
  }
  std::filesystem::create_directories(args.out_dir);
  RunOptions run{args.seed, args.smoke, args.out_dir};

  std::cout << "perfbench workload=" << spec->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << (args.smoke ? " smoke=1" : "") << " ports=" << ports->first() << "-"
            << ports->first() + PortBlock::kSize - 1
            << " (ephemeral " << ports->ephemeral_range() << ")\n";
  if (!release_build()) {
    std::cout << "WARNING: non-Release build (" << PERFBENCH_BUILD_TYPE
              << "); figures are not comparable\n";
  }

  SpanLog spans(args.trace);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int op = 0;
  const auto run_one = [&](Workload& w, bool traced) {
    const auto start = Clock::now();
    TimedOp t{w.run_op(op, traced, spans), 0.0};
    t.op_s = seconds_between(start, Clock::now());
    ++attempted;
    if (!t.sample.ok) {
      ++failed;
      std::cout << "FAILED op " << op << ": " << t.sample.error << '\n';
    }
    ++op;
    return t;
  };

  // Set-up: input generation, engine or server start, warm-up operations.
  // Repeated so setup_s is a median: at least three times, and while the
  // set-ups so far took under two seconds, so cheap set-ups get more
  // samples. The last set-up is the one timed.
  const int min_setups = args.trace || args.smoke ? 1 : 3;
  const int max_setups = args.trace || args.smoke ? 1 : 40;
  const int warmups = args.smoke ? 1 : 2;
  Phase phase;
  std::unique_ptr<Workload> workload;
  double setup_total_s = 0.0;
  while (static_cast<int>(phase.setup_s.size()) < min_setups ||
         (setup_total_s < 2.0 && static_cast<int>(phase.setup_s.size()) < max_setups)) {
    workload.reset();
    const auto start = Clock::now();
    workload = make_workload(*spec, run, *ports, &error);
    if (!workload) {
      std::cerr << "perfbench: set-up failed: " << error << '\n';
      return 1;
    }
    for (int w = 0; w < warmups; ++w) run_one(*workload, false);
    const auto end = Clock::now();
    phase.setup_s.push_back(seconds_between(start, end));
    setup_total_s += phase.setup_s.back();
    spans.add("setup", -1, -1, start, end);
  }
  std::cout << "host " << host_fingerprint(workload->data_dir()) << '\n';

  // Timed phase. In a traced run every other operation is traced, so
  // trace.overhead_pct compares neighbours under the same conditions.
  constexpr std::size_t kMinOps = 3;
  const auto registry_before = RegistrySnapshot::take();
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(args.seconds));
  while (Clock::now() < deadline || phase.plain.size() < kMinOps ||
         (args.trace && phase.traced.size() < kMinOps)) {
    const bool trace_this = args.trace && op % 2 == 1;
    (trace_this ? phase.traced : phase.plain).push_back(run_one(*workload, trace_this));
  }
  phase.server = workload->server_counters();
  phase.registry = RegistrySnapshot::take() - registry_before;
  if (args.trace && spec->fetch) {
    ++attempted;
    phase.catalog_ms = workload->catalog_ms(50);
    if (!phase.catalog_ms) {
      ++failed;
      std::cout << "FAILED catalog probe: no refusal for an unknown name\n";
    }
  }
  workload.reset();  // frees the objects before the replays allocate theirs

  // Printed but not gated: goodput and the operation rate follow the
  // same operation times as fetch_ms_p50 but spread more across runs on
  // a busy host (goodput over fetch_small's size mix, the rate through
  // the verify step's disk reads), and the tail moves far more than the
  // median.
  const auto latencies_ms =
      collect(phase.plain, [](const OpSample& s) { return s.wall_s * 1e3; });
  std::vector<double> op_s;
  for (const auto& t : phase.plain) {
    if (t.sample.ok) op_s.push_back(t.op_s);
  }
  std::cout << "ops timed=" << phase.plain.size() << " traced=" << phase.traced.size()
            << " attempted=" << attempted << " failed=" << failed << '\n';
  char line[400];
  std::snprintf(line, sizeof line,
                "fail_rate = %.6g ratio\n"
                "goodput_mbps = %.6g Mb/s (median, not gated)\n"
                "fetch_per_s = %.6g 1/s (at the median operation time, not gated)\n"
                "fetch_ms_p90 = %.6g ms (%zu samples, not gated)\n"
                "fetch_ms_p99 = %.6g ms (%zu samples, not gated)\n",
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                median(collect(phase.plain, goodput_mbps)), ratio(1.0, median(op_s)),
                quantile(latencies_ms, 0.9), latencies_ms.size(), quantile(latencies_ms, 0.99),
                latencies_ms.size());
  std::cout << line;
  const Report e2e = end_to_end_report(phase);
  e2e.print_lines(std::cout, "end_to_end");

  Report layers;
  if (args.trace) {
    // The fetch workload replays at its median file's packet count.
    std::vector<double> sizes;
    for (const auto& t : phase.plain) sizes.push_back(static_cast<double>(t.sample.bytes));
    const std::int64_t replay_bytes = std::max<std::int64_t>(
        spec->fetch ? static_cast<std::int64_t>(median(sizes)) : object_bytes(*spec, args.smoke),
        spec->packet_bytes);
    ReplayResult rp;
    try {
      rp = replay_layers(replay_bytes, spec->packet_bytes, args.seed,
                         ports->at(PortBlock::kSize - 1));
    } catch (const std::exception& e) {
      ++attempted;
      ++failed;
      std::cout << "FAILED layer replay: " << e.what() << '\n';
    }
    layers = layer_report(*spec, phase, rp);
    layers.print_lines(std::cout, "per_layer");

    std::vector<TimedOp> all = phase.plain;
    all.insert(all.end(), phase.traced.begin(), phase.traced.end());
    const double sender_ns = driver_ns_per_pkt(all, *spec, &OpSample::sender_elapsed_s);
    std::snprintf(line, sizeof line,
                  "budget ns/pkt per flow (%lld B packets): driver receiver %.0f vs replayed"
                  " %.0f | driver sender %s vs replayed %.0f\n",
                  static_cast<long long>(spec->packet_bytes),
                  driver_ns_per_pkt(all, *spec, &OpSample::receiver_elapsed_s),
                  rp.receiver_ns_per_pkt(),
                  spec->fetch ? "n/a" : std::to_string(std::lround(sender_ns)).c_str(),
                  rp.sender_ns_per_pkt(spec->packet_bytes));
    std::cout << line;
    const std::string span_path = args.out_dir + "/spans-" + spec->name + "-" +
                                  std::to_string(args.seed) + ".jsonl";
    if (spans.write_jsonl(span_path)) std::cout << "spans written to " << span_path << '\n';
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << (args.trace ? layers.json() : e2e.json()) << "}"
            << std::endl;
  return failed == 0 ? 0 : 1;
}
