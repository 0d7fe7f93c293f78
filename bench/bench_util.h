// Shared helpers for the table/figure reproduction binaries.
//
// Each binary prints (a) the paper's reported numbers and (b) our
// measured values, as aligned text tables. Set FOBS_BENCH_SEEDS=<n> to
// change how many simulated runs are averaged per row (default 3),
// FOBS_BENCH_CSV=1 to emit CSV after the table, and FOBS_TRACE_DIR=<dir>
// to dump JSONL telemetry traces of one representative run per path
// (see docs/TELEMETRY.md).
#pragma once

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/table.h"
#include "exp/runner.h"
#include "telemetry/trace.h"

namespace fobs::benchutil {

inline int seed_count_from_env(int fallback = 3) {
  const char* env = std::getenv("FOBS_BENCH_SEEDS");
  if (env == nullptr) return fallback;
  const int n = std::atoi(env);
  return n > 0 ? n : fallback;
}

inline bool csv_from_env() {
  const char* env = std::getenv("FOBS_BENCH_CSV");
  return env != nullptr && env[0] == '1';
}

/// The host a bench JSON was measured on, as a JSON object: cores, CPU
/// model and kernel, so numbers from different hosts are never compared
/// by mistake.
inline std::string host_fingerprint_json() {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      const std::string text(line);
      if (text.rfind("model name", 0) != 0) continue;
      const auto colon = text.find(':');
      if (colon != std::string::npos) cpu = text.substr(text.find_first_not_of(' ', colon + 1));
      while (!cpu.empty() && (cpu.back() == '\n' || cpu.back() == ' ')) cpu.pop_back();
      break;
    }
    std::fclose(f);
  }
  for (char& c : cpu) {
    if (c == '"' || c == '\\') c = ' ';
  }
  utsname uts{};
  ::uname(&uts);
  return "{\"cores\": " + std::to_string(std::thread::hardware_concurrency()) + ", \"cpu\": \"" +
         cpu + "\", \"kernel\": \"" + uts.sysname + " " + uts.release + " " + uts.machine +
         "\"}";
}

/// Directory for JSONL telemetry dumps, or "" when tracing is off.
inline std::string trace_dir_from_env() {
  const char* env = std::getenv("FOBS_TRACE_DIR");
  return env == nullptr ? std::string() : std::string(env);
}

/// Re-runs one fixed-seed FOBS transfer with tracers attached and
/// writes `<dir>/<stem>.sender.jsonl` and `<dir>/<stem>.receiver.jsonl`.
/// The figure binaries call this once per path when FOBS_TRACE_DIR is
/// set, so a reproduction run leaves an inspectable event log behind.
inline void dump_fobs_trace(const std::string& dir, const std::string& stem,
                            const fobs::exp::TestbedSpec& spec,
                            fobs::exp::FobsRunParams params, std::uint64_t seed = 1) {
  fobs::telemetry::EventTracer sender_trace;
  fobs::telemetry::EventTracer receiver_trace;
  params.sender_tracer = &sender_trace;
  params.receiver_tracer = &receiver_trace;
  (void)fobs::exp::run_fobs(spec, params, seed);
  const bool ok = sender_trace.write_jsonl_file(dir + "/" + stem + ".sender.jsonl") &&
                  receiver_trace.write_jsonl_file(dir + "/" + stem + ".receiver.jsonl");
  std::printf("%s telemetry traces %s/%s.{sender,receiver}.jsonl\n",
              ok ? "wrote" : "FAILED writing", dir.c_str(), stem.c_str());
}

inline void emit(const fobs::util::TextTable& table, const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
  table.print(std::cout);
  if (csv_from_env()) {
    std::cout << "\n-- CSV --\n";
    table.print_csv(std::cout);
  }
  std::cout.flush();
}

}  // namespace fobs::benchutil
