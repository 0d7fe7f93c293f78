#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void fill_random(std::span<std::uint8_t> out, std::uint64_t seed) {
  Rng rng(seed);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, 8);
  }
  const std::uint64_t tail = rng.next();
  std::memcpy(out.data() + i, &tail, out.size() - i);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

// Why each workload exists is recorded in perfbench/README.md and
// BENCHMARK.json. The object size is part of a workload's definition:
// per-packet cost grows with the packet count.
constexpr WorkloadSpec kWorkloads[] = {
    {"bulk_8k", std::int64_t{128} << 20, 8192, 0, false},
    {"paper_1k", std::int64_t{40} << 20, 1024, 0, false},
    {"striped_2", std::int64_t{128} << 20, 8192, 2, false},
    {"fetch_small", 0, 1024, 0, true},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string filesystem_of(const std::string& dir) {
  if (dir.empty()) return "none";
  struct statfs fs{};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

std::optional<PortBlock> PortBlock::choose(std::uint64_t salt, std::string* error) {
  int lo = 32768;
  int hi = 60999;
  {
    std::ifstream in("/proc/sys/net/ipv4/ip_local_port_range");
    int a = 0;
    int b = 0;
    if (in >> a >> b && a > 0 && b >= a && b <= 65535) {
      lo = a;
      hi = b;
    }
  }
  // Candidate blocks below the ephemeral range (skipping the crowded
  // low service ports) and above it.
  std::vector<int> starts;
  for (int p = 10000; p + kSize <= lo; p += kSize) starts.push_back(p);
  for (int p = hi + 1; p + kSize <= 65536; p += kSize) starts.push_back(p);
  if (starts.empty()) {
    *error = "no free port block outside the ephemeral range " + std::to_string(lo) + "-" +
             std::to_string(hi);
    return std::nullopt;
  }
  PortBlock block;
  block.first_ = static_cast<std::uint16_t>(starts[Rng(salt).below(starts.size())]);
  block.ephemeral_ = std::to_string(lo) + "-" + std::to_string(hi);
  return block;
}

int SpanLog::add(const char* name, int parent, int op, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  spans_.push_back({id, parent, op, name, ns(start), ns(end)});
  return id;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 bool applies) {
  entries_.push_back({name, applies && std::isfinite(value) ? value : 0.0, unit, applies});
}

void Report::print_lines(std::ostream& os, const char* prefix) const {
  for (const auto& e : entries_) {
    char value[64] = "n/a";
    if (e.applies) std::snprintf(value, sizeof value, "%.6g", e.value);
    os << prefix << ' ' << e.name << " = " << value << ' ' << e.unit << '\n';
  }
}

std::string Report::json() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", entries_[i].value);
    os << (i == 0 ? "" : ", ") << '"' << entries_[i].name << "\": {\"value\": " << value
       << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

std::string host_fingerprint(const std::string& data_dir) {
  utsname uts{};
  ::uname(&uts);
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
     << json_escape(cpu_model()) << "\", \"kernel\": \"" << json_escape(uts.sysname) << ' '
     << json_escape(uts.release) << ' ' << json_escape(uts.machine) << "\", \"compiler\": \""
     << json_escape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
     << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"release\": "
     << (release_build() ? "true" : "false") << ", \"fetch_dir_fs\": \""
     << filesystem_of(data_dir) << "\", \"network\": \"loopback\"}";
  return os.str();
}

}  // namespace perfbench
