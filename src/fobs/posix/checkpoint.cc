#include "fobs/posix/checkpoint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/bitmap.h"
#include "common/byte_order.h"
#include "common/crc32.h"

namespace fobs::posix {

namespace {

// "FOBSCKP" + format version 1.
constexpr std::uint64_t kCheckpointMagic = 0x464F4253434B5031ull;
constexpr std::size_t kHeaderSize = 8 + 8 + 8 + 8 + 8;  // magic + 3 counts + bitmap len

using util::get_u64;
using util::put_u64;

/// Calls `visit` with the path of `base` and of every `<base>.s<digits>`
/// in base's directory, in one scan; a missing directory visits nothing.
template <typename Visit>
void for_each_checkpoint_file(const std::string& base, Visit visit) {
  const std::filesystem::path path(base);
  const std::string name = path.filename().string();
  const std::string sidecar = name + ".s";
  std::error_code ec;
  const std::filesystem::path dir = path.has_parent_path() ? path.parent_path() : ".";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string found = entry.path().filename().string();
    const bool is_sidecar =
        found.size() > sidecar.size() && found.compare(0, sidecar.size(), sidecar) == 0 &&
        std::all_of(found.begin() + static_cast<std::ptrdiff_t>(sidecar.size()), found.end(),
                    [](unsigned char c) { return std::isdigit(c) != 0; });
    if (found == name || is_sidecar) visit(entry.path());
  }
}

}  // namespace

bool save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> blob(kHeaderSize + checkpoint.bitmap.size() + 4);
  put_u64(blob.data(), kCheckpointMagic);
  put_u64(blob.data() + 8, static_cast<std::uint64_t>(checkpoint.object_bytes));
  put_u64(blob.data() + 16, static_cast<std::uint64_t>(checkpoint.packet_bytes));
  put_u64(blob.data() + 24, static_cast<std::uint64_t>(checkpoint.received_count));
  put_u64(blob.data() + 32, static_cast<std::uint64_t>(checkpoint.bitmap.size()));
  if (!checkpoint.bitmap.empty()) {
    std::memcpy(blob.data() + kHeaderSize, checkpoint.bitmap.data(),
                checkpoint.bitmap.size());
  }
  const std::uint32_t crc =
      fobs::util::crc32(blob.data() + 8, kHeaderSize - 8 + checkpoint.bitmap.size());
  for (int i = 0; i < 4; ++i) {
    blob[kHeaderSize + checkpoint.bitmap.size() + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) return false;
  }
  // rename() is atomic within a filesystem: readers see either the old
  // checkpoint or the new one, never a torn file.
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> blob((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (blob.size() < kHeaderSize + 4) return std::nullopt;
  if (get_u64(blob.data()) != kCheckpointMagic) return std::nullopt;

  Checkpoint checkpoint;
  checkpoint.object_bytes = static_cast<std::int64_t>(get_u64(blob.data() + 8));
  checkpoint.packet_bytes = static_cast<std::int64_t>(get_u64(blob.data() + 16));
  checkpoint.received_count = static_cast<std::int64_t>(get_u64(blob.data() + 24));
  const std::uint64_t bitmap_len = get_u64(blob.data() + 32);
  if (checkpoint.object_bytes < 0 || checkpoint.packet_bytes <= 0 ||
      checkpoint.received_count < 0 ||
      checkpoint.object_bytes > (std::int64_t{1} << 50)) {  // overflow guard
    return std::nullopt;
  }
  if (blob.size() != kHeaderSize + bitmap_len + 4) return std::nullopt;
  if (bitmap_len !=
      static_cast<std::uint64_t>((checkpoint.packet_count() + 7) / 8)) {
    return std::nullopt;
  }

  const std::uint32_t expected =
      fobs::util::crc32(blob.data() + 8, kHeaderSize - 8 + bitmap_len);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored = (stored << 8) | blob[kHeaderSize + bitmap_len + static_cast<std::size_t>(i)];
  }
  if (stored != expected) return std::nullopt;

  checkpoint.bitmap.assign(blob.begin() + kHeaderSize,
                           blob.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + bitmap_len));
  return checkpoint;
}

std::string checkpoint_file(const std::string& base, int stripes, int index) {
  return stripes > 1 ? base + ".s" + std::to_string(index) : base;
}

std::optional<Checkpoint> load_checkpoints(const std::string& base, std::int64_t object_bytes,
                                           std::int64_t packet_bytes) {
  Checkpoint known;
  known.object_bytes = object_bytes;
  known.packet_bytes = packet_bytes;
  const auto packets = static_cast<std::size_t>(known.packet_count());
  fobs::util::Bitmap bits(packets);
  bool any = false;
  for_each_checkpoint_file(base, [&](const std::filesystem::path& path) {
    const auto file = load_checkpoint(path.string());
    if (!file || file->object_bytes != object_bytes || file->packet_bytes != packet_bytes) return;
    bits.merge_range(0, packets, file->bitmap.data(), file->bitmap.size());
    any = true;
  });
  if (!any) return std::nullopt;
  known.received_count = static_cast<std::int64_t>(bits.count());
  known.bitmap = bits.extract_range(0, packets);
  return known;
}

void remove_striped_checkpoints(const std::string& base) {
  for_each_checkpoint_file(base, [](const std::filesystem::path& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  });
}

}  // namespace fobs::posix
