// Resume checkpoints: the receiver's bitmap persisted to a sidecar file.
//
// The bitmap the FOBS receiver already maintains is a complete restart
// marker (FT-LADS' object-logging insight applied to this protocol):
// persist it periodically and a crashed receiver can restart, reload
// it, and — via the resume handshake on the control channel — have the
// sender skip every packet the previous incarnation already stored.
//
// The file is written atomically (temp file + rename) so a crash
// mid-checkpoint leaves the previous checkpoint intact, and sealed with
// a CRC32 so a torn or foreign file is rejected instead of resuming
// from garbage.
//
// Every file describes the whole object: its geometry is the object's
// and its bitmap runs over global packet numbers, whatever stripe wrote
// it. A transfer's files share one base path: a 1-stripe session writes
// `<base>` itself, stripe i of a K > 1 plan writes `<base>.s<i>`, and a
// session resumes from the union of all of them (load_checkpoints), so
// a retry with any stripe count or layout reads every earlier attempt.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fobs::posix {

struct Checkpoint {
  std::int64_t object_bytes = 0;
  std::int64_t packet_bytes = 0;
  std::int64_t received_count = 0;
  std::vector<std::uint8_t> bitmap;  ///< packed, Bitmap::extract_range format

  [[nodiscard]] std::int64_t packet_count() const {
    return packet_bytes > 0 ? (object_bytes + packet_bytes - 1) / packet_bytes : 0;
  }
};

/// Serializes `checkpoint` to `path` atomically. False on I/O failure.
bool save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Loads and validates a checkpoint; nullopt when the file is missing,
/// torn (CRC mismatch), or structurally inconsistent.
std::optional<Checkpoint> load_checkpoint(const std::string& path);

/// The file stripe `index` of a `stripes`-stripe plan writes: `base`
/// itself for one stripe, `<base>.s<index>` otherwise.
[[nodiscard]] std::string checkpoint_file(const std::string& base, int stripes, int index);

/// ORs `base` and every `<base>.s<digits>` beside it whose geometry is
/// (object_bytes, packet_bytes) into one checkpoint of the whole
/// object; nullopt when no file matches. Files in any other geometry
/// (another object, or a stripe-local sidecar of an older release) are
/// skipped: they cost only resends.
std::optional<Checkpoint> load_checkpoints(const std::string& base, std::int64_t object_bytes,
                                           std::int64_t packet_bytes);

/// Removes `base` and every `<base>.s<digits>` sidecar beside it, found
/// by the same directory scan; other files are left alone.
void remove_striped_checkpoints(const std::string& base);

}  // namespace fobs::posix
