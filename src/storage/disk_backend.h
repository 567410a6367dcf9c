#ifndef DCAPE_STORAGE_DISK_BACKEND_H_
#define DCAPE_STORAGE_DISK_BACKEND_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dcape {

/// Abstract byte store underneath the spill store. Two implementations:
/// a real filesystem directory (used by examples/benches) and an
/// in-memory map (used by unit tests). Either way the spilled state is
/// genuinely serialized to bytes and read back.
class DiskBackend {
 public:
  virtual ~DiskBackend() = default;

  /// Writes (or overwrites) the named object.
  [[nodiscard]] virtual Status Write(const std::string& name,
                                     std::string_view data) = 0;
  /// Reads the named object in full.
  [[nodiscard]] virtual StatusOr<std::string> Read(
      const std::string& name) = 0;
  /// Removes the named object. NotFound if absent.
  [[nodiscard]] virtual Status Remove(const std::string& name) = 0;

  /// Reads `len` bytes of the named object starting at `offset`. The
  /// base implementation reads the whole object and slices; backends
  /// override it with a real ranged read so streaming cleanup never
  /// materializes full segments. OutOfRange if the object is shorter
  /// than `offset + len`.
  ///
  /// Thread-safety contract: ReadRange (and Read) must be safe to call
  /// concurrently with other reads on the same backend — the cleanup's
  /// worker lanes each read their own partitions' blocks, with no
  /// external serialization (every write has returned before cleanup
  /// starts).
  [[nodiscard]] virtual StatusOr<std::string> ReadRange(
      const std::string& name, int64_t offset, int64_t len);
};

/// In-memory backend for tests and fast benches.
class MemoryDiskBackend : public DiskBackend {
 public:
  Status Write(const std::string& name, std::string_view data) override;
  StatusOr<std::string> Read(const std::string& name) override;
  Status Remove(const std::string& name) override;
  StatusOr<std::string> ReadRange(const std::string& name, int64_t offset,
                                  int64_t len) override;

 private:
  std::map<std::string, std::string> objects_;
};

/// Filesystem-directory backend. Each object is one file under `dir`.
/// Writes are crash-consistent: data lands in a `.tmp` sibling first and
/// is renamed into place, so a partially written object is never visible
/// under its final name.
class FileDiskBackend : public DiskBackend {
 public:
  /// Creates `dir` (recursively) if needed; aborts on failure since a
  /// missing spill directory is an unrecoverable configuration error.
  explicit FileDiskBackend(std::string dir);

  Status Write(const std::string& name, std::string_view data) override;
  StatusOr<std::string> Read(const std::string& name) override;
  Status Remove(const std::string& name) override;
  StatusOr<std::string> ReadRange(const std::string& name, int64_t offset,
                                  int64_t len) override;

  const std::string& dir() const { return dir_; }

 private:
  std::string PathFor(const std::string& name) const;

  std::string dir_;
};

/// Creates a FileDiskBackend under a fresh unique temp directory, for
/// examples and benchmarks. The backend removes that directory, with
/// everything in it, when it is destroyed; a FileDiskBackend built on a
/// caller's own directory leaves it in place.
std::unique_ptr<DiskBackend> MakeTempFileBackend(const std::string& prefix);

}  // namespace dcape

#endif  // DCAPE_STORAGE_DISK_BACKEND_H_
