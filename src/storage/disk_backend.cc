#include "storage/disk_backend.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace dcape {

namespace fs = std::filesystem;

StatusOr<std::string> DiskBackend::ReadRange(const std::string& name,
                                             int64_t offset, int64_t len) {
  DCAPE_CHECK_GE(offset, 0);
  DCAPE_CHECK_GE(len, 0);
  DCAPE_ASSIGN_OR_RETURN(std::string whole, Read(name));
  if (offset + len > static_cast<int64_t>(whole.size())) {
    return Status::OutOfRange("ranged read past end of spill object '" + name +
                              "'");
  }
  return whole.substr(static_cast<size_t>(offset), static_cast<size_t>(len));
}

Status MemoryDiskBackend::Write(const std::string& name,
                                std::string_view data) {
  objects_[name] = std::string(data);
  return Status::OK();
}

StatusOr<std::string> MemoryDiskBackend::Read(const std::string& name) {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return Status::NotFound("no spill object named '" + name + "'");
  }
  return it->second;
}

Status MemoryDiskBackend::Remove(const std::string& name) {
  if (objects_.erase(name) == 0) {
    return Status::NotFound("no spill object named '" + name + "'");
  }
  return Status::OK();
}

StatusOr<std::string> MemoryDiskBackend::ReadRange(const std::string& name,
                                                   int64_t offset,
                                                   int64_t len) {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return Status::NotFound("no spill object named '" + name + "'");
  }
  if (offset + len > static_cast<int64_t>(it->second.size())) {
    return Status::OutOfRange("ranged read past end of spill object '" + name +
                              "'");
  }
  return it->second.substr(static_cast<size_t>(offset),
                           static_cast<size_t>(len));
}

std::vector<std::string> MemoryDiskBackend::List() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, data] : objects_) names.push_back(name);
  return names;
}

FileDiskBackend::FileDiskBackend(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  DCAPE_CHECK(!ec);
}

std::string FileDiskBackend::PathFor(const std::string& name) const {
  return dir_ + "/" + name;
}

Status FileDiskBackend::Write(const std::string& name, std::string_view data) {
  // Write to a temp file, then rename over the final path: a crash
  // mid-write leaves either the old object or a stray .tmp (which List
  // ignores), never a truncated object that would later deserialize as
  // corrupt state.
  const std::string final_path = PathFor(name);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open spill file for write: " + name);
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp_path, ec);
      return Status::Internal("short write to spill file: " + name);
    }
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    return Status::Internal("cannot publish spill file: " + name);
  }
  return Status::OK();
}

StatusOr<std::string> FileDiskBackend::Read(const std::string& name) {
  std::ifstream in(PathFor(name), std::ios::binary);
  if (!in) {
    return Status::NotFound("no spill file named '" + name + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return std::move(contents).str();
}

StatusOr<std::string> FileDiskBackend::ReadRange(const std::string& name,
                                                 int64_t offset, int64_t len) {
  std::ifstream in(PathFor(name), std::ios::binary);
  if (!in) {
    return Status::NotFound("no spill file named '" + name + "'");
  }
  in.seekg(static_cast<std::streamoff>(offset));
  std::string out(static_cast<size_t>(len), '\0');
  in.read(out.data(), static_cast<std::streamsize>(len));
  if (in.gcount() != static_cast<std::streamsize>(len)) {
    return Status::OutOfRange("ranged read past end of spill object '" + name +
                              "'");
  }
  return out;
}

Status FileDiskBackend::Remove(const std::string& name) {
  std::error_code ec;
  if (!fs::remove(PathFor(name), ec) || ec) {
    return Status::NotFound("no spill file named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> FileDiskBackend::List() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file() &&
        entry.path().extension() != ".tmp") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

namespace {

/// A FileDiskBackend on a directory made for it alone, which it removes
/// with everything in it when destroyed.
class TempFileDiskBackend : public FileDiskBackend {
 public:
  using FileDiskBackend::FileDiskBackend;
  TempFileDiskBackend(const TempFileDiskBackend&) = delete;
  TempFileDiskBackend& operator=(const TempFileDiskBackend&) = delete;
  ~TempFileDiskBackend() override {
    std::error_code ec;
    fs::remove_all(dir(), ec);
  }
};

}  // namespace

std::unique_ptr<DiskBackend> MakeTempFileBackend(const std::string& prefix) {
  static int counter = 0;
  std::string dir = (fs::temp_directory_path() /
                     (prefix + "_" + std::to_string(counter++) + "_" +
                      std::to_string(::getpid())))
                        .string();
  return std::make_unique<TempFileDiskBackend>(dir);
}

}  // namespace dcape
