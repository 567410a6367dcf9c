#include "storage/disk_backend.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace dcape {
namespace {

template <typename T>
std::unique_ptr<DiskBackend> MakeBackend();

template <>
std::unique_ptr<DiskBackend> MakeBackend<MemoryDiskBackend>() {
  return std::make_unique<MemoryDiskBackend>();
}

template <>
std::unique_ptr<DiskBackend> MakeBackend<FileDiskBackend>() {
  return MakeTempFileBackend("dcape_disk_test");
}

template <typename T>
class DiskBackendTest : public ::testing::Test {};

using BackendTypes = ::testing::Types<MemoryDiskBackend, FileDiskBackend>;
TYPED_TEST_SUITE(DiskBackendTest, BackendTypes);

TYPED_TEST(DiskBackendTest, WriteReadRoundTrip) {
  auto backend = MakeBackend<TypeParam>();
  ASSERT_TRUE(backend->Write("a.spill", "hello world").ok());
  StatusOr<std::string> read = backend->Read("a.spill");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello world");
}

TYPED_TEST(DiskBackendTest, BinaryDataSurvives) {
  auto backend = MakeBackend<TypeParam>();
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  ASSERT_TRUE(backend->Write("bin", data).ok());
  EXPECT_EQ(backend->Read("bin").value(), data);
}

TYPED_TEST(DiskBackendTest, ReadMissingIsNotFound) {
  auto backend = MakeBackend<TypeParam>();
  EXPECT_EQ(backend->Read("nope").status().code(), StatusCode::kNotFound);
}

TYPED_TEST(DiskBackendTest, OverwriteReplacesContent) {
  auto backend = MakeBackend<TypeParam>();
  ASSERT_TRUE(backend->Write("x", "one").ok());
  ASSERT_TRUE(backend->Write("x", "two").ok());
  EXPECT_EQ(backend->Read("x").value(), "two");
}

TYPED_TEST(DiskBackendTest, RemoveDeletes) {
  auto backend = MakeBackend<TypeParam>();
  ASSERT_TRUE(backend->Write("gone", "data").ok());
  ASSERT_TRUE(backend->Remove("gone").ok());
  EXPECT_EQ(backend->Read("gone").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(backend->Remove("gone").code(), StatusCode::kNotFound);
}

TYPED_TEST(DiskBackendTest, ListReturnsSortedNames) {
  auto backend = MakeBackend<TypeParam>();
  ASSERT_TRUE(backend->Write("b", "2").ok());
  ASSERT_TRUE(backend->Write("a", "1").ok());
  ASSERT_TRUE(backend->Write("c", "3").ok());
  std::vector<std::string> names = backend->List();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
}

TEST(FileDiskBackendTest, WritesLeaveNoTempFiles) {
  // Writes go through a temp file + rename; after each Write the
  // directory must contain only published files.
  std::string dir =
      (std::filesystem::temp_directory_path() / "dcape_tmpfree").string();
  std::filesystem::remove_all(dir);
  {
    FileDiskBackend backend(dir);
    ASSERT_TRUE(backend.Write("a.spill", "first").ok());
    ASSERT_TRUE(backend.Write("a.spill", std::string(4096, 'x')).ok());
    ASSERT_TRUE(backend.Write("b.spill", "second").ok());
    int tmp_files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".tmp") ++tmp_files;
    }
    EXPECT_EQ(tmp_files, 0);
    std::vector<std::string> names = backend.List();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.spill");
    EXPECT_EQ(names[1], "b.spill");
  }
  std::filesystem::remove_all(dir);
}

TEST(FileDiskBackendTest, ListSkipsInFlightTempFiles) {
  // A leftover .tmp (e.g. from a crash mid-write) is not a segment:
  // List must skip it and Read must not see it.
  std::string dir =
      (std::filesystem::temp_directory_path() / "dcape_stale_tmp").string();
  std::filesystem::remove_all(dir);
  {
    FileDiskBackend backend(dir);
    ASSERT_TRUE(backend.Write("real", "data").ok());
    std::ofstream(std::filesystem::path(dir) / "crashed.tmp") << "partial";
    std::vector<std::string> names = backend.List();
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "real");
  }
  std::filesystem::remove_all(dir);
}

TEST(FileDiskBackendTest, OverwriteIsAtomicallyPublished) {
  // An overwrite replaces the old content wholesale — the reader never
  // sees a mix or an empty file, because publication is a rename.
  auto backend = MakeTempFileBackend("dcape_atomic");
  ASSERT_TRUE(backend->Write("seg", std::string(1024, 'A')).ok());
  ASSERT_TRUE(backend->Write("seg", std::string(16, 'B')).ok());
  StatusOr<std::string> read = backend->Read("seg");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::string(16, 'B'));
}

TEST(FileDiskBackendTest, CreatesDirectory) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "dcape_nested" / "deep")
          .string();
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "dcape_nested");
  FileDiskBackend backend(dir);
  EXPECT_TRUE(std::filesystem::exists(dir));
  EXPECT_TRUE(backend.Write("f", "x").ok());
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "dcape_nested");
}

TEST(MakeTempFileBackendTest, DistinctDirectories) {
  auto a = MakeTempFileBackend("dcape_uniq");
  auto b = MakeTempFileBackend("dcape_uniq");
  ASSERT_TRUE(a->Write("same_name", "A").ok());
  ASSERT_TRUE(b->Write("same_name", "B").ok());
  EXPECT_EQ(a->Read("same_name").value(), "A");
  EXPECT_EQ(b->Read("same_name").value(), "B");
}

TEST(MakeTempFileBackendTest, RemovesItsDirectoryWhenDestroyed) {
  auto backend = MakeTempFileBackend("dcape_temp_cleanup");
  // MakeTempFileBackend returns a FileDiskBackend.
  const std::string dir =
      static_cast<const FileDiskBackend*>(backend.get())->dir();
  ASSERT_TRUE(backend->Write("seg", "data").ok());
  ASSERT_TRUE(std::filesystem::exists(dir));
  backend.reset();
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace dcape
