#include "common/file_util.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/resource.h>

#include <gtest/gtest.h>

namespace vup {
namespace {

namespace fs = std::filesystem;

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/vup_file_util_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string dir_;
};

/// Binary content with NULs, CR/LF and high bytes, as a bundle holds.
std::string BinaryContent(size_t size) {
  std::string content(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    content[i] = static_cast<char>((i * 37 + 11) & 0xFF);
  }
  return content;
}

TEST_F(FileUtilTest, ReadFileCappedRoundTripsAFileAtExactlyTheCap) {
  const std::string path = dir_ + "/bundle";
  const std::string content = BinaryContent(4099);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  StatusOr<std::string> read = ReadFileCapped(path, content.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), content);
}

TEST_F(FileUtilTest, ReadFileCappedRejectsAFileOverTheCap) {
  const std::string path = dir_ + "/bundle";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "0123456789";
  }
  EXPECT_TRUE(ReadFileCapped(path, 9).status().IsDataLoss());
  EXPECT_TRUE(ReadFileCapped(path, 0).status().IsDataLoss());
  EXPECT_TRUE(ReadFileCapped(path, 10).ok());
}

TEST_F(FileUtilTest, ReadFileCappedIsNotFoundForAMissingFile) {
  EXPECT_TRUE(ReadFileCapped(dir_ + "/absent", 1024).status().IsNotFound());
}

TEST_F(FileUtilTest, ReadFileCappedIsInternalWhenNoDescriptorIsLeft) {
  const std::string path = dir_ + "/bundle";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "0123456789";
  }
  // With the soft descriptor limit at zero the stat succeeds and the open
  // fails with EMFILE: an IO fault, which must never read as "no such
  // file". The limit is restored before anything is asserted.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = 0;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  const Status status = ReadFileCapped(path, 1024).status();
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
  EXPECT_TRUE(ReadFileCapped(path, 1024).ok());
}

TEST_F(FileUtilTest, ReadFileCappedIsInternalForADirectory) {
  EXPECT_EQ(ReadFileCapped(dir_, 1024).status().code(), StatusCode::kInternal);
}

TEST_F(FileUtilTest, ReadFileCappedReadsAnEmptyFile) {
  const std::string path = dir_ + "/empty";
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  StatusOr<std::string> read = ReadFileCapped(path, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().empty());
}

TEST_F(FileUtilTest, WriteFileAtomicReplacesTheTargetAndLeavesNoTemp) {
  const std::string path = dir_ + "/CURRENT";
  ASSERT_TRUE(WriteFileAtomic(path, "gen_000001\n").ok());
  EXPECT_EQ(Slurp(path), "gen_000001\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // Replacing a longer file with a shorter one leaves no stale tail.
  const std::string binary = BinaryContent(300);
  ASSERT_TRUE(WriteFileAtomic(path, binary).ok());
  EXPECT_EQ(Slurp(path), binary);
  ASSERT_TRUE(WriteFileAtomic(path, "gen_000002\n").ok());
  EXPECT_EQ(Slurp(path), "gen_000002\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator()),
            1);
}

TEST_F(FileUtilTest, WriteFileAtomicIntoAMissingDirectoryIsInternal) {
  const std::string path = dir_ + "/no_such_dir/CURRENT";
  EXPECT_EQ(WriteFileAtomic(path, "x").code(), StatusCode::kInternal);
  EXPECT_FALSE(fs::exists(dir_ + "/no_such_dir"));
}

}  // namespace
}  // namespace vup
