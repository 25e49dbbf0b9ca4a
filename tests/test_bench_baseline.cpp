// benchstat's baseline selection (tools/bench_baseline.h): the numerically
// latest BENCH_<n>.json, not the lexicographically latest name.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "tools/bench_baseline.h"

namespace tp::bench {
namespace {

namespace fs = std::filesystem;

/// A fresh directory holding empty files with the given names.
class BaselineDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tp_bench_baseline_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void touch(const std::string& name) { std::ofstream(dir_ / name) << "{}\n"; }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(BaselineDir, LargestNumberWinsOverLexicographicOrder) {
  for (const char* name : {"BENCH_9.json", "BENCH_12.json", "BENCH_14.json",
                           "BENCH_2.json"})
    touch(name);
  EXPECT_EQ(find_baseline(dir(), "BENCH_out.json"), path("BENCH_14.json"));
}

TEST_F(BaselineDir, NonNumericNamesAreIgnored) {
  for (const char* name :
       {"BENCH_9.json", "BENCH_ci.json", "BENCH_zz.json", "BENCH_.json",
        "BENCH_1x.json", "BENCH_10.json.bak", "bench_99.json", "BENCH_99.txt"})
    touch(name);
  EXPECT_EQ(find_baseline(dir(), "/tmp/BENCH_ci.json"), path("BENCH_9.json"));
}

TEST_F(BaselineDir, TheOutputFileItselfIsSkipped) {
  touch("BENCH_14.json");
  touch("BENCH_15.json");
  EXPECT_EQ(find_baseline(dir(), "BENCH_15.json"), path("BENCH_14.json"));
  EXPECT_EQ(find_baseline(dir(), dir() + "/BENCH_15.json"),
            path("BENCH_14.json"));
}

TEST_F(BaselineDir, NoCandidateGivesAnEmptyPath) {
  touch("BENCH_ci.json");
  EXPECT_EQ(find_baseline(dir(), "BENCH_3.json"), "");
  EXPECT_EQ(find_baseline(dir() + "/missing", "BENCH_3.json"), "");
}

}  // namespace
}  // namespace tp::bench
