/// \file test_dir.h
/// \brief A temporary directory owned by one test in one process.

#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cctype>
#include <string>
#include <utility>

#include "eval/table1_runner.h"  // RemoveDirRecursive

namespace vr {

/// Creates `<gtest TempDir>/vretrieve_<suite>_<test>_XXXXXX` with mkdtemp,
/// so no two tests, and no two runs of the same test under `ctest -j`,
/// share a store. The directory and everything in it is removed on
/// destruction. Construct it while a test runs; a fixture member works, and
/// declared before the members that use the directory it outlives them.
class ScopedTestDir {
 public:
  ScopedTestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("vretrieve_") + info->test_suite_name() +
                       "_" + info->name();
    for (char& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    std::string path = ::testing::TempDir();
    if (path.empty() || path.back() != '/') path += '/';
    path += name + "_XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << path;
      return;
    }
    path_ = std::move(path);
  }

  ~ScopedTestDir() {
    if (!path_.empty()) RemoveDirRecursive(path_);
  }

  ScopedTestDir(const ScopedTestDir&) = delete;
  ScopedTestDir& operator=(const ScopedTestDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace vr
