// One private temporary directory per test process.
//
// Tests that write files put them under TestTempPath(name): a directory
// that mkdtemp creates under testing::TempDir() on first use, so no
// other process can have touched it -- not an earlier run whose pid
// this one reuses, nor a concurrent ctest entry of the same binary --
// and that a gtest Environment removes, with everything in it, once the
// tests have run. A test that writes outside it leaves files behind.

#ifndef FAIRDRIFT_TESTS_TEST_TMP_H_
#define FAIRDRIFT_TESTS_TEST_TMP_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>

namespace fairdrift {
namespace test_tmp {

class TempDirEnvironment : public ::testing::Environment {
 public:
  /// The process's directory, created on the first call of a test
  /// iteration.
  std::string dir() {
    std::lock_guard<std::mutex> lock(mu_);
    if (dir_.empty()) {
      std::string name = ::testing::TempDir() + "fairdrift_test.XXXXXX";
      if (::mkdtemp(name.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp(" << name << ") failed";
        return ::testing::TempDir();
      }
      dir_ = name;
    }
    return dir_;
  }

  void TearDown() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (dir_.empty()) return;
    std::error_code error;
    std::filesystem::remove_all(dir_, error);
    if (error) ADD_FAILURE() << "removing " << dir_ << ": " << error.message();
    dir_.clear();  // a repeated test iteration makes a new one
  }

 private:
  std::mutex mu_;
  std::string dir_;
};

/// The registered environment (gtest owns it).
inline TempDirEnvironment& Environment() {
  static TempDirEnvironment* env = static_cast<TempDirEnvironment*>(
      ::testing::AddGlobalTestEnvironment(new TempDirEnvironment));
  return *env;
}

// Registered while the test binary initializes, before gtest_main runs
// the tests, so the directory is removed at exit however it was used.
inline TempDirEnvironment& registered_environment = Environment();

}  // namespace test_tmp

/// `name` inside this process's private temporary directory.
inline std::string TestTempPath(const std::string& name) {
  return test_tmp::Environment().dir() + "/" + name;
}

}  // namespace fairdrift

#endif  // FAIRDRIFT_TESTS_TEST_TMP_H_
