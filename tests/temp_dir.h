#ifndef STIX_TESTS_TEMP_DIR_H_
#define STIX_TESTS_TEMP_DIR_H_

#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/fs.h"

namespace stix::testing {

/// RAII scratch directory for tests that touch the filesystem (WALs,
/// checkpoints). Each instance gets a unique directory (a random
/// nonce under the system temp dir), so fixtures stay independent when
/// `ctest -j` runs test cases as concurrent processes; the tree is removed
/// on destruction.
///
///   TempDir dir;                   // or TempDir dir("wal");
///   WriteAheadLog::Open(dir.path() + "/wal.log", ...);
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "stix_test") {
    Result<std::string> made = MakeTempDir(prefix);
    // Tests cannot run without scratch space; fail loudly, not with an
    // empty path that would scatter files into the working directory.
    if (!made.ok()) {
      ADD_FAILURE() << "TempDir: " << made.status().ToString();
      return;
    }
    path_ = std::move(*made);
  }

  ~TempDir() {
    if (!path_.empty()) (void)RemoveAll(path_);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// Absolute path of the directory (no trailing slash).
  const std::string& path() const { return path_; }

  /// Convenience: `dir / "name"`.
  std::string operator/(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// Whole-file byte helpers for tests that inspect or damage files on disk.
inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace stix::testing

#endif  // STIX_TESTS_TEMP_DIR_H_
