#ifndef STIX_COMMON_FS_H_
#define STIX_COMMON_FS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace stix {

/// Thin std::filesystem wrappers returning Status instead of throwing —
/// the durable storage layer (WAL) and the test TempDir fixture share them
/// so error handling stays uniform.

/// Creates `path` and any missing parents (OK if it already exists).
Status CreateDirs(const std::string& path);

/// Recursively deletes `path` (OK if it does not exist).
Status RemoveAll(const std::string& path);

/// Removes a single file (OK if it does not exist).
Status RemoveFile(const std::string& path);

/// Atomically replaces `to` with `from` (rename(2) semantics).
Status RenameFile(const std::string& from, const std::string& to);

/// Truncates or extends a file to `size` bytes.
Status ResizeFile(const std::string& path, uint64_t size);

bool FileExists(const std::string& path);

/// Size in bytes; NotFound when the file does not exist.
Result<uint64_t> FileSize(const std::string& path);

/// Regular files directly inside `dir`, as full paths, sorted by name.
/// Empty when the directory does not exist.
std::vector<std::string> ListDir(const std::string& dir);

/// Creates a fresh, uniquely named directory under the system temp root
/// (prefix + randomness). Unique across concurrent processes — `ctest -j`
/// runs many test binaries at once.
Result<std::string> MakeTempDir(const std::string& prefix);

}  // namespace stix

#endif  // STIX_COMMON_FS_H_
