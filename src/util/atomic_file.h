#ifndef CERTA_UTIL_ATOMIC_FILE_H_
#define CERTA_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

namespace certa::util {

/// Crash-safe file I/O primitives used by the persistence layer
/// (src/persist) and every result/model exporter. The atomic writer
/// guarantees that a reader — including a reader racing a crash — sees
/// either the complete previous contents of `path` or the complete new
/// contents, never a prefix or interleaving.

/// Writes `content` to `path` atomically: the bytes go to a temp file
/// in the same directory, are fsync'd, then renamed over `path`, and
/// the directory entry is fsync'd so the rename survives power loss.
/// Returns false (and cleans up the temp file) on any I/O error, in
/// which case `path` is untouched.
bool AtomicWriteFile(const std::string& path, const std::string& content);

/// Writes all of `data` to `fd`, retrying short writes and EINTR.
/// False (errno set) on the first failing write; a prefix of `data`
/// may then be in the file.
bool WriteFully(int fd, std::string_view data);

/// fsyncs directory `dir`, so a file created or renamed in it survives
/// power loss. Failure is ignored (some filesystems refuse directory
/// fsync); the file data itself is already synced by then.
void SyncDirectory(const std::string& dir);

/// Reads the whole file into *content; false when it cannot be opened
/// or read. Binary-exact (no newline translation).
bool ReadFileToString(const std::string& path, std::string* content);

/// True when `path` names an existing file or directory.
bool PathExists(const std::string& path);

/// Creates the directory (and missing parents); true when it exists
/// afterwards.
bool EnsureDirectory(const std::string& path);

}  // namespace certa::util

#endif  // CERTA_UTIL_ATOMIC_FILE_H_
