#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace certa::util {
namespace {

/// Directory component of `path` ("." when there is none) — the temp
/// file must live on the same filesystem for rename(2) to be atomic.
std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

bool WriteFully(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

void SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool AtomicWriteFile(const std::string& path, const std::string& content) {
  if (path.empty()) return false;
  const std::string dir = DirOf(path);
  // getpid() in the name keeps concurrent writers of the same target
  // from clobbering each other's temp file; last rename wins.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = WriteFully(fd, content) && ::fsync(fd) == 0;
  ok = (::close(fd) == 0) && ok;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  SyncDirectory(dir);
  return true;
}

bool ReadFileToString(const std::string& path, std::string* content) {
  std::ifstream input(path, std::ios::binary);
  if (!input) return false;
  std::ostringstream buffer;
  buffer << input.rdbuf();
  if (input.bad()) return false;
  *content = buffer.str();
  return true;
}

bool PathExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

bool EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path, ec);
}

}  // namespace certa::util
