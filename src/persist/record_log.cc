#include "persist/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace certa::persist {

// Binary headers, payloads and CRCs are host-endian (record_log.h); a
// big-endian build would read every existing file as corrupt.
static_assert(std::endian::native == std::endian::little,
              "record logs are little-endian on disk");

namespace {

constexpr size_t kCrcSize = sizeof(uint32_t);
constexpr size_t kHexCrcSize = 8;

/// Reads `path` from `offset` to its end; false when it cannot be read.
bool ReadFrom(const std::string& path, size_t offset, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  const size_t size = ok ? static_cast<size_t>(st.st_size) : 0;
  out->resize(size > offset ? size - offset : 0);
  size_t done = 0;
  while (ok && done < out->size()) {
    const ssize_t n = ::pread(fd, out->data() + done, out->size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    ok = n >= 0;
    if (n <= 0) break;  // n == 0: the owner cut its tail back meanwhile
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  out->resize(done);
  return ok;
}

/// Visits the valid record prefix of `records` (the bytes after the
/// header) and returns its length.
size_t ScanRecords(const RecordFormat& format, std::string_view records,
                   const RecordVisitor& visit) {
  size_t offset = 0;
  while (offset < records.size()) {
    std::string_view payload;
    uint32_t stored = 0;
    size_t next = 0;
    if (format.payload_size > 0) {
      next = offset + format.payload_size + kCrcSize;
      if (next > records.size()) break;
      payload = records.substr(offset, format.payload_size);
      std::memcpy(&stored, records.data() + offset + format.payload_size,
                  kCrcSize);
    } else {
      const size_t newline = records.find('\n', offset);
      if (newline == std::string_view::npos) break;
      const std::string_view line = records.substr(offset, newline - offset);
      if (line.size() <= kHexCrcSize || line[kHexCrcSize] != ' ' ||
          !util::ParseCrc32Hex(line.substr(0, kHexCrcSize), &stored)) {
        break;
      }
      payload = line.substr(kHexCrcSize + 1);
      next = newline + 1;
    }
    if (util::Crc32(payload.data(), payload.size()) != stored) break;
    if (visit && !visit(payload)) break;
    offset = next;
  }
  return offset;
}

}  // namespace

void FrameRecord(const RecordFormat& format, std::string_view payload,
                 std::string* out) {
  const uint32_t crc = util::Crc32(payload.data(), payload.size());
  if (format.payload_size > 0) {
    CERTA_CHECK(payload.size() == format.payload_size);
    out->append(payload);
    out->append(reinterpret_cast<const char*>(&crc), kCrcSize);
  } else {
    out->append(util::Crc32Hex(crc));
    out->push_back(' ');
    out->append(payload);
    out->push_back('\n');
  }
}

size_t ReadRecordLog(const std::string& path, const RecordFormat& format,
                     const RecordVisitor& visit,
                     RecordLogRecovery* recovery) {
  *recovery = RecordLogRecovery();
  std::string data;
  if (!util::ReadFileToString(path, &data)) {
    recovery->missing = true;
    return 0;
  }
  const std::string_view bytes(data);
  if (!bytes.starts_with(format.header)) {
    recovery->bad_header = true;
    recovery->dropped_bytes = bytes.size();
    return 0;
  }
  const size_t valid =
      format.header.size() +
      ScanRecords(format, bytes.substr(format.header.size()), visit);
  recovery->dropped_bytes = bytes.size() - valid;
  return valid;
}

RecordLog::~RecordLog() { Close(); }

bool RecordLog::Open(const std::string& path, const RecordFormat& format,
                     const RecordVisitor& visit,
                     RecordLogRecovery* recovery) {
  Close();
  format_ = format;
  RecordLogRecovery local;
  RecordLogRecovery* found = recovery != nullptr ? recovery : &local;
  size_t valid = ReadRecordLog(path, format, visit, found);
  if (valid == 0) {
    // Missing, or nothing in it is trusted: start over with a header
    // that appears whole or not at all.
    if (!util::AtomicWriteFile(path, std::string(format.header))) {
      return false;
    }
    valid = format.header.size();
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) return false;
  // Cut a torn tail, so appends extend the valid prefix instead of
  // hiding behind garbage forever.
  if (!found->bad_header && found->dropped_bytes > 0 &&
      (::ftruncate(fd_, static_cast<off_t>(valid)) != 0 ||
       ::fsync(fd_) != 0)) {
    Close();
    return false;
  }
  durable_end_ = valid;
  return true;
}

void RecordLog::Append(std::string_view payload) {
  FrameRecord(format_, payload, &buffer_);
}

bool RecordLog::Sync() {
  if (fd_ < 0) return false;
  if (util::WriteFully(fd_, buffer_) && ::fsync(fd_) == 0) {
    durable_end_ += buffer_.size();
    buffer_.clear();
    return true;
  }
  // A refused record must neither become durable later nor strand the
  // records appended after it: cut back to the durable end.
  const int error = errno;
  buffer_.clear();
  if (::ftruncate(fd_, static_cast<off_t>(durable_end_)) != 0 ||
      ::fsync(fd_) != 0) {
    Close();
  }
  errno = error;
  return false;
}

void RecordLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  durable_end_ = 0;
}

PeerTail::PeerTail(std::string path, const RecordFormat& format,
                   size_t absorbed)
    : path_(std::move(path)), format_(format), absorbed_(absorbed) {}

size_t PeerTail::Absorb(const RecordVisitor& visit) {
  std::string bytes;
  if (ignored_ || !ReadFrom(path_, absorbed_, &bytes)) return 0;
  std::string_view tail(bytes);
  if (absorbed_ == 0) {
    // Too short to judge: the owner may still be writing its header.
    if (tail.size() < format_.header.size()) return 0;
    // A complete header that is wrong never becomes right.
    if (!tail.starts_with(format_.header)) {
      ignored_ = true;
      return 0;
    }
    tail.remove_prefix(format_.header.size());
    absorbed_ = format_.header.size();
  }
  size_t accepted = 0;
  absorbed_ += ScanRecords(format_, tail, [&](std::string_view payload) {
    if (visit && !visit(payload)) return false;
    ++accepted;
    return true;
  });
  return accepted;
}

bool RewriteRecordLog(const std::string& path, const RecordFormat& format,
                      std::string_view framed_records) {
  return util::AtomicWriteFile(
      path, std::string(format.header) + std::string(framed_records));
}

}  // namespace certa::persist
