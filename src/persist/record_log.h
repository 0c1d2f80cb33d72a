#ifndef CERTA_PERSIST_RECORD_LOG_H_
#define CERTA_PERSIST_RECORD_LOG_H_

#include <cstddef>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

namespace certa::persist {

/// One CRC-framed, append-only record file: the framing, recovery rule,
/// failure policy and sibling-tail reader under the per-job journal
/// (journal.h), the score store's segments (score_store.h) and the
/// stream op WAL (service/stream_coordinator.h).
///
/// A file is a fixed header followed by records in one of two framings:
///   binary (payload_size > 0):  payload (payload_size bytes) | uint32 crc
///   text   (payload_size == 0): "%08x payload\n" (crc as lowercase hex)
/// where crc is CRC-32 (util::Crc32) over the payload alone. Binary
/// payloads, binary headers and the binary crc are host-endian:
/// single-machine durability, not an interchange format. Only
/// little-endian hosts are supported (record_log.cc asserts it), so the
/// bytes are the same on every supported machine.
///
/// Recovery rule: a reader trusts exactly the longest prefix of
/// CRC-valid records that its caller also accepts. A torn, truncated
/// or bit-flipped tail is discarded, never interpreted; a file whose
/// header is short or wrong is not trusted at all.
struct RecordFormat {
  /// The bytes every file of this format starts with.
  std::string_view header;
  /// Size of a binary payload; 0 selects the text-line framing (a text
  /// payload must not contain '\n').
  size_t payload_size = 0;
};

/// Receives each CRC-valid payload in file order. Returning false
/// rejects the record and ends the valid prefix before it.
using RecordVisitor = std::function<bool(std::string_view payload)>;

/// Appends one framed record carrying `payload` to *out.
void FrameRecord(const RecordFormat& format, std::string_view payload,
                 std::string* out);

/// The bytes of a binary payload held as a struct in on-disk field
/// order, and back.
template <typename Payload>
std::string_view PayloadBytes(const Payload& payload) {
  static_assert(std::is_trivially_copyable_v<Payload>);
  return std::string_view(reinterpret_cast<const char*>(&payload),
                          sizeof(payload));
}
template <typename Payload>
Payload PayloadFrom(std::string_view bytes) {
  Payload payload{};
  std::memcpy(&payload, bytes.data(), sizeof(payload));
  return payload;
}

/// What reading a log found.
struct RecordLogRecovery {
  /// The file did not exist (or could not be read).
  bool missing = false;
  /// The header is short or wrong: nothing in the file is trusted.
  bool bad_header = false;
  /// Bytes past the valid prefix (the whole file on a bad header).
  size_t dropped_bytes = 0;
};

/// Reads `path` and visits its valid prefix; never writes. Returns the
/// byte length of header plus valid records (0 when missing or bad).
size_t ReadRecordLog(const std::string& path, const RecordFormat& format,
                     const RecordVisitor& visit,
                     RecordLogRecovery* recovery);

/// The one writer. Append buffers; Sync() writes the buffer through and
/// fsyncs, and is the durability boundary.
///
/// Failure policy: when a write or fsync fails, the log cuts the file
/// back to its last durable end and drops every unsynced record, so a
/// refused record never becomes durable and never strands the records
/// appended after it. When the cut itself fails the log closes, so
/// nothing can land behind garbage.
class RecordLog {
 public:
  RecordLog() = default;
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Replays the valid prefix of `path` through `visit` (nullptr
  /// accepts every record), cuts a torn tail off, and opens the file
  /// for appending. A missing file, or one whose header is bad, is
  /// replaced atomically by a fresh header. False on I/O failure, with
  /// nothing open.
  bool Open(const std::string& path, const RecordFormat& format,
            const RecordVisitor& visit, RecordLogRecovery* recovery);

  bool is_open() const { return fd_ >= 0; }

  /// Buffers one record; no durability until Sync.
  void Append(std::string_view payload);

  /// Writes the buffered records and fsyncs. After a true return every
  /// appended record survives a crash; after a false one none of the
  /// unsynced records does (see the failure policy above).
  bool Sync();

  void Close();

  /// Bytes durably in the file: header plus synced records.
  size_t size() const { return durable_end_; }
  /// Bytes appended since the last Sync.
  size_t pending_bytes() const { return buffer_.size(); }

 private:
  int fd_ = -1;
  RecordFormat format_;
  size_t durable_end_ = 0;
  std::string buffer_;
};

/// Read-only reader of a log another process owns and may be appending
/// to right now. Each Absorb() reads only the bytes past the absorbed
/// offset (pread) and visits the records completed since the last call.
/// A short header is pending, not an error; a complete wrong header
/// makes the file ignored for good. A torn or in-flight tail is left
/// for a later call. The reader never writes.
class PeerTail {
 public:
  /// `absorbed` resumes from a remembered offset (0 = from the header).
  PeerTail(std::string path, const RecordFormat& format,
           size_t absorbed = 0);

  /// Visits every newly complete valid record; returns how many the
  /// visitor accepted. A file that cannot be opened absorbs nothing.
  size_t Absorb(const RecordVisitor& visit);

  /// Byte offset absorbed so far (0 while the header is pending).
  size_t absorbed() const { return absorbed_; }
  bool ignored() const { return ignored_; }

 private:
  std::string path_;
  RecordFormat format_;
  size_t absorbed_ = 0;
  bool ignored_ = false;
};

/// Atomically replaces `path` with a fresh log: the header followed by
/// `framed_records` (built with FrameRecord). Compaction uses it; a
/// crash leaves either the old file or the new one, never a mix.
bool RewriteRecordLog(const std::string& path, const RecordFormat& format,
                      std::string_view framed_records);

}  // namespace certa::persist

#endif  // CERTA_PERSIST_RECORD_LOG_H_
