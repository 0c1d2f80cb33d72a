// One battery for persist::RecordLog, the CRC-framed append-only file
// under the job journal, the score store and the stream WAL (labels
// durability, store, stream):
//   - the recovery rule, parametrized over the three formats:
//     truncation at every length, a flipped byte at every offset, torn
//     tails cut on Open, bad headers rewritten, and the read-only
//     PeerTail over torn tails and wrong headers;
//   - the writer, once per format: FrameRecord matches bytes framed by
//     hand, and a write refused mid-record (RLIMIT_FSIZE) is cut back
//     and strands nothing appended after it;
//   - byte pins: a record written through JournalWriter, ScoreStore and
//     StreamCoordinator equals bytes built here by hand, so the three
//     on-disk formats cannot move unnoticed;
//   - stream recovery from a WAL truncated at every length.

#include "persist/record_log.h"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "persist/journal.h"
#include "persist/score_store.h"
#include "service/stream_coordinator.h"
#include "util/crc32.h"

namespace certa {
namespace {

namespace fs = std::filesystem;
using persist::PeerTail;
using persist::RecordFormat;
using persist::RecordLog;
using persist::RecordLogRecovery;
using OpStatus = service::StreamCoordinator::OpStatus;

fs::path Scratch(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("certa_record_log_" + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One record framed by hand from the format description in
/// record_log.h, independently of persist::FrameRecord.
std::string HandFrame(const RecordFormat& format, const std::string& payload) {
  const uint32_t crc = util::Crc32(payload);
  if (format.payload_size > 0) {
    std::string out = payload;
    out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    return out;
  }
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  return std::string(hex) + " " + payload + "\n";
}

std::string Uint32Bytes(uint32_t value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
}

// -- the recovery rule, once per format ---------------------------------

struct FormatCase {
  const char* name;
  RecordFormat format;
};

// Names the parameter in test names and failure messages. Without it
// gtest prints the struct's raw bytes, among them the address of
// `name`, and the ctest names change with the load address.
void PrintTo(const FormatCase& format_case, std::ostream* os) {
  *os << format_case.name;
}

// The three formats in use, spelled out from their documentation; the
// byte pins below tie each to the class that writes it.
const FormatCase kFormats[] = {
    {"journal", {std::string_view("CERTAWAL\x01\0\0\0", 12), 24}},
    {"store", {std::string_view("CERTASST\x01\0\0\0", 12), 32}},
    {"stream", {"CERTASTREAM v1\n", 0}},
};

const FormatCase& CaseOf(const FormatCase& format_case) { return format_case; }

const FormatCase& CaseOf(const std::string& name) {
  for (const FormatCase& format_case : kFormats) {
    if (name == format_case.name) return format_case;
  }
  throw std::invalid_argument("no format named " + name);
}

/// Payloads, hand-built logs and scans in the format a fixture's
/// parameter stands for: the case itself or its name.
template <typename Param>
class FormatFixture : public ::testing::TestWithParam<Param> {
 protected:
  const RecordFormat& format() const {
    return CaseOf(this->GetParam()).format;
  }

  /// Payload `i`: binary formats get payload_size bytes, the text format
  /// a short JSON object (no newline).
  std::string Payload(int i) const {
    if (format().payload_size > 0) {
      std::string payload(format().payload_size, '\0');
      for (size_t b = 0; b < payload.size(); ++b) {
        payload[b] = static_cast<char>(i * 31 + b * 7 + 1);
      }
      return payload;
    }
    return "{\"op\":\"upsert\",\"seq\":" + std::to_string(i + 1) +
           ",\"values\":[\"v" + std::to_string(i) + "\"]}";
  }

  /// Header plus records 0..n-1; *ends gets each record's end offset.
  std::string Build(int n, std::vector<size_t>* ends = nullptr) const {
    std::string bytes(format().header);
    for (int i = 0; i < n; ++i) {
      bytes += HandFrame(format(), Payload(i));
      if (ends != nullptr) ends->push_back(bytes.size());
    }
    return bytes;
  }

  /// Reads `path` through the scanner; returns the accepted payloads.
  std::vector<std::string> Read(const fs::path& path,
                                RecordLogRecovery* recovery) const {
    std::vector<std::string> payloads;
    persist::ReadRecordLog(path.string(), format(),
                           [&payloads](std::string_view payload) {
                             payloads.emplace_back(payload);
                             return true;
                           },
                           recovery);
    return payloads;
  }

  std::vector<std::string> Expected(size_t n) const {
    std::vector<std::string> payloads;
    for (size_t i = 0; i < n; ++i) payloads.push_back(Payload(int(i)));
    return payloads;
  }
};

class RecordLogTest : public FormatFixture<FormatCase> {};

TEST_P(RecordLogTest, TruncationAtEveryLengthKeepsWholeRecordPrefix) {
  const fs::path dir = Scratch(std::string("trunc_") + GetParam().name);
  const fs::path path = dir / "log";
  std::vector<size_t> ends;
  const std::string full = Build(3, &ends);
  for (size_t len = 0; len <= full.size(); ++len) {
    WriteAll(path, full.substr(0, len));
    RecordLogRecovery recovery;
    const std::vector<std::string> payloads = Read(path, &recovery);
    size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= len) ++whole;
    const size_t valid =
        whole > 0 ? ends[whole - 1]
                  : (len >= format().header.size() ? format().header.size()
                                                   : 0);
    EXPECT_EQ(payloads, Expected(whole)) << "len " << len;
    EXPECT_EQ(recovery.bad_header, len < format().header.size())
        << "len " << len;
    EXPECT_EQ(recovery.dropped_bytes, len - valid) << "len " << len;
  }
  fs::remove_all(dir);
}

TEST_P(RecordLogTest, FlippedByteAtEveryOffsetKeepsRecordsBeforeIt) {
  const fs::path dir = Scratch(std::string("flip_") + GetParam().name);
  const fs::path path = dir / "log";
  std::vector<size_t> ends;
  const std::string full = Build(3, &ends);
  for (size_t offset = 0; offset < full.size(); ++offset) {
    std::string corrupted = full;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x40);
    WriteAll(path, corrupted);
    RecordLogRecovery recovery;
    const std::vector<std::string> payloads = Read(path, &recovery);
    size_t before = 0;
    while (before < ends.size() && ends[before] <= offset) ++before;
    if (offset < format().header.size()) {
      EXPECT_TRUE(recovery.bad_header) << "offset " << offset;
      EXPECT_TRUE(payloads.empty()) << "offset " << offset;
      continue;
    }
    EXPECT_EQ(payloads, Expected(before)) << "offset " << offset;
    EXPECT_GT(recovery.dropped_bytes, 0u) << "offset " << offset;
  }
  fs::remove_all(dir);
}

TEST_P(RecordLogTest, OpenCutsTornTailAndLaterAppendSurvivesReopen) {
  const fs::path dir = Scratch(std::string("torn_") + GetParam().name);
  const fs::path path = dir / "log";
  std::vector<size_t> ends;
  const std::string full = Build(3, &ends);
  const size_t torn_at = ends[1] + (ends[2] - ends[1]) / 2;
  WriteAll(path, full.substr(0, torn_at));

  RecordLog log;
  RecordLogRecovery recovery;
  std::vector<std::string> replayed;
  ASSERT_TRUE(log.Open(path.string(), format(),
                       [&replayed](std::string_view payload) {
                         replayed.emplace_back(payload);
                         return true;
                       },
                       &recovery));
  EXPECT_EQ(replayed, Expected(2));
  EXPECT_FALSE(recovery.missing);
  EXPECT_FALSE(recovery.bad_header);
  EXPECT_EQ(recovery.dropped_bytes, torn_at - ends[1]);
  EXPECT_EQ(fs::file_size(path), ends[1]) << "torn tail not cut";
  EXPECT_EQ(log.size(), ends[1]);

  log.Append(Payload(7));
  ASSERT_TRUE(log.Sync());
  log.Close();
  const std::vector<std::string> after = Read(path, &recovery);
  EXPECT_EQ(after, (std::vector<std::string>{Payload(0), Payload(1),
                                             Payload(7)}));
  EXPECT_EQ(recovery.dropped_bytes, 0u);
  fs::remove_all(dir);
}

TEST_P(RecordLogTest, MissingFileOrBadHeaderGetsAFreshHeader) {
  const fs::path dir = Scratch(std::string("hdr_") + GetParam().name);
  const fs::path missing = dir / "missing";
  RecordLog log;
  RecordLogRecovery recovery;
  ASSERT_TRUE(log.Open(missing.string(), format(), nullptr, &recovery));
  EXPECT_TRUE(recovery.missing);
  EXPECT_EQ(ReadAll(missing), std::string(format().header));
  log.Close();

  const fs::path bad = dir / "bad";
  std::string bytes = Build(2);
  bytes[0] ^= 0x20;
  WriteAll(bad, bytes);
  ASSERT_TRUE(log.Open(bad.string(), format(), nullptr, &recovery));
  EXPECT_TRUE(recovery.bad_header);
  EXPECT_EQ(recovery.dropped_bytes, bytes.size());
  EXPECT_EQ(ReadAll(bad), std::string(format().header));
  log.Append(Payload(0));
  ASSERT_TRUE(log.Sync());
  log.Close();
  EXPECT_EQ(Read(bad, &recovery), Expected(1));
  EXPECT_FALSE(recovery.bad_header);
  fs::remove_all(dir);
}

TEST_P(RecordLogTest, PeerTailLeavesTornTailAloneAndAbsorbsItOnceComplete) {
  const fs::path dir = Scratch(std::string("peer_") + GetParam().name);
  const fs::path path = dir / "log";
  std::vector<size_t> ends;
  const std::string full = Build(3, &ends);
  std::vector<std::string> absorbed;
  const persist::RecordVisitor collect =
      [&absorbed](std::string_view payload) {
        absorbed.emplace_back(payload);
        return true;
      };

  // A header still being written is pending, not wrong.
  WriteAll(path, full.substr(0, format().header.size() - 1));
  PeerTail tail(path.string(), format());
  EXPECT_EQ(tail.Absorb(collect), 0u);
  EXPECT_FALSE(tail.ignored());
  EXPECT_EQ(tail.absorbed(), 0u);

  const std::string torn = full.substr(0, ends[2] - 1);
  WriteAll(path, torn);
  EXPECT_EQ(tail.Absorb(collect), 2u);
  EXPECT_EQ(absorbed, Expected(2));
  EXPECT_EQ(tail.absorbed(), ends[1]);
  EXPECT_EQ(ReadAll(path), torn) << "a peer reader modified the file";

  // Nothing new: nothing absorbed, the offset holds.
  EXPECT_EQ(tail.Absorb(collect), 0u);
  EXPECT_EQ(tail.absorbed(), ends[1]);

  // The owner completes the record: absorbed exactly once.
  WriteAll(path, full);
  EXPECT_EQ(tail.Absorb(collect), 1u);
  EXPECT_EQ(tail.Absorb(collect), 0u);
  EXPECT_EQ(absorbed, Expected(3));
  EXPECT_EQ(tail.absorbed(), full.size());

  // A remembered offset resumes without re-reading the prefix.
  PeerTail resumed(path.string(), format(), ends[1]);
  absorbed.clear();
  EXPECT_EQ(resumed.Absorb(collect), 1u);
  EXPECT_EQ(absorbed, (std::vector<std::string>{Payload(2)}));
  fs::remove_all(dir);
}

TEST_P(RecordLogTest, PeerTailIgnoresCompleteWrongHeaderForGood) {
  const fs::path dir = Scratch(std::string("peerhdr_") + GetParam().name);
  const fs::path path = dir / "log";
  std::string bytes = Build(2);
  bytes[1] ^= 0x20;
  WriteAll(path, bytes);
  PeerTail tail(path.string(), format());
  EXPECT_EQ(tail.Absorb(nullptr), 0u);
  EXPECT_TRUE(tail.ignored());
  // Even a later valid file under the same name is never read.
  WriteAll(path, Build(2));
  EXPECT_EQ(tail.Absorb(nullptr), 0u);
  EXPECT_TRUE(tail.ignored());
  fs::remove_all(dir);
}

// -- the writer, once per format ----------------------------------------

/// Parametrized by the format's name.
class RecordLogWriteTest : public FormatFixture<std::string> {};

TEST_P(RecordLogWriteTest, FrameRecordMatchesHandBuiltBytes) {
  for (int i = 0; i < 3; ++i) {
    std::string framed;
    persist::FrameRecord(format(), Payload(i), &framed);
    EXPECT_EQ(framed, HandFrame(format(), Payload(i)));
  }
}

/// Lowers RLIMIT_FSIZE for the scope and ignores SIGXFSZ, so a write
/// past the limit fails with EFBIG instead of killing the process.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(size_t bytes) {
    old_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &old_);
    struct rlimit lowered = old_;
    lowered.rlim_cur = static_cast<rlim_t>(bytes);
    ok_ = ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    ::signal(SIGXFSZ, old_handler_);
  }
  bool ok() const { return ok_; }

 private:
  struct rlimit old_ {};
  sighandler_t old_handler_ = SIG_DFL;
  bool ok_ = false;
};

TEST_P(RecordLogWriteTest, FailedSyncIsCutBackAndStrandsNothing) {
  const fs::path dir = Scratch("fail_" + GetParam());
  const fs::path path = dir / "log";
  RecordLog log;
  RecordLogRecovery recovery;
  ASSERT_TRUE(log.Open(path.string(), format(), nullptr, &recovery));
  log.Append(Payload(0));
  ASSERT_TRUE(log.Sync());
  const size_t durable = log.size();
  {
    // Room for 10 more bytes: the next record is written short.
    FileSizeLimit limit(durable + 10);
    ASSERT_TRUE(limit.ok());
    log.Append(Payload(1));
    EXPECT_FALSE(log.Sync());
  }
  ASSERT_TRUE(log.is_open());
  EXPECT_EQ(log.size(), durable);
  EXPECT_EQ(fs::file_size(path), durable) << "partial record left behind";
  log.Append(Payload(2));
  ASSERT_TRUE(log.Sync());
  log.Close();
  EXPECT_EQ(Read(path, &recovery),
            (std::vector<std::string>{Payload(0), Payload(2)}));
  EXPECT_EQ(recovery.dropped_bytes, 0u);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, RecordLogTest, ::testing::ValuesIn(kFormats),
    [](const ::testing::TestParamInfo<FormatCase>& info) {
      return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    Formats, RecordLogWriteTest,
    ::testing::Values("journal", "store", "stream"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// -- byte pins: the three writers produce exactly the documented bytes --

TEST(RecordLogPinTest, JournalWriterBytes) {
  const fs::path dir = Scratch("pin_journal");
  const fs::path path = dir / "journal.wal";
  models::PairKey key;
  key.lo = 0x0123456789abcdefULL;
  key.hi = 0xfedcba9876543210ULL;
  const double score = 0.625;
  persist::JournalWriter writer;
  ASSERT_TRUE(writer.Open(path.string()));
  ASSERT_TRUE(writer.Append(key, score));
  ASSERT_TRUE(writer.Sync());
  writer.Close();

  std::string payload;
  payload.append(reinterpret_cast<const char*>(&key.lo), 8);
  payload.append(reinterpret_cast<const char*>(&key.hi), 8);
  payload.append(reinterpret_cast<const char*>(&score), 8);
  const std::string expected = std::string("CERTAWAL") + Uint32Bytes(1) +
                               payload + Uint32Bytes(util::Crc32(payload));
  EXPECT_EQ(ReadAll(path), expected);
  fs::remove_all(dir);
}

TEST(RecordLogPinTest, ScoreStoreSegmentBytes) {
  const fs::path dir = Scratch("pin_store");
  const uint64_t scope = 0x1122334455667788ULL;
  models::PairKey key;
  key.lo = 42;
  key.hi = 0x8000000000000001ULL;
  const double score = 0.25;
  {
    persist::ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    ASSERT_TRUE(store.Put(scope, key, score));
    ASSERT_TRUE(store.Sync());
  }
  std::string payload;
  payload.append(reinterpret_cast<const char*>(&scope), 8);
  payload.append(reinterpret_cast<const char*>(&key.lo), 8);
  payload.append(reinterpret_cast<const char*>(&key.hi), 8);
  payload.append(reinterpret_cast<const char*>(&score), 8);
  const std::string expected = std::string("CERTASST") + Uint32Bytes(1) +
                               payload + Uint32Bytes(util::Crc32(payload));
  EXPECT_EQ(ReadAll(dir / "segment-000001.seg"), expected);
  fs::remove_all(dir);
}

data::Record RecordOf(int id, int attributes, const std::string& token) {
  data::Record record;
  record.id = id;
  for (int i = 0; i < attributes; ++i) record.values.push_back(token);
  return record;
}

TEST(RecordLogPinTest, StreamWalBytes) {
  const fs::path dir = Scratch("pin_stream");
  const int attributes = data::MakeBenchmark("AB").left.schema().size();
  {
    service::StreamCoordinator coordinator;
    service::StreamCoordinator::Options options;
    options.dir = dir.string();
    std::string error;
    ASSERT_TRUE(coordinator.Open(options, &error)) << error;
    service::StreamCoordinator::Ack ack;
    ASSERT_EQ(coordinator.Upsert("AB", "", 0,
                                 RecordOf(4242, attributes, "pin"), &ack,
                                 nullptr, &error),
              OpStatus::kOk)
        << error;
  }
  std::string values;
  for (int i = 0; i < attributes; ++i) {
    values += std::string(i > 0 ? "," : "") + "\"pin\"";
  }
  const std::string json =
      "{\"op\":\"upsert\",\"seq\":1,\"slot\":0,\"dataset\":\"AB\","
      "\"data_dir\":\"\",\"side\":0,\"id\":4242,\"values\":[" +
      values + "]}";
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08x", util::Crc32(json));
  EXPECT_EQ(ReadAll(dir / "ops-w0.wal"),
            "CERTASTREAM v1\n" + std::string(hex) + " " + json + "\n");
  fs::remove_all(dir);
}

// -- the stream WAL on the record log -----------------------------------

class StreamWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    attributes_ = data::MakeBenchmark("AB").left.schema().size();
  }

  OpStatus Upsert(service::StreamCoordinator* coordinator, int id) {
    service::StreamCoordinator::Ack ack;
    std::string error;
    return coordinator->Upsert("AB", "", 0,
                               RecordOf(id, attributes_,
                                        "waltok" + std::to_string(id)),
                               &ack, nullptr, &error);
  }

  /// Whether record `id`'s unique token matches it on side 0.
  bool Holds(service::StreamCoordinator* coordinator, int id) {
    std::vector<service::StreamCoordinator::MatchCandidate> candidates;
    std::string error;
    EXPECT_EQ(coordinator->Match("AB", "", 0,
                                 {"waltok" + std::to_string(id)}, 1,
                                 &candidates, &error),
              OpStatus::kOk)
        << error;
    return !candidates.empty() && candidates[0].id == id &&
           candidates[0].overlap > 0;
  }

  static bool Open(service::StreamCoordinator* coordinator,
                   const fs::path& dir) {
    service::StreamCoordinator::Options options;
    options.dir = dir.string();
    std::string error;
    const bool opened = coordinator->Open(options, &error);
    EXPECT_TRUE(opened) << error;
    return opened;
  }

  int attributes_ = 0;
};

TEST_F(StreamWalTest, RefusedAppendIsCutBackAndLaterOpsSurvive) {
  const fs::path dir = Scratch("wal_refused");
  const fs::path wal = dir / service::StreamCoordinator::WalFileName(0);
  {
    service::StreamCoordinator coordinator;
    ASSERT_TRUE(Open(&coordinator, dir));
    ASSERT_EQ(Upsert(&coordinator, 1), OpStatus::kOk);
    {
      FileSizeLimit limit(fs::file_size(wal) + 10);
      ASSERT_TRUE(limit.ok());
      EXPECT_EQ(Upsert(&coordinator, 2), OpStatus::kIo);
    }
    ASSERT_EQ(Upsert(&coordinator, 3), OpStatus::kOk);
    coordinator.Close();
  }
  service::StreamCoordinator reopened;
  ASSERT_TRUE(Open(&reopened, dir));
  EXPECT_TRUE(Holds(&reopened, 1));
  EXPECT_FALSE(Holds(&reopened, 2)) << "a refused upsert became durable";
  EXPECT_TRUE(Holds(&reopened, 3)) << "an acked upsert was lost";
  EXPECT_EQ(reopened.stats().torn_bytes_dropped, 0);
  reopened.Close();

  // The WAL alone, without the checkpoint, replays the same two ops.
  fs::remove(dir / service::StreamCoordinator::CheckpointFileName(0));
  service::StreamCoordinator replayed;
  ASSERT_TRUE(Open(&replayed, dir));
  EXPECT_EQ(replayed.stats().replayed_ops, 2);
  EXPECT_TRUE(Holds(&replayed, 1));
  EXPECT_FALSE(Holds(&replayed, 2));
  EXPECT_TRUE(Holds(&replayed, 3));
  fs::remove_all(dir);
}

TEST_F(StreamWalTest, TruncationAtEveryLengthReplaysExactlyCompleteLines) {
  const fs::path source = Scratch("wal_source");
  const std::string name = service::StreamCoordinator::WalFileName(0);
  {
    service::StreamCoordinator coordinator;
    ASSERT_TRUE(Open(&coordinator, source));
    for (int id = 1; id <= 3; ++id) {
      ASSERT_EQ(Upsert(&coordinator, id), OpStatus::kOk);
    }
  }
  const std::string full = ReadAll(source / name);
  const size_t header = std::string("CERTASTREAM v1\n").size();
  std::vector<size_t> ends;
  for (size_t pos = full.find('\n', header); pos != std::string::npos;
       pos = full.find('\n', pos + 1)) {
    ends.push_back(pos + 1);
  }
  ASSERT_EQ(ends.size(), 3u);
  ASSERT_EQ(ends.back(), full.size());

  const fs::path dir = Scratch("wal_trunc");
  for (size_t len = 0; len <= full.size(); ++len) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    WriteAll(dir / name, full.substr(0, len));  // no checkpoint
    service::StreamCoordinator coordinator;
    ASSERT_TRUE(Open(&coordinator, dir)) << "len " << len;
    size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= len) ++complete;
    const size_t valid = complete > 0 ? ends[complete - 1]
                                      : (len >= header ? header : 0);
    const service::StreamCoordinator::Stats stats = coordinator.stats();
    EXPECT_EQ(stats.replayed_ops, static_cast<long long>(complete))
        << "len " << len;
    EXPECT_EQ(stats.torn_bytes_dropped, static_cast<long long>(len - valid))
        << "len " << len;
    for (int id = 1; id <= 3; ++id) {
      EXPECT_EQ(Holds(&coordinator, id), static_cast<size_t>(id) <= complete)
          << "len " << len << " id " << id;
    }
    EXPECT_EQ(fs::file_size(dir / name), std::max(valid, header))
        << "len " << len;
  }
  fs::remove_all(dir);
  fs::remove_all(source);
}

}  // namespace
}  // namespace certa
