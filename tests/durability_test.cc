// Durability layer tests: CRC32, atomic file I/O, write-ahead journal
// (including fuzzed torn/corrupted tails), checkpoints, lattice tag
// serialization, and in-process kill/resume of a full durable
// explanation run. Subprocess SIGKILL coverage lives in
// crash_recovery_test.cc.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/lattice.h"
#include "data/benchmarks.h"
#include "models/scoring_engine.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "service/job_runner.h"
#include "util/atomic_file.h"
#include "util/crc32.h"

namespace certa {
namespace {

namespace fs = std::filesystem;

// Journal on-disk geometry (see persist/journal.h).
constexpr size_t kHeaderBytes = 12;
constexpr size_t kRecordBytes = 28;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("certa_durability_" + tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

std::string ReadAll(const std::string& path) {
  std::string content;
  EXPECT_TRUE(util::ReadFileToString(path, &content));
  return content;
}

void WriteRaw(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

models::PairKey Key(uint64_t lo, uint64_t hi) {
  models::PairKey key;
  key.lo = lo;
  key.hi = hi;
  return key;
}

/// Writes a synced journal of `n` distinct records and returns its raw
/// bytes.
std::string MakeJournal(const std::string& path, int n) {
  persist::JournalWriter writer;
  EXPECT_TRUE(writer.Open(path));
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(writer.Append(Key(i + 1, 1000 + i), 0.01 * i));
  }
  EXPECT_TRUE(writer.Sync());
  writer.Close();
  return ReadAll(path);
}

// ---------------------------------------------------------------------
// CRC32

TEST(Crc32Test, KnownVectors) {
  // IEEE 802.3 check value.
  EXPECT_EQ(util::Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::Crc32(std::string("")), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = util::Crc32Update(0, data.data(), split);
    crc = util::Crc32Update(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, util::Crc32(data)) << "split at " << split;
  }
}

TEST(Crc32Test, SingleBitFlipAlwaysDetected) {
  const std::string data = "durability";
  const uint32_t clean = util::Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(util::Crc32(flipped), clean);
    }
  }
}

// ---------------------------------------------------------------------
// Atomic file I/O

TEST(AtomicFileTest, RoundTripAndOverwrite) {
  ScratchDir scratch("atomic");
  const std::string path = scratch.path("file.txt");
  EXPECT_FALSE(util::PathExists(path));
  EXPECT_TRUE(util::AtomicWriteFile(path, "first\n"));
  EXPECT_TRUE(util::PathExists(path));
  EXPECT_EQ(ReadAll(path), "first\n");
  // Overwrite is all-or-nothing: the old content is fully replaced.
  EXPECT_TRUE(util::AtomicWriteFile(path, "second, longer content\n"));
  EXPECT_EQ(ReadAll(path), "second, longer content\n");
  // No temp file left behind.
  int files = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator(scratch.dir())) {
    ++files;
  }
  EXPECT_EQ(files, 1);
}

TEST(AtomicFileTest, EnsureDirectoryNested) {
  ScratchDir scratch("dirs");
  const std::string nested = scratch.path("a/b/c");
  EXPECT_TRUE(util::EnsureDirectory(nested));
  EXPECT_TRUE(util::EnsureDirectory(nested));  // idempotent
  EXPECT_TRUE(util::AtomicWriteFile(nested + "/f", "x"));
}

TEST(AtomicFileTest, ReadMissingFails) {
  std::string content = "sentinel";
  EXPECT_FALSE(util::ReadFileToString("/nonexistent/certa/file", &content));
}

// ---------------------------------------------------------------------
// Journal

TEST(JournalTest, RoundTrip) {
  ScratchDir scratch("journal_rt");
  const std::string path = scratch.path("journal.wal");
  MakeJournal(path, 5);
  persist::JournalReplay replay = persist::ReplayJournal(path);
  EXPECT_FALSE(replay.missing);
  EXPECT_FALSE(replay.bad_header);
  EXPECT_FALSE(replay.corrupt_tail);
  EXPECT_EQ(replay.duplicates, 0u);
  ASSERT_EQ(replay.entries.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(replay.entries[i].key, Key(i + 1, 1000 + i));
    EXPECT_DOUBLE_EQ(replay.entries[i].score, 0.01 * i);
  }
}

TEST(JournalTest, MissingFileIsFreshJob) {
  persist::JournalReplay replay =
      persist::ReplayJournal("/nonexistent/certa/journal.wal");
  EXPECT_TRUE(replay.missing);
  EXPECT_TRUE(replay.entries.empty());
}

TEST(JournalTest, TruncationFuzzEveryLength) {
  ScratchDir scratch("journal_trunc");
  const std::string path = scratch.path("journal.wal");
  const std::string full = MakeJournal(path, 4);
  ASSERT_EQ(full.size(), kHeaderBytes + 4 * kRecordBytes);
  // Every possible torn-write length recovers exactly the whole-record
  // prefix; the tail is discarded, never interpreted.
  for (size_t len = 0; len <= full.size(); ++len) {
    WriteRaw(path, full.substr(0, len));
    persist::JournalReplay replay = persist::ReplayJournal(path);
    if (len < kHeaderBytes) {
      EXPECT_TRUE(replay.bad_header) << "len " << len;
      EXPECT_TRUE(replay.entries.empty()) << "len " << len;
      continue;
    }
    const size_t expected = (len - kHeaderBytes) / kRecordBytes;
    EXPECT_EQ(replay.entries.size(), expected) << "len " << len;
    EXPECT_EQ(replay.corrupt_tail, (len - kHeaderBytes) % kRecordBytes != 0)
        << "len " << len;
    EXPECT_EQ(replay.dropped_bytes, (len - kHeaderBytes) % kRecordBytes)
        << "len " << len;
    for (size_t i = 0; i < replay.entries.size(); ++i) {
      EXPECT_EQ(replay.entries[i].key, Key(i + 1, 1000 + i));
    }
  }
}

TEST(JournalTest, BitFlipFuzzEveryByte) {
  ScratchDir scratch("journal_flip");
  const std::string path = scratch.path("journal.wal");
  const std::string full = MakeJournal(path, 3);
  for (size_t byte = 0; byte < full.size(); ++byte) {
    std::string corrupted = full;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x40);
    WriteRaw(path, corrupted);
    persist::JournalReplay replay = persist::ReplayJournal(path);
    if (byte < kHeaderBytes) {
      EXPECT_TRUE(replay.bad_header) << "byte " << byte;
      EXPECT_TRUE(replay.entries.empty()) << "byte " << byte;
      continue;
    }
    // A flip inside record i invalidates its CRC; recovery keeps the
    // records before it and discards from i on.
    const size_t flipped_record = (byte - kHeaderBytes) / kRecordBytes;
    EXPECT_EQ(replay.entries.size(), flipped_record) << "byte " << byte;
    EXPECT_TRUE(replay.corrupt_tail) << "byte " << byte;
    for (size_t i = 0; i < replay.entries.size(); ++i) {
      EXPECT_EQ(replay.entries[i].key, Key(i + 1, 1000 + i));
    }
  }
}

TEST(JournalTest, DuplicatesCountedAndReplayedInOrder) {
  ScratchDir scratch("journal_dup");
  const std::string path = scratch.path("journal.wal");
  persist::JournalWriter writer;
  ASSERT_TRUE(writer.Open(path));
  writer.Append(Key(1, 1), 0.5);
  writer.Append(Key(2, 2), 0.25);
  writer.Append(Key(1, 1), 0.5);  // re-logged on a resume-of-resume
  ASSERT_TRUE(writer.Sync());
  writer.Close();
  persist::JournalReplay replay = persist::ReplayJournal(path);
  ASSERT_EQ(replay.entries.size(), 3u);
  EXPECT_EQ(replay.duplicates, 1u);
}

TEST(JournalTest, AppendAfterTornTailExtendsValidPrefix) {
  ScratchDir scratch("journal_tear");
  const std::string path = scratch.path("journal.wal");
  const std::string full = MakeJournal(path, 3);
  // Tear mid-record: half of record 2 survives.
  WriteRaw(path, full.substr(0, kHeaderBytes + 2 * kRecordBytes + 13));

  persist::JournalReplay replay;
  persist::JournalWriter writer;
  ASSERT_TRUE(writer.Open(path, &replay));
  EXPECT_TRUE(replay.corrupt_tail);
  ASSERT_EQ(replay.entries.size(), 2u);
  // Open() truncated the torn tail, so this append lands on a whole-
  // record boundary and is recoverable.
  writer.Append(Key(99, 99), 0.75);
  ASSERT_TRUE(writer.Sync());
  writer.Close();

  persist::JournalReplay after = persist::ReplayJournal(path);
  EXPECT_FALSE(after.corrupt_tail);
  ASSERT_EQ(after.entries.size(), 3u);
  EXPECT_EQ(after.entries[2].key, Key(99, 99));
}

TEST(JournalTest, BadHeaderTreatedAsEmptyAndRewrittenOnOpen) {
  ScratchDir scratch("journal_hdr");
  const std::string path = scratch.path("journal.wal");
  WriteRaw(path, "not a journal at all, definitely longer than a header");
  persist::JournalReplay replay;
  persist::JournalWriter writer;
  ASSERT_TRUE(writer.Open(path, &replay));
  EXPECT_TRUE(replay.bad_header);
  EXPECT_TRUE(replay.entries.empty());
  writer.Append(Key(7, 7), 1.0);
  ASSERT_TRUE(writer.Sync());
  writer.Close();
  persist::JournalReplay after = persist::ReplayJournal(path);
  EXPECT_FALSE(after.bad_header);
  ASSERT_EQ(after.entries.size(), 1u);
  EXPECT_EQ(after.entries[0].key, Key(7, 7));
}

TEST(JournalTest, CompactRewritesExactly) {
  ScratchDir scratch("journal_compact");
  const std::string path = scratch.path("journal.wal");
  MakeJournal(path, 4);
  std::vector<persist::JournalEntry> unique;
  unique.push_back({Key(1, 1001), 0.0});
  unique.push_back({Key(3, 1003), 0.02});
  ASSERT_TRUE(persist::CompactJournal(path, unique));
  persist::JournalReplay replay = persist::ReplayJournal(path);
  ASSERT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.entries[0].key, Key(1, 1001));
  EXPECT_EQ(replay.entries[1].key, Key(3, 1003));
}

// ---------------------------------------------------------------------
// Checkpoint

persist::JobCheckpoint SampleCheckpoint() {
  persist::JobCheckpoint checkpoint;
  checkpoint.request.id = "job-0042";
  checkpoint.request.dataset = "BA";
  checkpoint.request.data_dir = "";  // empty string must round-trip
  checkpoint.request.model = "svm";
  checkpoint.request.pair_index = 3;
  checkpoint.request.triangles = 40;
  checkpoint.request.threads = 2;
  checkpoint.request.seed = 12345;
  checkpoint.request.use_cache = true;
  checkpoint.state = "parked";
  checkpoint.phase = "lattice";
  checkpoint.triangles_total = 40;
  checkpoint.triangles_tagged = 17;
  checkpoint.predictions_performed = 901;
  checkpoint.total_flips = 55;
  checkpoint.fresh_scores = 640;
  checkpoint.replayed_scores = 261;
  checkpoint.tagged_lattices = {"v1;l=3;p=4;f=1,3;t=1,2,4",
                                "v1;l=3;p=6;f=;t=1,2,3,4,5,6"};
  return checkpoint;
}

void ExpectCheckpointsEqual(const persist::JobCheckpoint& a,
                            const persist::JobCheckpoint& b) {
  EXPECT_EQ(a.request.id, b.request.id);
  EXPECT_EQ(a.request.dataset, b.request.dataset);
  EXPECT_EQ(a.request.data_dir, b.request.data_dir);
  EXPECT_EQ(a.request.model, b.request.model);
  EXPECT_EQ(a.request.pair_index, b.request.pair_index);
  EXPECT_EQ(a.request.triangles, b.request.triangles);
  EXPECT_EQ(a.request.threads, b.request.threads);
  EXPECT_EQ(a.request.seed, b.request.seed);
  EXPECT_EQ(a.request.use_cache, b.request.use_cache);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.triangles_total, b.triangles_total);
  EXPECT_EQ(a.triangles_tagged, b.triangles_tagged);
  EXPECT_EQ(a.predictions_performed, b.predictions_performed);
  EXPECT_EQ(a.total_flips, b.total_flips);
  EXPECT_EQ(a.fresh_scores, b.fresh_scores);
  EXPECT_EQ(a.replayed_scores, b.replayed_scores);
  EXPECT_EQ(a.tagged_lattices, b.tagged_lattices);
}

TEST(CheckpointTest, SerializeParseRoundTrip) {
  const persist::JobCheckpoint original = SampleCheckpoint();
  persist::JobCheckpoint parsed;
  ASSERT_TRUE(
      persist::ParseCheckpoint(persist::SerializeCheckpoint(original),
                               &parsed));
  ExpectCheckpointsEqual(original, parsed);
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  ScratchDir scratch("ckpt");
  const std::string path = scratch.path("checkpoint.ckpt");
  ASSERT_TRUE(persist::SaveCheckpoint(path, SampleCheckpoint()));
  persist::JobCheckpoint loaded;
  ASSERT_TRUE(persist::LoadCheckpoint(path, &loaded));
  ExpectCheckpointsEqual(SampleCheckpoint(), loaded);
}

TEST(CheckpointTest, EveryByteFlipRejected) {
  ScratchDir scratch("ckpt_flip");
  const std::string path = scratch.path("checkpoint.ckpt");
  ASSERT_TRUE(persist::SaveCheckpoint(path, SampleCheckpoint()));
  const std::string clean = ReadAll(path);
  persist::JobCheckpoint loaded;
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    std::string corrupted = clean;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x01);
    WriteRaw(path, corrupted);
    // A corrupt checkpoint must never be trusted — some flips are
    // syntax errors, the rest are CRC mismatches.
    EXPECT_FALSE(persist::LoadCheckpoint(path, &loaded)) << "byte " << byte;
  }
}

TEST(CheckpointTest, TruncationRejected) {
  ScratchDir scratch("ckpt_trunc");
  const std::string path = scratch.path("checkpoint.ckpt");
  ASSERT_TRUE(persist::SaveCheckpoint(path, SampleCheckpoint()));
  const std::string clean = ReadAll(path);
  persist::JobCheckpoint loaded;
  for (size_t len = 0; len < clean.size(); ++len) {
    WriteRaw(path, clean.substr(0, len));
    EXPECT_FALSE(persist::LoadCheckpoint(path, &loaded)) << "len " << len;
  }
  EXPECT_FALSE(persist::LoadCheckpoint(scratch.path("missing"), &loaded));
}

// ---------------------------------------------------------------------
// Lattice tag serialization

TEST(LatticeTagsTest, SerializeParseRoundTrip) {
  core::Lattice lattice(4);
  core::Lattice::TagResult tags = lattice.Tag(
      [](explain::AttrMask mask) { return (mask & 0b0011) != 0; },
      /*assume_monotone=*/true);
  const std::string serialized = lattice.SerializeTags(tags);
  core::Lattice::TagResult parsed;
  ASSERT_TRUE(lattice.ParseTags(serialized, &parsed));
  EXPECT_EQ(parsed.flip, tags.flip);
  EXPECT_EQ(parsed.tested, tags.tested);
  EXPECT_EQ(parsed.performed, tags.performed);
  EXPECT_EQ(parsed.total_flips, tags.total_flips);
  // Derived artefacts agree too.
  EXPECT_EQ(lattice.MinimalFlippingAntichain(parsed),
            lattice.MinimalFlippingAntichain(tags));
}

TEST(LatticeTagsTest, MalformedRejected) {
  core::Lattice lattice(3);
  core::Lattice::TagResult tags;
  EXPECT_FALSE(lattice.ParseTags("", &tags));
  EXPECT_FALSE(lattice.ParseTags("v2;l=3;p=0;f=;t=", &tags));
  EXPECT_FALSE(lattice.ParseTags("v1;l=4;p=0;f=;t=", &tags));  // wrong size
  EXPECT_FALSE(lattice.ParseTags("v1;l=3;p=0;f=9;t=", &tags));  // mask > full
  EXPECT_FALSE(lattice.ParseTags("v1;l=3;p=0;f=7;t=", &tags));  // full mask
  EXPECT_FALSE(lattice.ParseTags("v1;l=3;p=0;f=0;t=", &tags));  // empty mask
  EXPECT_FALSE(lattice.ParseTags("v1;l=3;p=zz;f=;t=", &tags));
}

// ---------------------------------------------------------------------
// In-process durable runs: cancel at many points, resume, compare.

service::JobSpec SmallJob() {
  service::JobSpec spec;
  spec.id = "t";
  spec.dataset = "AB";
  spec.model = "svm";
  spec.pair_index = 0;
  spec.triangles = 10;
  return spec;
}

TEST(DurableRunTest, FreshThenNoOpResume) {
  ScratchDir scratch("durable_fresh");
  service::DurableRunOptions options;
  options.checkpoint_every = 4;
  service::JobOutcome first =
      service::RunDurableExplain(SmallJob(), scratch.dir(), options);
  ASSERT_EQ(first.state, service::JobState::kComplete) << first.error;
  EXPECT_FALSE(first.resumed);
  EXPECT_GT(first.fresh_scores, 0);
  EXPECT_EQ(ReadAll(persist::ResultPathInDir(scratch.dir())),
            first.result_json);

  service::JobOutcome second =
      service::RunDurableExplain(SmallJob(), scratch.dir(), options);
  ASSERT_EQ(second.state, service::JobState::kComplete) << second.error;
  EXPECT_TRUE(second.resumed);
  // All paid work replayed; the re-run is free and bit-identical.
  EXPECT_EQ(second.replayed_scores, first.fresh_scores);
  EXPECT_EQ(second.fresh_scores, 0);
  EXPECT_EQ(second.result_json, first.result_json);
}

TEST(DurableRunTest, CancelAtManyPointsThenResumeBitIdentical) {
  ScratchDir reference_dir("durable_ref");
  service::DurableRunOptions reference_options;
  service::JobOutcome reference = service::RunDurableExplain(
      SmallJob(), reference_dir.dir(), reference_options);
  ASSERT_EQ(reference.state, service::JobState::kComplete)
      << reference.error;

  // Park the run after k heartbeats — k sweeps early (mid-triangles)
  // through late (mid-counterfactuals) interruption points.
  for (int k : {1, 5, 15, 30, 60}) {
    ScratchDir scratch("durable_cancel_" + std::to_string(k));
    std::atomic<bool> cancel{false};
    int beats = 0;
    service::DurableRunOptions options;
    options.checkpoint_every = 3;
    options.cancel = &cancel;
    options.heartbeat = [&] {
      if (++beats >= k) cancel.store(true);
    };
    service::JobOutcome parked =
        service::RunDurableExplain(SmallJob(), scratch.dir(), options);
    ASSERT_EQ(parked.state, service::JobState::kParked) << "k=" << k;

    service::DurableRunOptions resume_options;
    service::JobOutcome resumed =
        service::RunDurableExplain(SmallJob(), scratch.dir(), resume_options);
    ASSERT_EQ(resumed.state, service::JobState::kComplete)
        << "k=" << k << ": " << resumed.error;
    EXPECT_EQ(resumed.result_json, reference.result_json) << "k=" << k;
    // The resumed run paid strictly less than the whole job.
    EXPECT_LT(resumed.fresh_scores, reference.fresh_scores) << "k=" << k;
    EXPECT_EQ(resumed.replayed_scores + resumed.fresh_scores,
              reference.fresh_scores)
        << "k=" << k;
  }
}

TEST(DurableRunTest, UncachedResumeNeverRepaysJournaledScores) {
  // Without the prediction cache the journal is still the replay
  // source: a resumed use_cache=false job must serve every journaled
  // pair from it instead of paying the model again.
  service::JobSpec spec = SmallJob();
  spec.use_cache = false;
  ScratchDir reference_dir("uncached_ref");
  service::JobOutcome reference = service::RunDurableExplain(
      spec, reference_dir.dir(), service::DurableRunOptions());
  ASSERT_EQ(reference.state, service::JobState::kComplete)
      << reference.error;

  ScratchDir scratch("uncached_cancel");
  std::atomic<bool> cancel{false};
  int beats = 0;
  service::DurableRunOptions options;
  options.checkpoint_every = 3;
  options.cancel = &cancel;
  options.heartbeat = [&] {
    if (++beats >= 15) cancel.store(true);
  };
  service::JobOutcome parked =
      service::RunDurableExplain(spec, scratch.dir(), options);
  ASSERT_EQ(parked.state, service::JobState::kParked);
  ASSERT_GT(parked.fresh_scores, 0);

  service::JobOutcome resumed = service::RunDurableExplain(
      spec, scratch.dir(), service::DurableRunOptions());
  ASSERT_EQ(resumed.state, service::JobState::kComplete) << resumed.error;
  EXPECT_EQ(resumed.result_json, reference.result_json);
  EXPECT_LE(parked.fresh_scores + resumed.fresh_scores,
            reference.fresh_scores);
}

TEST(DurableRunTest, EveryMatcherResumesBitIdentical) {
  for (const std::string& model :
       {std::string("deeper"), std::string("deepmatcher"),
        std::string("ditto"), std::string("svm")}) {
    service::JobSpec spec = SmallJob();
    spec.model = model;

    ScratchDir reference_dir("matcher_ref_" + model);
    service::JobOutcome reference = service::RunDurableExplain(
        spec, reference_dir.dir(), service::DurableRunOptions());
    ASSERT_EQ(reference.state, service::JobState::kComplete)
        << model << ": " << reference.error;

    ScratchDir scratch("matcher_kill_" + model);
    std::atomic<bool> cancel{false};
    int beats = 0;
    service::DurableRunOptions options;
    options.checkpoint_every = 4;
    options.cancel = &cancel;
    options.heartbeat = [&] {
      if (++beats >= 12) cancel.store(true);
    };
    ASSERT_EQ(service::RunDurableExplain(spec, scratch.dir(), options).state,
              service::JobState::kParked)
        << model;
    service::JobOutcome resumed = service::RunDurableExplain(
        spec, scratch.dir(), service::DurableRunOptions());
    ASSERT_EQ(resumed.state, service::JobState::kComplete)
        << model << ": " << resumed.error;
    EXPECT_EQ(resumed.result_json, reference.result_json) << model;
    EXPECT_GT(resumed.replayed_scores, 0) << model;
    EXPECT_LT(resumed.fresh_scores, reference.fresh_scores) << model;
  }
}

TEST(DurableRunTest, ResumeAfterJournalTailCorruptionStillBitIdentical) {
  ScratchDir reference_dir("durable_corrupt_ref");
  service::JobOutcome reference = service::RunDurableExplain(
      SmallJob(), reference_dir.dir(), service::DurableRunOptions());
  ASSERT_EQ(reference.state, service::JobState::kComplete);

  ScratchDir scratch("durable_corrupt");
  std::atomic<bool> cancel{false};
  int beats = 0;
  service::DurableRunOptions options;
  options.checkpoint_every = 2;
  options.cancel = &cancel;
  options.heartbeat = [&] {
    if (++beats >= 20) cancel.store(true);
  };
  ASSERT_EQ(service::RunDurableExplain(SmallJob(), scratch.dir(), options)
                .state,
            service::JobState::kParked);

  // Simulate a torn final write: chop the journal mid-record.
  const std::string journal_path =
      persist::JournalPathInDir(scratch.dir());
  std::string bytes = ReadAll(journal_path);
  ASSERT_GT(bytes.size(), kHeaderBytes + kRecordBytes);
  WriteRaw(journal_path, bytes.substr(0, bytes.size() - 9));

  service::JobOutcome resumed = service::RunDurableExplain(
      SmallJob(), scratch.dir(), service::DurableRunOptions());
  ASSERT_EQ(resumed.state, service::JobState::kComplete) << resumed.error;
  EXPECT_EQ(resumed.result_json, reference.result_json);
}

TEST(DurableRunTest, BadSpecFailsCleanly) {
  ScratchDir scratch("durable_bad");
  service::JobSpec bad = SmallJob();
  bad.dataset = "ZZ";
  EXPECT_EQ(service::RunDurableExplain(bad, scratch.dir(),
                                       service::DurableRunOptions())
                .state,
            service::JobState::kFailed);
  bad = SmallJob();
  bad.pair_index = 1 << 20;
  EXPECT_EQ(service::RunDurableExplain(bad, scratch.dir(),
                                       service::DurableRunOptions())
                .state,
            service::JobState::kFailed);
  bad = SmallJob();
  bad.model = "gpt";
  EXPECT_EQ(service::RunDurableExplain(bad, scratch.dir(),
                                       service::DurableRunOptions())
                .state,
            service::JobState::kFailed);
}

// ---------------------------------------------------------------------
// Job runner: admission control, shedding, watchdog, shutdown.

TEST(JobRunnerTest, RunsJobsAndCounts) {
  ScratchDir scratch("runner_basic");
  service::JobRunnerOptions options;
  options.job_root = scratch.dir();
  options.workers = 2;
  options.queue_capacity = 8;
  service::JobRunner runner(options);
  for (int i = 0; i < 3; ++i) {
    service::JobSpec spec = SmallJob();
    spec.id = "";
    spec.pair_index = i;
    service::JobRunner::SubmitResult submitted = runner.Submit(spec);
    ASSERT_TRUE(submitted.accepted) << submitted.reason;
    EXPECT_FALSE(submitted.job_id.empty());
  }
  runner.Wait();
  service::JobRunner::Counters counters = runner.counters();
  EXPECT_EQ(counters.accepted, 3);
  EXPECT_EQ(counters.completed, 3);
  for (const service::JobOutcome& outcome : runner.outcomes()) {
    EXPECT_EQ(outcome.state, service::JobState::kComplete) << outcome.error;
    EXPECT_TRUE(util::PathExists(persist::ResultPathInDir(outcome.job_dir)));
  }
}

TEST(JobRunnerTest, FullQueueShedsNewJobs) {
  ScratchDir scratch("runner_shed");
  service::JobRunnerOptions options;
  options.job_root = scratch.dir();
  options.workers = 1;
  options.queue_capacity = 1;
  service::JobRunner runner(options);
  // Burst-submit: with one busy worker and one queue slot, the burst
  // must shed — and shedding is reject-new, never degrade-running.
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 8; ++i) {
    service::JobSpec spec = SmallJob();
    spec.id = "burst-" + std::to_string(i);
    service::JobRunner::SubmitResult submitted = runner.Submit(spec);
    if (submitted.accepted) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_NE(submitted.reason.find("queue full"), std::string::npos);
    }
  }
  EXPECT_GE(accepted, 1);
  EXPECT_GE(rejected, 1);
  runner.Wait();
  // Every accepted job still ran to completion.
  EXPECT_EQ(runner.counters().completed, accepted);
}

TEST(JobRunnerTest, WatchdogParksDeadlineOverrun) {
  ScratchDir scratch("runner_deadline");
  service::JobRunnerOptions options;
  options.job_root = scratch.dir();
  options.watchdog_poll_ms = 2;
  service::JobRunner runner(options);
  service::JobSpec spec = SmallJob();
  spec.id = "late";
  spec.triangles = 400;  // big enough to overrun a 1ms deadline
  spec.deadline_ms = 1;
  ASSERT_TRUE(runner.Submit(spec).accepted);
  runner.Wait();
  std::vector<service::JobOutcome> outcomes = runner.outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, service::JobState::kParked);
  // Parked ≠ lost: the job dir resumes to a complete result.
  service::JobOutcome resumed = service::RunDurableExplain(
      spec, outcomes[0].job_dir, service::DurableRunOptions());
  EXPECT_EQ(resumed.state, service::JobState::kComplete) << resumed.error;
}

TEST(JobRunnerTest, NonDrainShutdownParksEverythingResumably) {
  ScratchDir scratch("runner_shutdown");
  service::JobRunnerOptions options;
  options.job_root = scratch.dir();
  options.workers = 1;
  options.queue_capacity = 4;
  service::JobRunner runner(options);
  std::vector<service::JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    service::JobSpec spec = SmallJob();
    spec.id = "shut-" + std::to_string(i);
    spec.triangles = 200;
    specs.push_back(spec);
    ASSERT_TRUE(runner.Submit(spec).accepted);
  }
  runner.Shutdown(/*drain=*/false);
  EXPECT_FALSE(runner.Submit(SmallJob()).accepted);  // admission closed
  EXPECT_GT(runner.counters().rejected_closed, 0);
  // Every admitted job has a terminal outcome and a resumable trail.
  std::vector<service::JobOutcome> outcomes = runner.outcomes();
  ASSERT_EQ(outcomes.size(), specs.size());
  for (const service::JobOutcome& outcome : outcomes) {
    if (outcome.state == service::JobState::kComplete) continue;
    EXPECT_EQ(outcome.state, service::JobState::kParked);
    persist::JobCheckpoint checkpoint;
    ASSERT_TRUE(persist::LoadCheckpoint(
        persist::CheckpointPathInDir(outcome.job_dir), &checkpoint))
        << outcome.job_dir;
    service::JobOutcome resumed = service::RunDurableExplain(
        service::SpecFromCheckpoint(checkpoint), outcome.job_dir,
        service::DurableRunOptions());
    EXPECT_EQ(resumed.state, service::JobState::kComplete) << resumed.error;
  }
}

}  // namespace
}  // namespace certa
