// Unit + corruption-fuzz tests for persist::ScoreStore: roundtrip and
// reopen, scope separation, torn/bit-flipped/truncated segments (the
// longest-valid-prefix recovery rule), bad headers, segment roll and
// compaction, concurrent access, and shared-stream
// mode (per-stream locks, peer absorption, lease'd compaction). The
// crash battery proper (SIGKILL subprocesses) lives in
// score_store_crash_test.cc.

#include "persist/score_store.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "persist/dir_lock.h"
#include "util/crc32.h"

namespace certa::persist {
namespace {

namespace fs = std::filesystem;

// On-disk layout constants (score_store.cc) — the corruption tests
// need byte positions, not just the API.
constexpr size_t kHeaderSize = 12;
constexpr size_t kRecordSize = 36;

fs::path Scratch(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("certa_score_store_" + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

models::PairKey Key(uint64_t i) {
  return models::PairKey{i * 2654435761u + 1, ~i * 40503u + 7};
}

double ScoreOf(uint64_t i) {
  return 0.001 * static_cast<double>(i % 997) + 1e-9;
}

std::string ActiveSegment(const fs::path& dir) {
  std::string latest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".seg") == 0 &&
        name > latest) {
      latest = name;
    }
  }
  return (dir / latest).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Fills a store with entries i in [0, n) under `scope` and syncs.
void Fill(ScoreStore* store, uint64_t scope, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store->Put(scope, Key(i), ScoreOf(i)));
  }
  ASSERT_TRUE(store->Sync());
}

/// Counts how many of entries [0, n) are present AND correct; any hit
/// with a wrong score fails the test immediately (a corrupted entry
/// served is the one unacceptable outcome).
uint64_t CountIntact(ScoreStore* store, uint64_t scope, uint64_t n) {
  uint64_t intact = 0;
  for (uint64_t i = 0; i < n; ++i) {
    double score = 0.0;
    if (!store->Lookup(scope, Key(i), &score)) continue;
    EXPECT_DOUBLE_EQ(score, ScoreOf(i)) << "entry " << i;
    ++intact;
  }
  return intact;
}

TEST(ScoreStoreTest, RoundtripAcrossReopen) {
  const fs::path dir = Scratch("roundtrip");
  constexpr uint64_t kN = 500;
  {
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    Fill(&store, 42, kN);
    EXPECT_EQ(store.entry_count(), kN);
    store.Close();
  }
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  EXPECT_EQ(store.entry_count(), kN);
  EXPECT_EQ(CountIntact(&store, 42, kN), kN);
  EXPECT_EQ(store.stats().replayed_records, static_cast<long long>(kN));
  EXPECT_EQ(store.stats().dropped_bytes, 0);
  double score = 0.0;
  EXPECT_FALSE(store.Lookup(42, Key(kN + 1), &score));
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, OpenCreatesMissingDirectory) {
  const fs::path dir = Scratch("create") / "nested";
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  EXPECT_TRUE(fs::exists(dir));
  EXPECT_TRUE(store.is_open());
  fs::remove_all(dir.parent_path());
}

TEST(ScoreStoreTest, ScopesAreDisjoint) {
  const fs::path dir = Scratch("scopes");
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  const models::PairKey shared = Key(9);
  ASSERT_TRUE(store.Put(1, shared, 0.25));
  ASSERT_TRUE(store.Put(2, shared, 0.75));
  double score = 0.0;
  ASSERT_TRUE(store.Lookup(1, shared, &score));
  EXPECT_DOUBLE_EQ(score, 0.25);
  ASSERT_TRUE(store.Lookup(2, shared, &score));
  EXPECT_DOUBLE_EQ(score, 0.75);
  EXPECT_FALSE(store.Lookup(3, shared, &score));
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, HashScopeSeparatesModelsAndData) {
  const uint64_t a = HashScope("svm", 111);
  EXPECT_NE(a, HashScope("ditto", 111));  // different matcher
  EXPECT_NE(a, HashScope("svm", 112));    // different fingerprint
  EXPECT_EQ(a, HashScope("svm", 111));    // stable
  // The separator prevents ("ab", ...) / ("a", ...) style collisions
  // from concatenation.
  EXPECT_NE(HashScope("ab", 0), HashScope("a", 0));
}

TEST(ScoreStoreTest, PutDedupesRepeatedKeys) {
  const fs::path dir = Scratch("dedupe");
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(store.Put(1, Key(1), 0.5));
  }
  ASSERT_TRUE(store.Sync());
  EXPECT_EQ(store.stats().appends, 1);
  EXPECT_EQ(fs::file_size(ActiveSegment(dir)), kHeaderSize + kRecordSize);
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, TornTailIsTruncatedNotTrusted) {
  const fs::path dir = Scratch("torn");
  constexpr uint64_t kN = 64;
  {
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    Fill(&store, 7, kN);
    store.Close();
  }
  // A torn write: half a record of garbage at the tail.
  const std::string segment = ActiveSegment(dir);
  std::string bytes = ReadAll(segment);
  bytes.append(kRecordSize / 2, '\x5A');
  WriteAll(segment, bytes);

  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  EXPECT_EQ(CountIntact(&store, 7, kN), kN);
  EXPECT_EQ(store.stats().dropped_bytes,
            static_cast<long long>(kRecordSize / 2));
  EXPECT_EQ(store.stats().corrupt_tails, 1);
  // The open truncated the file back to the valid prefix, so appends
  // land on a clean boundary and survive the next reopen.
  Fill(&store, 7, kN + 8);
  store.Close();
  ScoreStore reopened;
  ASSERT_TRUE(reopened.Open(dir.string()));
  EXPECT_EQ(CountIntact(&reopened, 7, kN + 8), kN + 8);
  EXPECT_EQ(reopened.stats().dropped_bytes, 0);
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, BitFlipFuzzNeverServesCorruptEntries) {
  const fs::path dir = Scratch("bitflip");
  constexpr uint64_t kN = 48;
  {
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    Fill(&store, 3, kN);
    store.Close();
  }
  const std::string segment = ActiveSegment(dir);
  const std::string clean = ReadAll(segment);
  ASSERT_EQ(clean.size(), kHeaderSize + kN * kRecordSize);

  std::mt19937 rng(1234);
  for (int round = 0; round < 200; ++round) {
    const size_t bit =
        kHeaderSize * 8 + rng() % ((clean.size() - kHeaderSize) * 8);
    std::string flipped = clean;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    WriteAll(segment, flipped);

    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    // Prefix rule: everything before the flipped record loads intact,
    // the flipped record and everything after are dropped. CountIntact
    // fails the test if any served score is wrong.
    const uint64_t flipped_record = (bit / 8 - kHeaderSize) / kRecordSize;
    EXPECT_EQ(CountIntact(&store, 3, kN), flipped_record) << "bit " << bit;
    EXPECT_EQ(store.stats().corrupt_tails, 1);
    store.Close();
    WriteAll(segment, clean);  // restore for the next round
  }
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, TruncationAtEveryLengthIsSafe) {
  const fs::path dir = Scratch("truncate");
  constexpr uint64_t kN = 8;
  {
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    Fill(&store, 5, kN);
    store.Close();
  }
  const std::string segment = ActiveSegment(dir);
  const std::string clean = ReadAll(segment);
  for (size_t len = 0; len <= clean.size(); ++len) {
    WriteAll(segment, clean.substr(0, len));
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    const uint64_t expected =
        len < kHeaderSize ? 0 : (len - kHeaderSize) / kRecordSize;
    EXPECT_EQ(CountIntact(&store, 5, kN), expected) << "len " << len;
    store.Close();
  }
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, BadHeaderSegmentIsSkippedEntirely) {
  const fs::path dir = Scratch("badheader");
  constexpr uint64_t kN = 16;
  {
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    Fill(&store, 11, kN);
    store.Close();
  }
  const std::string segment = ActiveSegment(dir);
  std::string bytes = ReadAll(segment);
  bytes[0] ^= 0x20;  // wrong magic: nothing in this file is trusted
  WriteAll(segment, bytes);

  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_EQ(store.stats().bad_headers, 1);
  // Still a usable store: the active segment was rewritten clean.
  Fill(&store, 11, 4);
  store.Close();
  ScoreStore reopened;
  ASSERT_TRUE(reopened.Open(dir.string()));
  EXPECT_EQ(CountIntact(&reopened, 11, 4), 4u);
  EXPECT_EQ(reopened.stats().bad_headers, 0);
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, SegmentsRollAndCompactToOne) {
  const fs::path dir = Scratch("compact");
  constexpr uint64_t kN = 300;
  ScoreStore::Options options;
  options.max_segment_bytes = 1024;  // force frequent rolls
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string(), options));
  Fill(&store, 1, kN);
  EXPECT_GT(store.stats().segments, 3u);
  ASSERT_TRUE(store.Compact());
  EXPECT_EQ(store.stats().segments, 1u);
  EXPECT_EQ(store.stats().compactions, 1);
  EXPECT_EQ(CountIntact(&store, 1, kN), kN);
  // No stale segment or temp files survive.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".seg") << entry.path();
  }
  EXPECT_EQ(files, 1u);
  // The compacted store reopens whole, and the compacted segment
  // accepts appends.
  Fill(&store, 1, kN + 16);
  store.Close();
  ScoreStore reopened;
  ASSERT_TRUE(reopened.Open(dir.string(), options));
  EXPECT_EQ(CountIntact(&reopened, 1, kN + 16), kN + 16);
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, LeftoverTempFilesAreSweptOnOpen) {
  const fs::path dir = Scratch("sweep");
  fs::create_directories(dir);
  WriteAll((dir / "segment-000009.seg.tmp").string(), "half-written junk");
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  EXPECT_FALSE(fs::exists(dir / "segment-000009.seg.tmp"));
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, BindMetricsMirrorsCounters) {
  const fs::path dir = Scratch("metrics");
  obs::MetricsRegistry registry;
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  store.BindMetrics(&registry);
  Fill(&store, 2, 10);
  double score = 0.0;
  EXPECT_TRUE(store.Lookup(2, Key(3), &score));
  EXPECT_FALSE(store.Lookup(2, Key(99), &score));
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("store.appends"), std::string::npos);
  EXPECT_NE(json.find("store.lookups"), std::string::npos);
  EXPECT_NE(json.find("store.hits"), std::string::npos);
  fs::remove_all(dir);
}

TEST(ScoreStoreTest, ConcurrentPutsAndLookupsStayConsistent) {
  const fs::path dir = Scratch("threads");
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * kPerThread + i;
        store.Put(6, Key(id), ScoreOf(id));
        double score = 0.0;
        // Lookups race with writers; a hit must carry the right score.
        if (store.Lookup(6, Key(id / 2), &score)) {
          EXPECT_DOUBLE_EQ(score, ScoreOf(id / 2));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_TRUE(store.Sync());
  EXPECT_EQ(store.entry_count(), kThreads * kPerThread);
  store.Close();
  ScoreStore reopened;
  ASSERT_TRUE(reopened.Open(dir.string()));
  EXPECT_EQ(CountIntact(&reopened, 6, kThreads * kPerThread),
            kThreads * kPerThread);
  fs::remove_all(dir);
}

// -- hand-crafted segment bytes (for forging peer-stream files) --

std::string RawHeader() {
  std::string header("CERTASST", 8);
  const uint32_t version = 1;
  header.append(reinterpret_cast<const char*>(&version), sizeof(version));
  return header;
}

std::string RawRecord(uint64_t scope, const models::PairKey& key,
                      double score) {
  char payload[32];
  std::memcpy(payload, &scope, 8);
  std::memcpy(payload + 8, &key.lo, 8);
  std::memcpy(payload + 16, &key.hi, 8);
  std::memcpy(payload + 24, &score, 8);
  const uint32_t crc = util::Crc32(payload, sizeof(payload));
  std::string out(payload, sizeof(payload));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return out;
}

// -- satellite: reopen hygiene --

TEST(ScoreStoreTest, FailedOpenSetsErrorAndReopenStartsClean) {
  const fs::path good = Scratch("reopen_good");
  const fs::path locked = Scratch("reopen_locked");

  ScoreStore store;
  // Build up non-trivial counters first, so leakage would be visible.
  ASSERT_TRUE(store.Open(good.string()));
  Fill(&store, 4, 5);
  EXPECT_EQ(store.stats().appends, 5);
  store.Close();

  // Failure path 1: directory held by another "process".
  DirLock holder;
  std::string error;
  ASSERT_TRUE(holder.Acquire(locked.string(), &error));
  ScoreStore::Options exclusive;
  exclusive.exclusive_lock = true;
  EXPECT_FALSE(store.Open(locked.string(), exclusive));
  EXPECT_FALSE(store.is_open());
  EXPECT_FALSE(store.open_error().empty())
      << "a failed Open must say why";
  EXPECT_NE(store.open_error().find("locked"), std::string::npos)
      << store.open_error();

  // Failure path 2: the store path is a plain file.
  const fs::path file_path = Scratch("reopen_file");
  fs::create_directories(file_path.parent_path());
  WriteAll(file_path.string(), "not a directory");
  EXPECT_FALSE(store.Open(file_path.string()));
  EXPECT_FALSE(store.open_error().empty());

  // A subsequent successful Open on the SAME object starts clean:
  // no stale error text, no stale counters from the earlier namespace
  // or the failed attempts.
  holder.Release();
  ASSERT_TRUE(store.Open(locked.string(), exclusive));
  EXPECT_TRUE(store.is_open());
  EXPECT_TRUE(store.open_error().empty());
  EXPECT_EQ(store.stats().appends, 0);
  EXPECT_EQ(store.stats().lookups, 0);
  EXPECT_EQ(store.entry_count(), 0u);
  Fill(&store, 4, 3);
  EXPECT_EQ(store.stats().appends, 3);
  store.Close();

  fs::remove_all(good);
  fs::remove_all(locked);
  fs::remove(file_path);
}

TEST(ScoreStoreTest, FailedExclusiveOpenHoldsNoLock) {
  const fs::path dir = Scratch("faillock");
  DirLock holder;
  std::string error;
  ASSERT_TRUE(holder.Acquire(dir.string(), &error));
  {
    ScoreStore store;
    ScoreStore::Options exclusive;
    exclusive.exclusive_lock = true;
    EXPECT_FALSE(store.Open(dir.string(), exclusive));
    // The failed store must not die holding the lock: destruction (or
    // reuse) of the object must leave the directory acquirable.
  }
  holder.Release();
  DirLock probe;
  EXPECT_TRUE(probe.Acquire(dir.string(), &error))
      << "failed Open leaked a lock: " << error;
  probe.Release();
  fs::remove_all(dir);
}

// -- shared-stream mode --

TEST(ScoreStoreSharedTest, TwoStreamsShareOneDirectory) {
  const fs::path dir = Scratch("shared_two");
  constexpr uint64_t kA = 100, kB = 60;

  ScoreStore::Options opt_a;
  opt_a.stream_slot = 0;
  opt_a.exclusive_lock = true;
  ScoreStore::Options opt_b;
  opt_b.stream_slot = 1;
  opt_b.exclusive_lock = true;

  ScoreStore a;
  ScoreStore b;
  // Both exclusive locks coexist: exclusivity is per stream, not per
  // directory.
  ASSERT_TRUE(a.Open(dir.string(), opt_a)) << a.open_error();
  ASSERT_TRUE(b.Open(dir.string(), opt_b)) << b.open_error();

  Fill(&a, 1, kA);
  ASSERT_TRUE(b.RefreshPeers());
  EXPECT_EQ(b.stats().peer_records, static_cast<long long>(kA));
  EXPECT_EQ(b.stats().peer_refreshes, 1);
  EXPECT_EQ(CountIntact(&b, 1, kA), kA);
  EXPECT_EQ(b.stats().peer_hits, static_cast<long long>(kA));

  // Peer provenance is reported per lookup.
  double score = 0.0;
  bool from_peer = false;
  ASSERT_TRUE(b.Lookup(1, Key(0), &score, &from_peer));
  EXPECT_TRUE(from_peer);

  // B pays for its own range; A absorbs it symmetrically.
  for (uint64_t i = kA; i < kA + kB; ++i) {
    ASSERT_TRUE(b.Put(1, Key(i), ScoreOf(i)));
  }
  ASSERT_TRUE(b.Sync());
  ASSERT_TRUE(a.RefreshPeers());
  EXPECT_EQ(CountIntact(&a, 1, kA + kB), kA + kB);
  ASSERT_TRUE(a.Lookup(1, Key(0), &score, &from_peer));
  EXPECT_FALSE(from_peer) << "own entry misreported as peer-paid";
  ASSERT_TRUE(a.Lookup(1, Key(kA), &score, &from_peer));
  EXPECT_TRUE(from_peer);

  // Segment accounting is per stream: each writer reports only its own
  // file chain.
  EXPECT_EQ(a.stats().segments, 1u);
  EXPECT_EQ(b.stats().segments, 1u);

  // A refresh with nothing new absorbs nothing and counts no refresh.
  const long long refreshes = a.stats().peer_refreshes;
  ASSERT_TRUE(a.RefreshPeers());
  EXPECT_EQ(a.stats().peer_refreshes, refreshes);

  a.Close();
  b.Close();
  // A fresh slot-2 reader opening the shared dir sees both streams.
  ScoreStore::Options opt_c;
  opt_c.stream_slot = 2;
  ScoreStore c;
  ASSERT_TRUE(c.Open(dir.string(), opt_c));
  EXPECT_EQ(CountIntact(&c, 1, kA + kB), kA + kB);
  EXPECT_EQ(c.stats().peer_records, static_cast<long long>(kA + kB));
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, SameStreamSlotIsExclusive) {
  const fs::path dir = Scratch("shared_excl");
  ScoreStore::Options options;
  options.stream_slot = 3;
  options.exclusive_lock = true;
  ScoreStore first;
  ASSERT_TRUE(first.Open(dir.string(), options));
  ScoreStore second;
  EXPECT_FALSE(second.Open(dir.string(), options))
      << "two writers must never own one stream";
  EXPECT_FALSE(second.open_error().empty());
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, PeerTornTailIsNeverInterpretedOrModified) {
  const fs::path dir = Scratch("shared_torn");
  ScoreStore::Options options;
  options.stream_slot = 0;
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string(), options));

  // Forge a sibling stream file: two whole records, then half a third
  // — exactly what a SIGKILL mid-append (or an append still in flight)
  // leaves behind.
  const std::string peer_path = (dir / "segment-w7-000001.seg").string();
  const std::string full_third = RawRecord(9, Key(2), ScoreOf(2));
  std::string bytes = RawHeader();
  bytes += RawRecord(9, Key(0), ScoreOf(0));
  bytes += RawRecord(9, Key(1), ScoreOf(1));
  bytes += full_third.substr(0, full_third.size() / 2);
  WriteAll(peer_path, bytes);

  ASSERT_TRUE(store.RefreshPeers());
  EXPECT_EQ(store.stats().peer_records, 2);
  EXPECT_EQ(CountIntact(&store, 9, 2), 2u);
  double score = 0.0;
  EXPECT_FALSE(store.Lookup(9, Key(2), &score))
      << "a torn peer record must not be served";
  // Unlike own-segment recovery, the peer file is NOT truncated or
  // counted as corruption — the tail may simply be an append its owner
  // has not finished yet.
  EXPECT_EQ(ReadAll(peer_path), bytes) << "peer file bytes were modified";
  EXPECT_EQ(store.stats().dropped_bytes, 0);
  EXPECT_EQ(store.stats().corrupt_tails, 0);

  // The owner finishes the append: the completed record is absorbed
  // from exactly where the last refresh stopped.
  bytes.resize(bytes.size() - full_third.size() / 2);
  bytes += full_third;
  WriteAll(peer_path, bytes);
  ASSERT_TRUE(store.RefreshPeers());
  EXPECT_EQ(store.stats().peer_records, 3);
  ASSERT_TRUE(store.Lookup(9, Key(2), &score));
  EXPECT_DOUBLE_EQ(score, ScoreOf(2));
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, BadHeaderPeerFileIsIgnoredForever) {
  const fs::path dir = Scratch("shared_badpeer");
  ScoreStore::Options options;
  options.stream_slot = 0;
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string(), options));
  std::string bytes = RawHeader();
  bytes[0] ^= 0x20;  // wrong magic
  bytes += RawRecord(5, Key(0), ScoreOf(0));
  WriteAll((dir / "segment-w4-000001.seg").string(), bytes);
  ASSERT_TRUE(store.RefreshPeers());
  EXPECT_EQ(store.stats().peer_records, 0);
  double score = 0.0;
  EXPECT_FALSE(store.Lookup(5, Key(0), &score));
  // Still ignored on later refreshes (no re-reads, no absorption).
  ASSERT_TRUE(store.RefreshPeers());
  EXPECT_EQ(store.stats().peer_records, 0);
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, CompactRewritesOwnEntriesOnlyAndHonorsLease) {
  const fs::path dir = Scratch("shared_compact");
  constexpr uint64_t kOwn = 50, kPeer = 30;
  ScoreStore::Options opt_a;
  opt_a.stream_slot = 0;
  ScoreStore::Options opt_b;
  opt_b.stream_slot = 1;

  ScoreStore a;
  ScoreStore b;
  ASSERT_TRUE(a.Open(dir.string(), opt_a));
  ASSERT_TRUE(b.Open(dir.string(), opt_b));
  Fill(&a, 1, kOwn);
  for (uint64_t i = kOwn; i < kOwn + kPeer; ++i) {
    ASSERT_TRUE(b.Put(1, Key(i), ScoreOf(i)));
  }
  ASSERT_TRUE(b.Sync());
  ASSERT_TRUE(a.RefreshPeers());
  ASSERT_EQ(CountIntact(&a, 1, kOwn + kPeer), kOwn + kPeer);

  // A busy lease skips the compaction silently (a sibling is already
  // churning the directory); nothing changes.
  {
    DirLock lease;
    std::string error;
    ASSERT_TRUE(lease.AcquireFile(dir.string(),
                                  ScoreStore::CompactionLeaseFileName(),
                                  &error));
    ASSERT_TRUE(a.Compact());
    EXPECT_EQ(a.stats().compactions, 0);
  }

  // With the lease free, A compacts: its rewritten segment holds ONLY
  // the entries A paid for — sibling-paid entries stay durable in the
  // sibling's stream, where their owner compacts them.
  ASSERT_TRUE(a.Compact());
  EXPECT_EQ(a.stats().compactions, 1);
  EXPECT_EQ(a.stats().segments, 1u);
  // Still serves everything from memory...
  EXPECT_EQ(CountIntact(&a, 1, kOwn + kPeer), kOwn + kPeer);
  a.Close();
  b.Close();
  // ...and a reopen reloads own entries from the compacted segment and
  // peer entries from the sibling stream: nothing was lost.
  ScoreStore reopened;
  ASSERT_TRUE(reopened.Open(dir.string(), opt_a));
  EXPECT_EQ(CountIntact(&reopened, 1, kOwn + kPeer), kOwn + kPeer);
  EXPECT_EQ(reopened.stats().replayed_records, static_cast<long long>(kOwn));
  EXPECT_EQ(reopened.stats().peer_records, static_cast<long long>(kPeer));
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, VanishedPeerSegmentKeepsAbsorbedEntries) {
  const fs::path dir = Scratch("shared_vanish");
  constexpr uint64_t kPeer = 40;
  ScoreStore::Options opt_a;
  opt_a.stream_slot = 0;
  ScoreStore::Options opt_b;
  opt_b.stream_slot = 1;
  opt_b.max_segment_bytes = 512;  // force B onto several segments

  ScoreStore a;
  ScoreStore b;
  ASSERT_TRUE(a.Open(dir.string(), opt_a));
  ASSERT_TRUE(b.Open(dir.string(), opt_b));
  for (uint64_t i = 0; i < kPeer; ++i) {
    ASSERT_TRUE(b.Put(2, Key(i), ScoreOf(i)));
  }
  ASSERT_TRUE(b.Sync());
  ASSERT_TRUE(a.RefreshPeers());
  ASSERT_EQ(CountIntact(&a, 2, kPeer), kPeer);

  // B compacts: its old segment names vanish and one new name appears.
  ASSERT_TRUE(b.Compact());
  ASSERT_TRUE(a.RefreshPeers());
  // Absorbed entries survive the vanish, and re-absorbing B's compacted
  // segment deduplicates (no double counting beyond the file overlap).
  EXPECT_EQ(CountIntact(&a, 2, kPeer), kPeer);
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, ReopenTruncatesOwnTornTailButNeverPeerFiles) {
  const fs::path dir = Scratch("shared_owntail");
  constexpr uint64_t kOwn = 20;
  ScoreStore::Options options;
  options.stream_slot = 0;
  {
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string(), options));
    Fill(&store, 6, kOwn);
    store.Close();
  }
  // Tear this stream's own tail and forge a torn sibling alongside.
  const std::string own_path = (dir / "segment-w0-000001.seg").string();
  std::string own_bytes = ReadAll(own_path);
  ASSERT_EQ(own_bytes.size(), kHeaderSize + kOwn * kRecordSize);
  own_bytes.append(kRecordSize / 2, '\x5A');
  WriteAll(own_path, own_bytes);
  const std::string peer_path = (dir / "segment-w1-000001.seg").string();
  std::string peer_bytes = RawHeader();
  peer_bytes += RawRecord(6, Key(kOwn), ScoreOf(kOwn));
  peer_bytes.append(kRecordSize / 2, '\x33');  // torn peer tail
  WriteAll(peer_path, peer_bytes);

  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string(), options));
  // Own torn tail: truncated and accounted, exactly as in single-writer
  // mode.
  EXPECT_EQ(store.stats().dropped_bytes,
            static_cast<long long>(kRecordSize / 2));
  EXPECT_EQ(store.stats().corrupt_tails, 1);
  EXPECT_EQ(fs::file_size(own_path), kHeaderSize + kOwn * kRecordSize);
  // Peer torn tail: valid prefix absorbed, file untouched.
  EXPECT_EQ(store.stats().peer_records, 1);
  EXPECT_EQ(ReadAll(peer_path), peer_bytes);
  EXPECT_EQ(CountIntact(&store, 6, kOwn + 1), kOwn + 1);
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, MixedLegacyAndStreamSegments) {
  const fs::path dir = Scratch("shared_mixed");
  constexpr uint64_t kLegacy = 25, kStream = 15;
  // A legacy single-writer store populates the directory first.
  {
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string()));
    Fill(&store, 8, kLegacy);
    store.Close();
  }
  // A shared-mode writer joining the directory treats the legacy
  // segments as a peer stream: absorbed read-only, never rewritten.
  {
    ScoreStore::Options options;
    options.stream_slot = 0;
    ScoreStore store;
    ASSERT_TRUE(store.Open(dir.string(), options));
    EXPECT_EQ(store.stats().peer_records, static_cast<long long>(kLegacy));
    EXPECT_EQ(store.stats().replayed_records, 0);
    for (uint64_t i = kLegacy; i < kLegacy + kStream; ++i) {
      ASSERT_TRUE(store.Put(8, Key(i), ScoreOf(i)));
    }
    ASSERT_TRUE(store.Sync());
    EXPECT_EQ(CountIntact(&store, 8, kLegacy + kStream), kLegacy + kStream);
    store.Close();
  }
  EXPECT_TRUE(fs::exists(dir / "segment-000001.seg"))
      << "legacy segment must survive a shared-mode writer";
  // And the reverse: a single-writer open of the ex-fleet directory
  // absorbs the stream-named segments as peers.
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string()));
  EXPECT_EQ(store.stats().replayed_records, static_cast<long long>(kLegacy));
  EXPECT_EQ(store.stats().peer_records, static_cast<long long>(kStream));
  EXPECT_EQ(CountIntact(&store, 8, kLegacy + kStream), kLegacy + kStream);
  // RefreshPeers outside shared mode is a harmless no-op.
  EXPECT_TRUE(store.RefreshPeers());
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, OpenSweepsOnlyOwnStreamTemps) {
  const fs::path dir = Scratch("shared_sweep");
  fs::create_directories(dir);
  // A sibling's in-flight compaction temp must survive this writer's
  // Open — unlinking it mid-rename would lose the sibling's rewrite.
  WriteAll((dir / "segment-w1-000005.seg.tmp").string(), "sibling temp");
  WriteAll((dir / "segment-w0-000003.seg.tmp").string(), "own stale temp");
  ScoreStore::Options options;
  options.stream_slot = 0;
  ScoreStore store;
  ASSERT_TRUE(store.Open(dir.string(), options));
  EXPECT_TRUE(fs::exists(dir / "segment-w1-000005.seg.tmp"));
  EXPECT_FALSE(fs::exists(dir / "segment-w0-000003.seg.tmp"));
  fs::remove_all(dir);
}

TEST(ScoreStoreSharedTest, PeerMetricsAreMirrored) {
  const fs::path dir = Scratch("shared_metrics");
  obs::MetricsRegistry registry;
  // Bind B's metrics before the peer writes land: counters mirror
  // events after binding (absorption at Open time predates any
  // registry and lands only in stats()).
  ScoreStore::Options opt_b;
  opt_b.stream_slot = 1;
  ScoreStore b;
  ASSERT_TRUE(b.Open(dir.string(), opt_b));
  b.BindMetrics(&registry);
  ScoreStore::Options opt_a;
  opt_a.stream_slot = 0;
  ScoreStore a;
  ASSERT_TRUE(a.Open(dir.string(), opt_a));
  Fill(&a, 3, 10);
  ASSERT_TRUE(b.RefreshPeers());
  double score = 0.0;
  ASSERT_TRUE(b.Lookup(3, Key(0), &score));
  EXPECT_EQ(registry.counter("store.peer_records")->value(), 10);
  EXPECT_EQ(registry.counter("store.peer_hits")->value(), 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace certa::persist
