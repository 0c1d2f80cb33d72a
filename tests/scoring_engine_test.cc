// Tests for the batched + cached + pooled scoring layer: ThreadPool
// scheduling guarantees, PredictionCache accounting, ScoreBatch ≡ Score
// for every trained model kind, and bit-identical CertaExplainer output
// at any thread count / cache setting.

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "explain/perturbation.h"
#include "models/resilience.h"
#include "models/score_memo.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace certa {
namespace {

using models::HashPair;
using models::PairKey;
using models::PredictionCache;
using models::RecordPair;
using models::ScoringEngine;
using testing::FakeMatcher;
using testing::MakeRecord;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, SizeClampsToAtLeastOne) {
  util::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
  EXPECT_GE(util::ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyBatches) {
  util::ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "fn called for count 0"; });
  std::atomic<int> total{0};
  pool.ParallelFor(1, [&](size_t) { ++total; });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPoolTest, SequentialBatchesReuseWorkers) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, ChunkedRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kCount = 1003;  // not a multiple of any grain below
  for (size_t grain : {size_t{1}, size_t{7}, size_t{32}, size_t{5000}}) {
    std::vector<std::atomic<int>> hits(kCount);
    pool.ParallelFor(kCount, grain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnCountAndGrain) {
  // The partition into [begin, end) ranges must be the fixed grid
  // {0, g, 2g, ...} regardless of how many workers raced for chunks —
  // that is what keeps index-addressed outputs (and everything built
  // on them) deterministic at any thread count.
  constexpr size_t kCount = 257;
  constexpr size_t kGrain = 16;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    std::mutex mutex;
    std::vector<std::pair<size_t, size_t>> ranges;
    pool.ParallelFor(kCount, kGrain, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mutex);
      ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    ASSERT_EQ(ranges.size(), (kCount + kGrain - 1) / kGrain);
    for (size_t c = 0; c < ranges.size(); ++c) {
      EXPECT_EQ(ranges[c].first, c * kGrain);
      EXPECT_EQ(ranges[c].second, std::min(kCount, (c + 1) * kGrain));
    }
  }
}

TEST(ThreadPoolTest, ChunkedGrainZeroAndEmptyAreSafe) {
  util::ThreadPool pool(2);
  pool.ParallelFor(0, 8, [](size_t, size_t) {
    FAIL() << "range_fn called for count 0";
  });
  std::atomic<int> total{0};
  pool.ParallelFor(5, 0, [&](size_t begin, size_t end) {  // grain clamps to 1
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 5);
}

// ---------------------------------------------------------------------------
// PairKey / PredictionCache

TEST(PairKeyTest, ContentDeterminesKey) {
  data::Record u = MakeRecord(1, {"alpha", "beta"});
  data::Record v = MakeRecord(2, {"gamma", "delta"});
  data::Record u_copy = MakeRecord(99, {"alpha", "beta"});  // ids ignored
  data::Record v_copy = MakeRecord(98, {"gamma", "delta"});
  EXPECT_EQ(HashPair(u, v), HashPair(u_copy, v_copy));
  EXPECT_FALSE(HashPair(u, v) == HashPair(v, u));  // sides matter
  data::Record w = MakeRecord(3, {"alpha", "betb"});
  EXPECT_FALSE(HashPair(u, v) == HashPair(w, v));
}

TEST(PairKeyTest, ValueBoundariesAreFramed) {
  // ("ab", "c") vs ("a", "bc") must hash differently.
  data::Record u1 = MakeRecord(0, {"ab", "c"});
  data::Record u2 = MakeRecord(0, {"a", "bc"});
  data::Record v = MakeRecord(1, {"x"});
  EXPECT_FALSE(HashPair(u1, v) == HashPair(u2, v));
}

TEST(PredictionCacheTest, CountsHitsAndMisses) {
  PredictionCache cache(4, 64);
  PairKey key{1, 2};
  double score = -1.0;
  EXPECT_FALSE(cache.Lookup(key, &score));
  cache.Insert(key, 0.75);
  EXPECT_TRUE(cache.Lookup(key, &score));
  EXPECT_DOUBLE_EQ(score, 0.75);
  PredictionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(PredictionCacheTest, FullShardIsClearedAndCounted) {
  PredictionCache cache(1, 4);  // one shard, four entries max
  for (uint64_t i = 0; i < 9; ++i) {
    cache.Insert(PairKey{i, i}, static_cast<double>(i));
  }
  PredictionCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(cache.entry_count(), 4u);
}

TEST(PredictionCacheTest, ConcurrentInsertLookupIsConsistent) {
  PredictionCache cache(8, 1 << 12);
  util::ThreadPool pool(4);
  constexpr size_t kKeys = 512;
  // Insert every key from one thread each, then verify from all.
  pool.ParallelFor(kKeys, [&](size_t i) {
    cache.Insert(PairKey{i, i * 31}, static_cast<double>(i));
  });
  std::atomic<int> wrong{0};
  pool.ParallelFor(kKeys, [&](size_t i) {
    double score = -1.0;
    if (!cache.Lookup(PairKey{i, i * 31}, &score) ||
        score != static_cast<double>(i)) {
      ++wrong;
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.stats().hits, static_cast<long long>(kKeys));
}

TEST(PredictionCacheTest, ShardingSpreadsKeysSharingTheHighWord) {
  // Regression: shard selection used `key.hi % shards`, which piled
  // every key sharing `hi` (and, with power-of-two shard counts, every
  // key with the same low bits of `hi`) into one shard. 200 keys that
  // differ only in `lo` must now spread across 4 shards of 64 — no
  // shard fills, so nothing is evicted. Under the old indexing they all
  // landed in one shard and forced repeated wholesale clears.
  PredictionCache cache(4, 64);
  constexpr uint64_t kSharedHi = 42;
  for (uint64_t lo = 0; lo < 200; ++lo) {
    cache.Insert(PairKey{lo, kSharedHi}, static_cast<double>(lo));
  }
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.entry_count(), 200u);
  double score = -1.0;
  EXPECT_TRUE(cache.Lookup(PairKey{7, kSharedHi}, &score));
  EXPECT_DOUBLE_EQ(score, 7.0);
}

TEST(PredictionCacheTest, ShardingSpreadsWithNonPowerOfTwoShardCount) {
  // Same property with 3 shards (the modulus path, not a mask).
  PredictionCache cache(3, 64);
  for (uint64_t lo = 0; lo < 150; ++lo) {
    cache.Insert(PairKey{lo, 0xDEADBEEFULL}, 0.5);
  }
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.entry_count(), 150u);
}

TEST(PredictionCacheTest, OverflowingOneShardDoesNotEvictOthers) {
  // Regression guard for the eviction policy: a shard that fills past
  // its budget clears ITSELF only. Keys are pre-classified by the same
  // hash the cache shards with, so the flood provably targets shard 0.
  constexpr size_t kShards = 4;
  constexpr size_t kPerShard = 8;
  PredictionCache cache(kShards, kPerShard);
  models::PairKeyHasher hasher;

  // A few residents in every non-flooded shard — at most 3 per shard,
  // so no shard crosses its own budget during setup. (The key words
  // must have independent parities: the shard hash is
  // lo ^ hi * odd-constant, so keys built as {i*odd, i*odd} all share
  // low bits and pile into one shard.)
  std::vector<PairKey> residents;
  std::vector<int> per_shard(kShards, 0);
  for (uint64_t i = 0; residents.size() < 3 * (kShards - 1) && i < 4096;
       ++i) {
    PairKey key{i * 0xBF58476D1CE4E5B9ULL,
                (i >> 1) * 0x94D049BB133111EBULL + i};
    const size_t shard = hasher(key) % kShards;
    if (shard == 0 || per_shard[shard] >= 3) continue;
    ++per_shard[shard];
    residents.push_back(key);
    cache.Insert(key, static_cast<double>(i));
  }
  ASSERT_EQ(residents.size(), 3 * (kShards - 1));
  ASSERT_EQ(cache.stats().evictions, 0);

  // Flood shard 0 far past its budget: multiple wholesale clears.
  long long flooded = 0;
  for (uint64_t i = 0; flooded < 10 * static_cast<long long>(kPerShard) &&
                       i < 1 << 16;
       ++i) {
    PairKey key{i * 7919, i};
    if (hasher(key) % kShards != 0) continue;
    cache.Insert(key, 1.0);
    ++flooded;
  }
  ASSERT_EQ(flooded, 10 * static_cast<long long>(kPerShard));
  EXPECT_GT(cache.stats().evictions, 0);

  // Every other-shard resident survived the flood, score intact.
  for (size_t r = 0; r < residents.size(); ++r) {
    double score = -1.0;
    EXPECT_TRUE(cache.Lookup(residents[r], &score)) << "resident " << r;
  }
  // Counter consistency: everything ever inserted is either resident
  // now or accounted for by the eviction counter.
  EXPECT_EQ(static_cast<long long>(cache.entry_count()) +
                cache.stats().evictions,
            static_cast<long long>(residents.size()) + flooded);
}

// ---------------------------------------------------------------------------
// ScoringEngine

TEST(ScoringEngineTest, ScoreMatchesBaseAndCaches) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return u.values[0] == v.values[0] ? 0.9 : 0.1;
  });
  ScoringEngine engine(&base);
  data::Record u = MakeRecord(0, {"same"});
  data::Record v = MakeRecord(1, {"same"});
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.9);
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.9);
  EXPECT_EQ(base.calls(), 1);  // second call served from cache
  PredictionCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ScoringEngineTest, DisabledCacheAlwaysCallsBase) {
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.4;
  });
  ScoringEngine::Options options;
  options.enable_cache = false;
  ScoringEngine engine(&base, options);
  data::Record u = MakeRecord(0, {"a"});
  data::Record v = MakeRecord(1, {"b"});
  engine.Score(u, v);
  engine.Score(u, v);
  EXPECT_EQ(base.calls(), 2);
  PredictionCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

// ---------------------------------------------------------------------------
// Cross-job store read-through hooks (the persist::ScoreStore side is
// tested in score_store_test.cc; here a plain map stands in, which
// pins the engine-side contract independent of the store format).

/// Map-backed store double wired into engine options.
struct MapStore {
  std::unordered_map<PairKey, double, models::PairKeyHasher> entries;
  int probes = 0;
  int writes = 0;

  void Wire(ScoringEngine::Options* options) {
    options->store_probe = [this](const PairKey& key, double* score) {
      ++probes;
      auto it = entries.find(key);
      if (it == entries.end()) return false;
      *score = it->second;
      return true;
    };
    options->store_write = [this](const PairKey& key, double score) {
      ++writes;
      entries.emplace(key, score);
    };
  }
};

TEST(ScoringEngineTest, StoreProbeServesMissWithoutBaseCall) {
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.6;
  });
  data::Record u = MakeRecord(0, {"left"});
  data::Record v = MakeRecord(1, {"right"});
  MapStore store;
  store.entries[HashPair(u, v)] = 0.6;
  ScoringEngine::Options options;
  store.Wire(&options);
  ScoringEngine engine(&base, options);
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.6);
  EXPECT_EQ(base.calls(), 0);  // served by the store, not the model
  PredictionCache::Stats stats = engine.cache_stats();
  // A store-served probe still counts the cache miss it intercepted —
  // hits/misses stay identical with the store detached — and the
  // distinct store_hits counter is the only trace.
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.store_hits, 1);
  // The served score was inserted: the next probe is a plain cache
  // hit, no second store probe.
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.6);
  EXPECT_EQ(store.probes, 1);
  EXPECT_EQ(engine.cache_stats().store_hits, 1);
  EXPECT_EQ(engine.cache_stats().hits, 1);
}

TEST(ScoringEngineTest, StoreWriteFiresForFreshComputesOnly) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return u.values[0] == v.values[0] ? 1.0 : 0.0;
  });
  MapStore store;
  ScoringEngine::Options options;
  store.Wire(&options);
  ScoringEngine engine(&base, options);
  data::Record a = MakeRecord(0, {"a"});
  data::Record b = MakeRecord(1, {"b"});
  data::Record c = MakeRecord(2, {"c"});
  std::vector<RecordPair> pairs = {{&a, &b}, {&a, &b}, {&a, &c}};
  engine.ScoreBatch(pairs);
  EXPECT_EQ(store.writes, 2);  // one per unique computed pair
  // Cache hits and store-served probes never re-write.
  engine.ScoreBatch(pairs);
  EXPECT_EQ(store.writes, 2);
  ScoringEngine warm(&base, options);  // fresh cache, warm store
  base.reset_calls();
  warm.ScoreBatch(pairs);
  EXPECT_EQ(base.calls(), 0);
  EXPECT_EQ(store.writes, 2);
  EXPECT_EQ(warm.cache_stats().store_hits, 2);
}

TEST(ScoringEngineTest, AccountingIdenticalWithStoreAttached) {
  auto score_fn = [](const data::Record& u, const data::Record& v) {
    return 0.1 * static_cast<double>(u.values[0].size() + v.values[0].size());
  };
  std::vector<data::Record> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back(MakeRecord(i, {std::string(1 + i % 5, 'x') +
                                     std::to_string(i)}));
  }
  std::vector<RecordPair> pairs;
  for (int i = 0; i + 1 < 12; ++i) {
    pairs.push_back({&records[i], &records[i + 1]});
    pairs.push_back({&records[0], &records[i]});
  }
  // Detached reference.
  FakeMatcher base_a(score_fn);
  ScoringEngine plain(&base_a);
  const std::vector<double> expected = plain.ScoreBatch(pairs);
  const PredictionCache::Stats reference = plain.cache_stats();
  // Cold store: same scores, same hit/miss/eviction stream.
  FakeMatcher base_b(score_fn);
  MapStore store;
  ScoringEngine::Options options;
  store.Wire(&options);
  ScoringEngine cold(&base_b, options);
  EXPECT_EQ(cold.ScoreBatch(pairs), expected);
  PredictionCache::Stats cold_stats = cold.cache_stats();
  EXPECT_EQ(cold_stats.hits, reference.hits);
  EXPECT_EQ(cold_stats.misses, reference.misses);
  EXPECT_EQ(cold_stats.evictions, reference.evictions);
  EXPECT_EQ(cold_stats.store_hits, 0);
  // Warm store: zero base calls, still the same counter stream.
  FakeMatcher base_c(score_fn);
  ScoringEngine warm(&base_c, options);
  EXPECT_EQ(warm.ScoreBatch(pairs), expected);
  PredictionCache::Stats warm_stats = warm.cache_stats();
  EXPECT_EQ(base_c.calls(), 0);
  EXPECT_EQ(warm_stats.hits, reference.hits);
  EXPECT_EQ(warm_stats.misses, reference.misses);
  EXPECT_EQ(warm_stats.evictions, reference.evictions);
  EXPECT_EQ(warm_stats.store_hits, reference.misses);
}

TEST(ScoringEngineTest, ObserverStaysSilentForStoreServedScores) {
  // The observer feeds the write-ahead journal; a store-served score
  // was never computed in this run, so journaling it would double-pay
  // on replay. Only fresh computes may fire it.
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.5;
  });
  data::Record u = MakeRecord(0, {"u"});
  data::Record v = MakeRecord(1, {"v"});
  data::Record w = MakeRecord(2, {"w"});
  MapStore store;
  store.entries[HashPair(u, v)] = 0.5;
  ScoringEngine::Options options;
  store.Wire(&options);
  std::vector<PairKey> observed;
  options.observer = [&observed](const PairKey& key, double) {
    observed.push_back(key);
  };
  ScoringEngine engine(&base, options);
  std::vector<RecordPair> pairs = {{&u, &v}, {&u, &w}};
  engine.ScoreBatch(pairs);
  ASSERT_EQ(observed.size(), 1u);           // only the fresh {u, w}
  EXPECT_EQ(observed[0], HashPair(u, w));
  EXPECT_EQ(engine.cache_stats().store_hits, 1);
}

TEST(ScoringEngineTest, StoreHitsExportedToMetricsRegistry) {
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.3;
  });
  data::Record u = MakeRecord(0, {"u"});
  data::Record v = MakeRecord(1, {"v"});
  MapStore store;
  store.entries[HashPair(u, v)] = 0.3;
  obs::MetricsRegistry registry;
  ScoringEngine::Options options;
  store.Wire(&options);
  options.metrics = &registry;
  ScoringEngine engine(&base, options);
  engine.Score(u, v);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("scoring.cache.store_hits"), std::string::npos)
      << json;
  // Regression guard: the registry value mirrors the engine's own
  // counter (1 store-served probe).
  EXPECT_EQ(engine.cache_stats().store_hits, 1);
}

TEST(ScoringEngineTest, BatchDedupesIdenticalPairs) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return u.values[0] == v.values[0] ? 1.0 : 0.0;
  });
  ScoringEngine engine(&base);
  data::Record a = MakeRecord(0, {"a"});
  data::Record b = MakeRecord(1, {"b"});
  data::Record a2 = MakeRecord(2, {"a"});  // same content as a
  std::vector<RecordPair> pairs = {
      {&a, &b}, {&a, &b}, {&a2, &b}, {&b, &a}, {&a, &a2}};
  std::vector<double> scores = engine.ScoreBatch(pairs);
  ASSERT_EQ(scores.size(), pairs.size());
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);  // deduped with slot 0 by content
  EXPECT_DOUBLE_EQ(scores[3], 0.0);
  EXPECT_DOUBLE_EQ(scores[4], 1.0);
  EXPECT_EQ(base.calls(), 3);  // {a,b}, {b,a}, {a,a}
  // A second batch over the same pairs is served fully from cache.
  base.reset_calls();
  std::vector<double> again = engine.ScoreBatch(pairs);
  EXPECT_EQ(base.calls(), 0);
  EXPECT_EQ(again, scores);
}

TEST(ScoringEngineTest, PooledBatchMatchesSerial) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return (u.values[0].size() * 7 + v.values[0].size()) / 100.0;
  });
  util::ThreadPool pool(4);
  ScoringEngine::Options pooled_options;
  pooled_options.pool = &pool;
  pooled_options.enable_cache = false;
  ScoringEngine pooled(&base, pooled_options);
  ScoringEngine serial(&base);

  std::vector<data::Record> lefts;
  std::vector<data::Record> rights;
  for (int i = 0; i < 64; ++i) {
    lefts.push_back(MakeRecord(i, {std::string(i % 11, 'x')}));
    rights.push_back(MakeRecord(i, {std::string(i % 7, 'y')}));
  }
  std::vector<RecordPair> pairs;
  for (int i = 0; i < 64; ++i) pairs.push_back({&lefts[i], &rights[i]});

  EXPECT_EQ(pooled.ScoreBatch(pairs), serial.ScoreBatch(pairs));
}

TEST(ScoringEngineTest, PooledTryScoreBatchIsolatesFailuresLikeSerial) {
  // The fan-out's isolate path on pool workers: a 32-pair chunk whose
  // batched base call throws is re-scored pair by pair on its worker,
  // and the outcome and cache accounting match the unpooled engine's.
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    const int left = std::stoi(u.values[0]);
    if (left % 9 == 4) throw models::TransientError("flaky pair");
    return (left * 7 + static_cast<int>(v.values[0].size())) / 1000.0;
  });
  std::vector<data::Record> lefts;
  std::vector<data::Record> rights;
  for (int i = 0; i < 128; ++i) {
    lefts.push_back(MakeRecord(i, {std::to_string(i)}));
    rights.push_back(MakeRecord(i, {std::string(1 + i % 13, 'r')}));
  }
  std::vector<RecordPair> pairs;
  for (int i = 0; i < 128; ++i) pairs.push_back({&lefts[i], &rights[i]});
  for (int i = 0; i < 8; ++i) pairs.push_back({&lefts[i], &rights[i]});

  ScoringEngine serial(&base);
  util::ThreadPool pool(4);
  obs::MetricsRegistry registry;
  ScoringEngine::Options pooled_options;
  pooled_options.pool = &pool;
  pooled_options.metrics = &registry;
  ScoringEngine pooled(&base, pooled_options);

  const ScoringEngine::BatchOutcome expected = serial.TryScoreBatch(pairs);
  const ScoringEngine::BatchOutcome actual = pooled.TryScoreBatch(pairs);
  // 136 pairs: 128 unique misses fan out as four 32-pair chunks.
  EXPECT_EQ(registry.counter("scoring.pool.chunks")->value(), 4);
  ASSERT_GT(expected.failures, 0u);
  ASSERT_LT(expected.failures, pairs.size());
  EXPECT_EQ(actual.scores, expected.scores);
  EXPECT_EQ(actual.ok, expected.ok);
  EXPECT_EQ(actual.failures, expected.failures);
  EXPECT_EQ(actual.budget_exhausted, expected.budget_exhausted);
  const PredictionCache::Stats serial_stats = serial.cache_stats();
  const PredictionCache::Stats pooled_stats = pooled.cache_stats();
  EXPECT_EQ(pooled_stats.hits, serial_stats.hits);
  EXPECT_EQ(pooled_stats.misses, serial_stats.misses);
  EXPECT_EQ(pooled_stats.evictions, serial_stats.evictions);
  EXPECT_EQ(pooled_stats.store_hits, serial_stats.store_hits);
}

// ScoreBatch must agree bit-for-bit with per-pair Score for every
// trained model kind (the contract the hot paths rely on).
class ScoreBatchEquivalenceTest
    : public ::testing::TestWithParam<models::ModelKind> {};

TEST_P(ScoreBatchEquivalenceTest, BatchEqualsPerPairScore) {
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(GetParam(), dataset);
  std::vector<RecordPair> pairs;
  for (const data::LabeledPair& pair : dataset.test) {
    pairs.push_back({&dataset.left.record(pair.left_index),
                     &dataset.right.record(pair.right_index)});
  }
  ASSERT_FALSE(pairs.empty());
  std::vector<double> batch = model->ScoreBatch(pairs);
  ASSERT_EQ(batch.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batch[i], model->Score(*pairs[i].left, *pairs[i].right))
        << "pair " << i;
  }
  // Through the engine (cache + dedupe) the scores are still identical.
  ScoringEngine engine(model.get());
  EXPECT_EQ(engine.ScoreBatch(pairs), batch);
}

// The per-batch value memos on the batches they serve: lattice-shaped
// batches (a free record's attributes replaced from several support
// records under every proper mask, against the fixed pivot, on either
// side), equal values at distinct addresses, one string in two
// attributes, missing and numeric values — more than one 32-pair pool
// chunk in all.
TEST_P(ScoreBatchEquivalenceTest, ValueMemosMatchPerPairScore) {
  for (const char* code : {"FZ", "AB", "DA", "IA"}) {
    SCOPED_TRACE(code);
    data::Dataset dataset = data::MakeBenchmark(code);
    auto model = models::TrainMatcher(GetParam(), dataset);
    const data::LabeledPair& test_pair = dataset.test.front();
    const data::Record& u = dataset.left.record(test_pair.left_index);
    const data::Record& v = dataset.right.record(test_pair.right_index);
    const size_t arity = u.values.size();
    ASSERT_EQ(arity, v.values.size());
    ASSERT_GE(arity, 2u);

    std::deque<data::Record> records;  // stable addresses
    auto add = [&records](data::Record record) {
      records.push_back(std::move(record));
      return static_cast<const data::Record*>(&records.back());
    };
    std::vector<RecordPair> pairs;
    for (int s = 1; s <= 3; ++s) {
      const data::Record& left_support =
          dataset.left.record(s % dataset.left.size());
      const data::Record& right_support =
          dataset.right.record(s % dataset.right.size());
      for (explain::AttrMask mask = 1; mask + 1 < (1u << arity); ++mask) {
        pairs.push_back(
            {add(explain::CopyAttributes(u, left_support, mask)), &v});
        pairs.push_back(
            {&u, add(explain::CopyAttributes(v, right_support, mask))});
      }
    }
    // Equal values at distinct addresses.
    pairs.push_back({add(u), add(v)});
    pairs.push_back({add(u), &v});
    // One string in two attributes, on one side and across sides.
    data::Record twice = u;
    twice.values[arity - 1] = twice.values[0];
    data::Record shared = v;
    shared.values[1] = u.values[0];
    pairs.push_back({add(twice), &v});
    pairs.push_back({add(twice), add(shared)});
    // Missing and numeric values.
    for (const char* special : {"NaN", "", "null", "42", "3.50", "$1,299"}) {
      data::Record left = u;
      left.values[0] = special;
      data::Record right = v;
      right.values[arity - 1] = special;
      right.values[0] = special;
      pairs.push_back({add(left), &v});
      pairs.push_back({&u, add(right)});
      pairs.push_back({add(left), add(right)});
    }
    ASSERT_GT(pairs.size(), 32u);

    std::vector<double> batch = model->ScoreBatch(pairs);
    ASSERT_EQ(batch.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(batch[i], model->Score(*pairs[i].left, *pairs[i].right))
          << "pair " << i;
    }
    // A pooled engine slices the batch into 32-pair chunks, each scored
    // with one of the engine's memos; the scores stay the same.
    util::ThreadPool pool(4);
    ScoringEngine::Options options;
    options.pool = &pool;
    ScoringEngine engine(model.get(), options);
    EXPECT_EQ(engine.ScoreBatch(pairs), batch);
  }
}

// One memo carried over several batches, as an explanation's engine
// carries its memos: lattice-shaped batches in which consecutive
// batches share a support record (hence values), each built in records
// that are destroyed before the next batch reuses their storage, so
// record addresses recur with new content. A memo keyed by record
// address would serve an earlier batch's record here.
TEST_P(ScoreBatchEquivalenceTest, MemoCarriedAcrossBatchesMatchesPerPairScore) {
  for (const char* code : {"FZ", "AB", "DA", "IA"}) {
    SCOPED_TRACE(code);
    data::Dataset dataset = data::MakeBenchmark(code);
    auto model = models::TrainMatcher(GetParam(), dataset);
    const data::LabeledPair& test_pair = dataset.test.front();
    const data::Record& u = dataset.left.record(test_pair.left_index);
    const data::Record& v = dataset.right.record(test_pair.right_index);
    const size_t arity = u.values.size();
    ASSERT_EQ(arity, v.values.size());
    ASSERT_GE(arity, 2u);
    const size_t masks = (size_t{1} << arity) - 2;

    models::ScoreMemo memo;
    util::ThreadPool pool(4);
    ScoringEngine::Options options;
    options.enable_cache = false;  // every batch reaches the model
    options.pool = &pool;
    ScoringEngine engine(model.get(), options);
    std::vector<data::Record> records;
    records.reserve(4 * masks);
    const data::Record* first_record = nullptr;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      records.clear();
      for (int s = round + 1; s <= round + 2; ++s) {
        const data::Record& left_support =
            dataset.left.record(s % dataset.left.size());
        const data::Record& right_support =
            dataset.right.record(s % dataset.right.size());
        for (explain::AttrMask mask = 1; mask + 1 < (1u << arity); ++mask) {
          records.push_back(explain::CopyAttributes(u, left_support, mask));
          records.push_back(explain::CopyAttributes(v, right_support, mask));
        }
      }
      if (round == 0) first_record = records.data();
      ASSERT_EQ(records.data(), first_record) << "storage not reused";
      std::vector<RecordPair> pairs;
      for (size_t r = 0; r < records.size(); r += 2) {
        pairs.push_back({&records[r], &v});
        pairs.push_back({&u, &records[r + 1]});
      }

      std::vector<double> serial;
      {
        models::ScoreMemo::Scope scope(&memo);
        serial = model->ScoreBatch(pairs);
      }
      ASSERT_EQ(serial.size(), pairs.size());
      for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(serial[i], model->Score(*pairs[i].left, *pairs[i].right))
            << "pair " << i;
      }
      EXPECT_EQ(engine.ScoreBatch(pairs), serial);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScoreBatchEquivalenceTest,
                         ::testing::Values(models::ModelKind::kDeepEr,
                                           models::ModelKind::kDeepMatcher,
                                           models::ModelKind::kDitto,
                                           models::ModelKind::kSvm),
                         [](const auto& info) {
                           return models::ModelKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// End-to-end determinism: CertaExplainer::Explain must produce the same
// CertaResult (saliency, counterfactuals, Table 7/8 counters) at any
// thread count, with or without the prediction cache.

struct ExplainConfig {
  int num_threads;
  bool use_cache;
};

class ExplainDeterminismTest
    : public ::testing::TestWithParam<ExplainConfig> {};

TEST_P(ExplainDeterminismTest, MatchesSingleThreadCachedRun) {
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(models::ModelKind::kDeepEr, dataset);
  explain::ExplainContext context{model.get(), &dataset.left,
                                  &dataset.right};
  core::CertaExplainer::Options base_options;
  base_options.num_triangles = 12;

  core::CertaExplainer reference(context, base_options);
  core::CertaExplainer::Options options = base_options;
  options.num_threads = GetParam().num_threads;
  options.use_cache = GetParam().use_cache;
  core::CertaExplainer variant(context, options);

  int checked = 0;
  for (const data::LabeledPair& pair : dataset.test) {
    if (checked >= 3) break;
    ++checked;
    const data::Record& u = dataset.left.record(pair.left_index);
    const data::Record& v = dataset.right.record(pair.right_index);
    core::CertaResult expected = reference.Explain(u, v);
    core::CertaResult actual = variant.Explain(u, v);
    if (!GetParam().use_cache) {
      EXPECT_EQ(actual.cache_hits + actual.cache_misses, 0);
    }
    // JSON covers saliency scores, counterfactuals, sufficiency table
    // and the Table 7/8 counters in one deterministic serialization.
    // Cache counters legitimately differ across configs, so zero them
    // before comparing the payloads.
    expected.cache_hits = actual.cache_hits = 0;
    expected.cache_misses = actual.cache_misses = 0;
    expected.cache_evictions = actual.cache_evictions = 0;
    EXPECT_EQ(core::CertaResultToJson(actual, dataset.left.schema(),
                                      dataset.right.schema()),
              core::CertaResultToJson(expected, dataset.left.schema(),
                                      dataset.right.schema()));
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCache, ExplainDeterminismTest,
    ::testing::Values(ExplainConfig{1, false}, ExplainConfig{2, true},
                      ExplainConfig{4, true}, ExplainConfig{4, false},
                      ExplainConfig{8, true}),
    [](const auto& info) {
      return "Threads" + std::to_string(info.param.num_threads) +
             (info.param.use_cache ? "Cached" : "NoCache");
    });

TEST(ExplainGroupLockstepTest, GroupSizeNeverChangesTheResult) {
  // The lattice phase merges up to lattice_group_size triangles into
  // each scoring batch; only batch boundaries may move, never the
  // per-triangle node order — so every group size (including 1, the
  // old one-triangle-at-a-time shape) must yield the same CertaResult.
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(models::ModelKind::kDeepEr, dataset);
  explain::ExplainContext context{model.get(), &dataset.left,
                                  &dataset.right};
  const data::LabeledPair& pair = dataset.test.front();
  const data::Record& u = dataset.left.record(pair.left_index);
  const data::Record& v = dataset.right.record(pair.right_index);

  core::CertaExplainer::Options options;
  options.num_triangles = 12;
  options.lattice_group_size = 1;
  core::CertaResult reference =
      core::CertaExplainer(context, options).Explain(u, v);
  reference.cache_hits = reference.cache_misses = reference.cache_evictions =
      0;
  const std::string expected = core::CertaResultToJson(
      reference, dataset.left.schema(), dataset.right.schema());

  for (int group : {2, 5, 16, 1000}) {
    options.lattice_group_size = group;
    core::CertaResult actual =
        core::CertaExplainer(context, options).Explain(u, v);
    actual.cache_hits = actual.cache_misses = actual.cache_evictions = 0;
    EXPECT_EQ(core::CertaResultToJson(actual, dataset.left.schema(),
                                      dataset.right.schema()),
              expected)
        << "group size " << group;
  }
}

}  // namespace
}  // namespace certa
