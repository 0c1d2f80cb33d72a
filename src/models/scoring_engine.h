#ifndef CERTA_MODELS_SCORING_ENGINE_H_
#define CERTA_MODELS_SCORING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/matcher.h"
#include "models/score_memo.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace certa::models {

/// Content hash of a record pair, used as the prediction-cache key.
/// Two independent 64-bit FNV-1a/avalanche streams make accidental
/// collisions (which would silently return a wrong score) a non-issue:
/// ~2^-128 per pair of distinct inputs.
struct PairKey {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const PairKey& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

/// Hashes the pair's attribute values with side/value separators, so
/// ("ab","c") and ("a","bc") — and swapped sides — key differently.
PairKey HashPair(const data::Record& u, const data::Record& v);

/// Hash functor for PairKey-keyed maps (cache shards, batch dedupe,
/// fault plans).
struct PairKeyHasher {
  size_t operator()(const PairKey& key) const {
    return static_cast<size_t>(key.lo ^ (key.hi * 0x9E3779B97F4A7C15ULL));
  }
};

/// Sharded, thread-safe score cache. Each shard has its own mutex and
/// map, so concurrent lookups from pool workers rarely contend. A shard
/// that exceeds its entry budget is cleared wholesale, with the dropped
/// entries counted as evictions.
class PredictionCache {
 public:
  struct Stats {
    long long hits = 0;
    long long misses = 0;
    long long evictions = 0;
    /// Misses served from the durable score store instead of the base
    /// model (see ScoringEngine::Options::store_probe). Distinct from
    /// `hits` — a store-served probe already counted one miss, so
    /// hits + misses still tallies every lookup, and store_hits says
    /// how many of those misses skipped a paid model call anyway.
    long long store_hits = 0;
    /// Subset of store_hits whose score was paid for by a *sibling*
    /// worker sharing the store directory (probe returned 2, see
    /// Options::StoreProbe) — the cross-worker reuse a shared fleet
    /// store exists to prove.
    long long store_peer_hits = 0;
  };

  PredictionCache(size_t num_shards, size_t max_entries_per_shard);

  /// Mirrors every hit/miss/eviction into the given registry counters
  /// (all may be null). The cache's own Stats stay authoritative — they
  /// feed CertaResult and must not depend on whether a registry is
  /// attached or enabled.
  void BindMetrics(obs::Counter* hits, obs::Counter* misses,
                   obs::Counter* evictions,
                   obs::Counter* store_hits = nullptr,
                   obs::Counter* store_peer_hits = nullptr);

  /// True (and *score set) on a hit. Counts one hit or one miss.
  bool Lookup(const PairKey& key, double* score);

  /// Stores the score; overwriting an existing entry is harmless
  /// (scores are deterministic). May evict a full shard first.
  void Insert(const PairKey& key, double score);

  /// Counts one store-served miss (the engine calls this when its
  /// store_probe hook supplies the score a cache miss would otherwise
  /// have paid the base model for). `peer` additionally counts a
  /// store_peer_hit — the serving entry was paid by a sibling worker.
  void CountStoreHit(bool peer = false);

  Stats stats() const;
  size_t entry_count() const;

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<PairKey, double, PairKeyHasher> map;
  };

  size_t ShardIndex(const PairKey& key) const {
    // Mix both words (the hasher's output) before reducing: indexing by
    // `hi % shards` alone piles every key sharing `hi` into one shard
    // whenever the shard count is not a power of two that divides the
    // hash range evenly — and defeats sharding entirely for key sets
    // that vary only in `lo`.
    return PairKeyHasher{}(key) % shards_.size();
  }

  Shard& ShardFor(const PairKey& key) { return *shards_[ShardIndex(key)]; }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t max_entries_per_shard_;
  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> evictions_{0};
  std::atomic<long long> store_hits_{0};
  std::atomic<long long> store_peer_hits_{0};
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_store_hits_ = nullptr;
  obs::Counter* metric_store_peer_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
};

/// The batched + cached + pooled scoring layer every hot path drains
/// through. Drops in anywhere a Matcher is expected:
///
///   - Score(u, v): cache probe, then store probe, then one base-model
///     call on a miss.
///   - ScoreBatch(pairs) / TryScoreBatch(pairs): one pipeline — dedupe
///     identical pairs within the batch; probe the cache, then the
///     store, for each unique pair; score the misses through the base
///     model's ScoreBatch (in fixed chunks over the thread pool when
///     one is attached); then insert the new scores.
///
/// Each base ScoreBatch runs with one of the engine's ScoreMemos
/// installed on its thread, so the model featurizes a value once per
/// memo rather than once per call. The engine creates a memo on its
/// first model call and lends each to one chunk at a time, so at most
/// pool size + 1 exist; they live as long as the engine, which
/// CertaExplainer makes per Explain. An engine called from inside
/// another engine's chunk (an explainer's engine over the harness's or
/// the CLI's) uses the memo that chunk installed on the calling thread;
/// chunks it hands to a pool of its own run with its own memos, which
/// live as long as it does.
///
/// Every returned score is bit-identical to base->Score(u, v): the
/// cache only ever stores values the deterministic base model produced,
/// and batching/pooling never changes the arithmetic of an individual
/// pair. Cache probes and insertions happen on the calling thread in
/// pair order, so hit/miss/eviction counters are deterministic too (for
/// a single-threaded caller); only the miss *computation* fans out.
class ScoringEngine : public Matcher {
 public:
  /// Durability hook: invoked once per freshly *computed* score (cache
  /// hits and store-served scores never fire it), sequentially on the
  /// calling thread in input order, after the score is known good. The
  /// write-ahead journal (src/persist) subscribes here; a resumed job
  /// serves what it recorded back through `store_probe`, so the killed
  /// run's model calls are not paid twice.
  using ScoreObserver = std::function<void(const PairKey&, double)>;

  struct Options {
    /// Disable to measure the raw batched path (or to bound memory).
    bool enable_cache = true;
    /// Not owned; nullptr scores misses inline on the calling thread.
    util::ThreadPool* pool = nullptr;
    /// Optional journal hook; empty = no observation overhead.
    ScoreObserver observer;
    /// Durable read-through hooks (the job's journal on resume and
    /// src/persist's ScoreStore bind them): `store_probe` is consulted
    /// after a cache miss — nonzero (and *score set) serves the miss
    /// without a base-model call — and `store_write` is invoked once
    /// per freshly computed score, right after `observer`, on the
    /// calling thread in input order. The probe's return value says
    /// who paid for the score: 0 = miss, 1 = this worker (its journal
    /// or its own store entry), 2 = an entry absorbed from a sibling
    /// worker sharing the store directory (tallied as store_peer_hits
    /// on top of store_hits). A bool-returning lambda still converts —
    /// false/true map to 0/1. Store-served scores are inserted into the
    /// cache exactly where a computed score would be, so they keep the
    /// hit/miss/eviction counter stream and every result byte identical
    /// to computing (durable state only holds values the deterministic
    /// model produced); they are tallied separately as
    /// PredictionCache::Stats::store_hits.
    using StoreProbe = std::function<int(const PairKey&, double*)>;
    using StoreWrite = std::function<void(const PairKey&, double)>;
    StoreProbe store_probe;
    StoreWrite store_write;
    /// Observability registry (not owned; nullptr = uninstrumented).
    /// Metric handles are resolved once at engine construction — see
    /// docs/OBSERVABILITY.md for the scoring.* catalog. Purely
    /// observational: scores, counters in CertaResult, and the call
    /// pattern are bit-identical with or without a registry.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Does not take ownership of `base`, which must outlive the engine
  /// and be safe to score from multiple threads.
  ScoringEngine(const Matcher* base, Options options);
  explicit ScoringEngine(const Matcher* base)
      : ScoringEngine(base, Options()) {}

  /// Outcome of a fault-tolerant batch: scores[i] is meaningful only
  /// where ok[i] != 0. Failed pairs are never written to the cache.
  struct BatchOutcome {
    std::vector<double> scores;
    std::vector<uint8_t> ok;
    /// Input pairs whose score was lost to a ScoringError.
    size_t failures = 0;
    /// True when at least one failure was a BudgetExhausted — the
    /// caller should stop issuing work rather than degrade further.
    bool budget_exhausted = false;
  };

  double Score(const data::Record& u, const data::Record& v) const override;
  /// Rethrows the first ScoringError of the batch before any of its
  /// scores enters the cache.
  std::vector<double> ScoreBatch(
      std::span<const RecordPair> pairs) const override;
  std::string name() const override { return base_->name(); }

  /// Like ScoreBatch, but a ScoringError thrown by the base model fails
  /// only the pairs it covered instead of the whole call: the failed
  /// chunk is re-scored pair by pair, surviving pairs keep their
  /// scores, and only successful scores enter the prediction cache.
  /// Errors other than ScoringError still propagate.
  BatchOutcome TryScoreBatch(std::span<const RecordPair> pairs) const;

  PredictionCache::Stats cache_stats() const;
  const Options& options() const { return options_; }
  const Matcher* base() const { return base_; }

 private:
  /// The batch pipeline behind ScoreBatch and TryScoreBatch;
  /// `isolate_failures` selects TryScoreBatch's error contract.
  BatchOutcome RunBatch(std::span<const RecordPair> pairs,
                        bool isolate_failures) const;

  /// Scores `pairs` through the base model, fanning fixed-size chunks
  /// out over the pool when the batch is large enough; results land by
  /// input index regardless of which worker scored them. A ScoringError
  /// is rethrown (after every chunk finished) unless `isolate_failures`,
  /// in which case the poisoned chunk is re-scored pair by pair and
  /// `ok` marks the survivors. Any other exception is captured on the
  /// worker and rethrown here — never propagated through the pool.
  void ScoreMisses(const std::vector<RecordPair>& pairs,
                   bool isolate_failures, std::vector<double>* scores,
                   std::vector<uint8_t>* ok, bool* budget_exhausted) const;

  /// One base ScoreBatch with a memo installed: the calling thread's,
  /// or an idle one of the engine's (created when none is idle), given
  /// back once the call returns. A call that throws drops its memo,
  /// which it may have left half-built.
  std::vector<double> ScoreChunk(std::span<const RecordPair> pairs) const;

  /// Registry handles, resolved once in the constructor (all null when
  /// Options::metrics is null).
  struct MetricHandles {
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* batch_latency_us = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* pool_chunks = nullptr;
    obs::Counter* scores_computed = nullptr;
  };

  const Matcher* base_;
  Options options_;
  mutable PredictionCache cache_;
  MetricHandles metric_;
  mutable std::mutex memo_mutex_;
  /// Memos no chunk holds at the moment (guarded by memo_mutex_).
  mutable std::vector<std::unique_ptr<ScoreMemo>> idle_memos_;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_SCORING_ENGINE_H_
