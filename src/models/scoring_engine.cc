#include "models/scoring_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "models/resilience.h"
#include "util/logging.h"

namespace certa::models {
namespace {

/// FNV-1a over a string with a per-stream basis, finished by the
/// caller; value separators keep ("ab","c") distinct from ("a","bc").
void MixValue(const std::string& value, uint64_t* hash) {
  for (char c : value) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= 0x100000001b3ULL;
  }
  *hash ^= 0x1f;
  *hash *= 0x100000001b3ULL;
}

uint64_t Avalanche(uint64_t hash) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ULL;
  hash ^= hash >> 33;
  return hash;
}

uint64_t HashSide(const data::Record& u, const data::Record& v,
                  uint64_t basis) {
  uint64_t hash = basis;
  for (const std::string& value : u.values) MixValue(value, &hash);
  hash ^= 0x1e;
  hash *= 0x100000001b3ULL;
  for (const std::string& value : v.values) MixValue(value, &hash);
  return Avalanche(hash);
}

}  // namespace

PairKey HashPair(const data::Record& u, const data::Record& v) {
  return {HashSide(u, v, 0xcbf29ce484222325ULL),
          HashSide(u, v, 0x6a09e667f3bcc908ULL)};
}

PredictionCache::PredictionCache(size_t num_shards,
                                 size_t max_entries_per_shard)
    : max_entries_per_shard_(std::max<size_t>(1, max_entries_per_shard)) {
  size_t count = std::max<size_t>(1, num_shards);
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void PredictionCache::BindMetrics(obs::Counter* hits, obs::Counter* misses,
                                  obs::Counter* evictions,
                                  obs::Counter* store_hits,
                                  obs::Counter* store_peer_hits) {
  metric_hits_ = hits;
  metric_misses_ = misses;
  metric_evictions_ = evictions;
  metric_store_hits_ = store_hits;
  metric_store_peer_hits_ = store_peer_hits;
}

void PredictionCache::CountStoreHit(bool peer) {
  store_hits_.fetch_add(1, std::memory_order_relaxed);
  if (metric_store_hits_ != nullptr) metric_store_hits_->Increment();
  if (peer) {
    store_peer_hits_.fetch_add(1, std::memory_order_relaxed);
    if (metric_store_peer_hits_ != nullptr) {
      metric_store_peer_hits_->Increment();
    }
  }
}

bool PredictionCache::Lookup(const PairKey& key, double* score) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (metric_misses_ != nullptr) metric_misses_->Increment();
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (metric_hits_ != nullptr) metric_hits_->Increment();
  *score = it->second;
  return true;
}

void PredictionCache::Insert(const PairKey& key, double score) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.map.size() >= max_entries_per_shard_ &&
      shard.map.find(key) == shard.map.end()) {
    evictions_.fetch_add(static_cast<long long>(shard.map.size()),
                         std::memory_order_relaxed);
    if (metric_evictions_ != nullptr) {
      metric_evictions_->Add(static_cast<long long>(shard.map.size()));
    }
    shard.map.clear();
  }
  shard.map[key] = score;
}

PredictionCache::Stats PredictionCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed),
          store_hits_.load(std::memory_order_relaxed),
          store_peer_hits_.load(std::memory_order_relaxed)};
}

size_t PredictionCache::entry_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

namespace {

/// Prediction-cache geometry of every engine.
constexpr size_t kCacheShards = 16;
constexpr size_t kMaxCacheEntriesPerShard = size_t{1} << 16;
/// Batches smaller than this skip the pool (dispatch overhead would
/// dominate the scoring work).
constexpr size_t kMinParallelBatch = 8;
/// Pairs per pool task when fanning a batch out. Independent of the
/// worker count, so the base model's ScoreBatch slices are the same at
/// any pool size; without a pool a batch is one unsliced call. The
/// slices do not bound what a model featurizes once: every chunk runs
/// with one of the engine's memos, which carries value reps across
/// chunks and batches. Which memo a chunk gets depends on scheduling,
/// so the featurization work (never a score) varies between runs.
constexpr size_t kParallelChunk = 32;

}  // namespace

ScoringEngine::ScoringEngine(const Matcher* base, Options options)
    : base_(base),
      options_(std::move(options)),
      cache_(kCacheShards, kMaxCacheEntriesPerShard) {
  CERTA_CHECK(base != nullptr);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    metric_.batch_size =
        reg.histogram("scoring.batch.size", obs::SizeBuckets());
    metric_.batch_latency_us =
        reg.histogram("scoring.batch.latency_us", obs::LatencyBuckets());
    metric_.batches = reg.counter("scoring.batches");
    metric_.pool_chunks = reg.counter("scoring.pool.chunks");
    metric_.scores_computed = reg.counter("scoring.scores.computed");
    cache_.BindMetrics(reg.counter("scoring.cache.hits"),
                       reg.counter("scoring.cache.misses"),
                       reg.counter("scoring.cache.evictions"),
                       reg.counter("scoring.cache.store_hits"),
                       reg.counter("scoring.cache.store_peer_hits"));
  }
}

double ScoringEngine::Score(const data::Record& u,
                            const data::Record& v) const {
  if (!options_.enable_cache && !options_.observer &&
      !options_.store_probe && !options_.store_write) {
    const double score = base_->Score(u, v);
    if (metric_.scores_computed != nullptr) {
      metric_.scores_computed->Increment();
    }
    return score;
  }
  PairKey key = HashPair(u, v);
  double score = 0.0;
  if (options_.enable_cache && cache_.Lookup(key, &score)) return score;
  if (options_.store_probe) {
    const int served = options_.store_probe(key, &score);
    if (served != 0) {
      // Store-served miss: same insertion (and hence eviction) sequence
      // as computing, minus the paid base call. The observer stays
      // silent — nothing fresh happened.
      cache_.CountStoreHit(/*peer=*/served == 2);
      if (options_.enable_cache) cache_.Insert(key, score);
      return score;
    }
  }
  score = base_->Score(u, v);
  if (metric_.scores_computed != nullptr) metric_.scores_computed->Increment();
  if (options_.enable_cache) cache_.Insert(key, score);
  if (options_.observer) options_.observer(key, score);
  if (options_.store_write) options_.store_write(key, score);
  return score;
}

void ScoringEngine::ScoreMisses(const std::vector<RecordPair>& pairs,
                                bool isolate_failures,
                                std::vector<double>* scores,
                                std::vector<uint8_t>* ok,
                                bool* budget_exhausted) const {
  scores->assign(pairs.size(), 0.0);
  ok->assign(pairs.size(), 0);
  if (pairs.empty()) return;
  std::atomic<bool> exhausted{false};

  // Scores [begin, end): one batched base call, then — when isolating —
  // pair by pair for the chunk a ScoringError poisoned.
  auto score_range = [&](size_t begin, size_t end) {
    std::span<const RecordPair> slice(pairs.data() + begin, end - begin);
    try {
      const std::vector<double> chunk_scores = ScoreChunk(slice);
      std::copy(chunk_scores.begin(), chunk_scores.end(),
                scores->begin() + static_cast<ptrdiff_t>(begin));
      std::fill(ok->begin() + static_cast<ptrdiff_t>(begin),
                ok->begin() + static_cast<ptrdiff_t>(end), 1);
      return;
    } catch (const BudgetExhausted&) {
      if (!isolate_failures) throw;
      // The batch was rejected (it no longer fits the budget); the
      // per-pair loop below salvages what the remaining budget covers.
      exhausted.store(true, std::memory_order_relaxed);
    } catch (const ScoringError&) {
      if (!isolate_failures) throw;
    }
    for (size_t i = begin; i < end; ++i) {
      try {
        (*scores)[i] = base_->Score(*pairs[i].left, *pairs[i].right);
        (*ok)[i] = 1;
      } catch (const BudgetExhausted&) {
        exhausted.store(true, std::memory_order_relaxed);
        return;
      } catch (const ScoringError&) {
        // This pair stays failed; keep scoring the rest.
      }
    }
  };

  util::ThreadPool* pool = options_.pool;
  if (pool == nullptr || pool->size() < 2 ||
      pairs.size() < kMinParallelBatch) {
    score_range(0, pairs.size());
  } else {
    if (metric_.pool_chunks != nullptr) {
      metric_.pool_chunks->Add(static_cast<long long>(
          (pairs.size() + kParallelChunk - 1) / kParallelChunk));
    }
    // ParallelFor tasks must not throw (a worker has nowhere to put the
    // exception): capture the first one and rethrow on the calling
    // thread, after every chunk has finished.
    std::exception_ptr error;
    std::mutex error_mutex;
    pool->ParallelFor(pairs.size(), kParallelChunk,
                      [&](size_t begin, size_t end) {
                        try {
                          score_range(begin, end);
                        } catch (...) {
                          std::lock_guard<std::mutex> lock(error_mutex);
                          if (!error) error = std::current_exception();
                        }
                      });
    if (error) std::rethrow_exception(error);
  }
  *budget_exhausted = exhausted.load(std::memory_order_relaxed);
}

std::vector<double> ScoringEngine::ScoreChunk(
    std::span<const RecordPair> pairs) const {
  if (ScoreMemo::Installed() != nullptr) return base_->ScoreBatch(pairs);
  std::unique_ptr<ScoreMemo> memo;
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    if (!idle_memos_.empty()) {
      memo = std::move(idle_memos_.back());
      idle_memos_.pop_back();
    }
  }
  if (memo == nullptr) memo = std::make_unique<ScoreMemo>();
  std::vector<double> scores;
  {
    ScoreMemo::Scope scope(memo.get());
    scores = base_->ScoreBatch(pairs);
  }
  std::lock_guard<std::mutex> lock(memo_mutex_);
  idle_memos_.push_back(std::move(memo));
  return scores;
}

namespace {

/// Dedupe plan for one batch: identical pairs in one batch are scored
/// once (even with the persistent cache disabled — lattice frontiers
/// and candidate scans repeat perturbations within a batch).
/// `slot[i]` is the unique-pair index serving input i.
struct BatchPlan {
  std::vector<PairKey> keys;          // per input
  std::vector<size_t> slot;           // input -> unique-pair index
  std::vector<size_t> unique_inputs;  // unique-pair index -> first input
};

BatchPlan MakePlan(std::span<const RecordPair> pairs) {
  BatchPlan plan;
  plan.keys.resize(pairs.size());
  plan.slot.assign(pairs.size(), 0);
  std::unordered_map<PairKey, size_t, PairKeyHasher> first_index;
  for (size_t i = 0; i < pairs.size(); ++i) {
    plan.keys[i] = HashPair(*pairs[i].left, *pairs[i].right);
    auto [it, inserted] =
        first_index.emplace(plan.keys[i], plan.unique_inputs.size());
    if (inserted) plan.unique_inputs.push_back(i);
    plan.slot[i] = it->second;
  }
  return plan;
}

}  // namespace

ScoringEngine::BatchOutcome ScoringEngine::RunBatch(
    std::span<const RecordPair> pairs, bool isolate_failures) const {
  BatchOutcome out;
  out.scores.assign(pairs.size(), 0.0);
  out.ok.assign(pairs.size(), 0);
  if (pairs.empty()) return out;
  // Time the batch only when a live registry will consume the sample —
  // with observability off the clock reads are skipped too.
  const bool timed = metric_.batch_latency_us != nullptr &&
                     options_.metrics->enabled();
  const auto batch_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
  if (metric_.batches != nullptr) metric_.batches->Increment();
  if (metric_.batch_size != nullptr) {
    metric_.batch_size->Record(static_cast<double>(pairs.size()));
  }
  BatchPlan plan = MakePlan(pairs);

  // Probe phase (sequential, so counters stay deterministic). A miss
  // the store can serve is remembered as a fill that is already ok: it
  // skips the compute phase but is inserted in the same relative slot
  // order as a computed miss, so the eviction sequence — and hence
  // every counter in CertaResult — is identical with the store
  // detached.
  std::vector<double> unique_scores(plan.unique_inputs.size(), 0.0);
  std::vector<uint8_t> unique_ok(plan.unique_inputs.size(), 0);
  std::vector<RecordPair> miss_pairs;
  std::vector<size_t> fill_slots;  // ascending unique-slot order
  for (size_t s = 0; s < plan.unique_inputs.size(); ++s) {
    const size_t input = plan.unique_inputs[s];
    if (options_.enable_cache &&
        cache_.Lookup(plan.keys[input], &unique_scores[s])) {
      unique_ok[s] = 1;
      continue;
    }
    fill_slots.push_back(s);
    if (options_.store_probe) {
      const int served =
          options_.store_probe(plan.keys[input], &unique_scores[s]);
      if (served != 0) {
        cache_.CountStoreHit(/*peer=*/served == 2);
        unique_ok[s] = 1;
        continue;
      }
    }
    miss_pairs.push_back(pairs[input]);
  }

  // Compute phase (possibly parallel), then sequential insert phase.
  // Without isolation a ScoringError leaves ScoreMisses before the
  // insert loop; with it, failed pairs are skipped — either way the
  // cache only ever holds scores the model produced.
  std::vector<double> miss_scores;
  std::vector<uint8_t> miss_ok;
  ScoreMisses(miss_pairs, isolate_failures, &miss_scores, &miss_ok,
              &out.budget_exhausted);
  long long computed = 0;
  size_t next_miss = 0;
  for (const size_t s : fill_slots) {
    const bool from_store = unique_ok[s] != 0;
    if (!from_store) {
      const size_t m = next_miss++;
      if (!miss_ok[m]) continue;
      unique_scores[s] = miss_scores[m];
      unique_ok[s] = 1;
      ++computed;
    }
    const PairKey& key = plan.keys[plan.unique_inputs[s]];
    if (options_.enable_cache) cache_.Insert(key, unique_scores[s]);
    if (from_store) continue;  // nothing fresh: observer/store stay quiet
    if (options_.observer) options_.observer(key, unique_scores[s]);
    if (options_.store_write) options_.store_write(key, unique_scores[s]);
  }

  for (size_t i = 0; i < pairs.size(); ++i) {
    out.scores[i] = unique_scores[plan.slot[i]];
    out.ok[i] = unique_ok[plan.slot[i]];
    if (!out.ok[i]) ++out.failures;
  }
  if (metric_.scores_computed != nullptr) {
    metric_.scores_computed->Add(computed);
  }
  if (timed) {
    metric_.batch_latency_us->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - batch_start)
            .count()));
  }
  return out;
}

std::vector<double> ScoringEngine::ScoreBatch(
    std::span<const RecordPair> pairs) const {
  return RunBatch(pairs, /*isolate_failures=*/false).scores;
}

ScoringEngine::BatchOutcome ScoringEngine::TryScoreBatch(
    std::span<const RecordPair> pairs) const {
  return RunBatch(pairs, /*isolate_failures=*/true);
}

PredictionCache::Stats ScoringEngine::cache_stats() const {
  return cache_.stats();
}

}  // namespace certa::models
