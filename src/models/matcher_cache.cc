#include "models/matcher_cache.h"

#include <chrono>

namespace certa::models {

uint64_t TrainingFingerprint(const data::Dataset& dataset) {
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const std::string& value) {
    for (char c : value) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash ^= 0x1F;
    hash *= 1099511628211ULL;
  };
  auto mix_int = [&hash](long long value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= static_cast<unsigned char>(value >> (8 * i));
      hash *= 1099511628211ULL;
    }
  };
  for (const data::Table* table : {&dataset.left, &dataset.right}) {
    for (const std::string& name : table->schema().names()) mix(name);
  }
  mix_int(static_cast<long long>(dataset.train.size()));
  for (const data::LabeledPair& pair : dataset.train) {
    mix_int(pair.left_index);
    mix_int(pair.right_index);
    mix_int(pair.label);
    for (const std::string& value :
         dataset.left.record(pair.left_index).values) {
      mix(value);
    }
    for (const std::string& value :
         dataset.right.record(pair.right_index).values) {
      mix(value);
    }
  }
  return hash;
}

MatcherCache& MatcherCache::Process() {
  static MatcherCache& cache = *new MatcherCache;
  return cache;
}

std::shared_ptr<const Matcher> MatcherCache::FindLocked(ModelKind kind,
                                                        uint64_t fingerprint) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->kind != kind || it->fingerprint != fingerprint) continue;
    entries_.splice(entries_.begin(), entries_, it);
    return it->matcher;
  }
  return nullptr;
}

std::shared_ptr<const Matcher> MatcherCache::Get(ModelKind kind,
                                                 uint64_t fingerprint,
                                                 const data::Dataset& dataset,
                                                 obs::MetricsRegistry* metrics,
                                                 obs::TraceRecorder* trace) {
  obs::TraceSpan span(trace, "train");
  auto count = [metrics](const char* name) {
    if (metrics != nullptr) metrics->counter(name)->Increment();
  };
  std::shared_ptr<const Matcher> hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    hit = FindLocked(kind, fingerprint);
  }
  span.AddArg("cache_hit", hit != nullptr ? 1 : 0);
  if (hit != nullptr) {
    count("models.matcher_cache.hits");
    return hit;
  }
  count("models.matcher_cache.misses");
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const Matcher> trained = TrainMatcher(kind, dataset);
  if (metrics != nullptr) {
    metrics->histogram("models.train_us", obs::LatencyBuckets())
        ->Record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
  }
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A concurrent miss on the same key may have inserted first; keep
    // its instance so every job shares one model.
    if (std::shared_ptr<const Matcher> raced = FindLocked(kind, fingerprint)) {
      return raced;
    }
    entries_.push_front(Entry{kind, fingerprint, trained});
    if (entries_.size() > kCapacity) {
      entries_.pop_back();
      evicted = true;
    }
  }
  if (evicted) count("models.matcher_cache.evictions");
  return trained;
}

}  // namespace certa::models
