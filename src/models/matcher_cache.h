#ifndef CERTA_MODELS_MATCHER_CACHE_H_
#define CERTA_MODELS_MATCHER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "data/dataset.h"
#include "models/matcher.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace certa::models {

/// Content fingerprint of the *training inputs* TrainMatcher reads: the
/// schema names, every train pair (indices and label) and the values of
/// every record a train pair references. Training is seeded and
/// deterministic and FeatureMatcher::Fit reads exactly these (the
/// featurizers read record values only), so (model kind, fingerprint)
/// pins a matcher's parameters exactly. Hashing record contents rather
/// than the dataset code or path means two datasets that share a name
/// but not their training data never share a model or a score-store
/// scope, while records outside the train set (streaming upserts of
/// test-side rows) leave the fingerprint unchanged.
uint64_t TrainingFingerprint(const data::Dataset& dataset);

/// Trained matchers shared across jobs, keyed by (kind, training
/// fingerprint). The explainer treats its model as a fixed black box,
/// so a serving process trains each (dataset, model) pair once and
/// hands every later job the same read-only instance. Bounded LRU:
/// streaming removes rewrite training records (a new fingerprint per
/// refresh) and `data_dir` requests can name any dataset.
///
/// Thread-safe. Training runs outside the lock; two concurrent misses
/// on one key may both train, and the first insert wins.
class MatcherCache {
 public:
  /// Holds every built-in (benchmark, model) pair: 12 x 4.
  static constexpr size_t kCapacity = 48;

  /// The serving process's cache (fleet workers are separate processes,
  /// so each has its own).
  static MatcherCache& Process();

  /// The matcher of `kind` trained on `dataset`, whose
  /// TrainingFingerprint is `fingerprint`; trains it on a miss. The
  /// returned model stays valid after its entry is evicted. Records
  /// models.matcher_cache.{hits,misses,evictions} and, on a miss,
  /// models.train_us into `metrics`, and wraps the lookup in a `train`
  /// span whose `cache_hit` argument is 1 or 0 (both nullable).
  std::shared_ptr<const Matcher> Get(ModelKind kind, uint64_t fingerprint,
                                     const data::Dataset& dataset,
                                     obs::MetricsRegistry* metrics,
                                     obs::TraceRecorder* trace);

 private:
  struct Entry {
    ModelKind kind;
    uint64_t fingerprint;
    std::shared_ptr<const Matcher> matcher;
  };

  /// Moves the entry for the key to the front and returns its matcher;
  /// null when absent. Requires mutex_.
  std::shared_ptr<const Matcher> FindLocked(ModelKind kind,
                                            uint64_t fingerprint);

  std::mutex mutex_;
  /// Most recently used first.
  std::list<Entry> entries_;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_MATCHER_CACHE_H_
