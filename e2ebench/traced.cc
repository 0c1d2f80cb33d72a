#include "traced.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "data/dataset.h"
#include "loadgen.h"
#include "models/matcher.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/dir_lock.h"
#include "persist/journal.h"
#include "service/job_runner.h"
#include "util/atomic_file.h"

namespace certa::e2ebench {
namespace {

enum Layer {
  kDataLoad,
  kProvideDataset,
  kTrain,
  kModel,
  kStoreLookup,
  kStorePut,
  kStoreSync,
  kRefreshPeers,
  kJournalAppend,
  kJournalSync,
  kCheckpoint,
  kCoreInit,
  kToJson,
  kAtomicWrite,
  kLayerCount,
};

struct Span {
  Layer layer;
  int64_t start;
  int64_t end;
};

/// In-memory span sink; model batches record from pool threads.
class SpanLog {
 public:
  void Add(Layer layer, int64_t start, int64_t end) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({layer, start, end});
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer)
      : log_(log), layer_(layer), start_(NowNs()) {}
  ~ScopedSpan() { log_->Add(layer_, start_, NowNs()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Layer layer_;
  int64_t start_;
};

/// Decorates the trained model: one span per Score/ScoreBatch call and
/// counts of pairs and batches. Scores pass through untouched.
class TimedMatcher : public models::Matcher {
 public:
  TimedMatcher(std::unique_ptr<models::Matcher> base, SpanLog* log)
      : base_(std::move(base)), log_(log) {}

  double Score(const data::Record& u, const data::Record& v) const override {
    ScopedSpan span(log_, kModel);
    pairs_.fetch_add(1, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    return base_->Score(u, v);
  }
  std::vector<double> ScoreBatch(
      std::span<const models::RecordPair> pairs) const override {
    ScopedSpan span(log_, kModel);
    pairs_.fetch_add(static_cast<long long>(pairs.size()),
                     std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    return base_->ScoreBatch(pairs);
  }
  std::string name() const override { return base_->name(); }

  long long pairs() const { return pairs_.load(); }
  long long batches() const { return batches_.load(); }

 private:
  std::unique_ptr<models::Matcher> base_;
  SpanLog* log_;
  mutable std::atomic<long long> pairs_{0};
  mutable std::atomic<long long> batches_{0};
};

bool ModelKindFromName(const std::string& name, models::ModelKind* kind) {
  if (name == "deeper") *kind = models::ModelKind::kDeepEr;
  else if (name == "deepmatcher") *kind = models::ModelKind::kDeepMatcher;
  else if (name == "ditto") *kind = models::ModelKind::kDitto;
  else if (name == "svm") *kind = models::ModelKind::kSvm;
  else return false;
  return true;
}

/// Copy of the training-input fingerprint in service/job_runner.cc,
/// which scopes score-store entries. Should the two ever drift, a warm
/// replay misses the store and reports models.pairs_scored > 0.
uint64_t DatasetFingerprint(const data::Dataset& dataset) {
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

struct Interval {
  int64_t start;
  int64_t end;
};

/// Length of the union of `intervals` clipped to [lo, hi).
int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  for (Interval& interval : intervals) {
    interval.start = std::max(interval.start, lo);
    interval.end = std::min(interval.end, hi);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  int64_t total = 0;
  int64_t covered_to = lo;
  for (const Interval& interval : intervals) {
    const int64_t start = std::max(interval.start, covered_to);
    if (interval.end > start) {
      total += interval.end - start;
      covered_to = interval.end;
    }
  }
  return total;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Turns one job's spans and phase marks into its layer split.
void Summarize(const std::vector<Span>& spans,
               const std::vector<int64_t>& phase_marks, int64_t run_start,
               int64_t run_end, LayerTimes* times) {
  int64_t sums[kLayerCount] = {};
  std::vector<Interval> all;
  std::vector<Interval> model;
  for (const Span& span : spans) {
    sums[span.layer] += span.end - span.start;
    all.push_back({span.start, span.end});
    if (span.layer == kModel) model.push_back({span.start, span.end});
  }
  times->run_ms = Ms(run_end - run_start);
  times->data_load_ms = Ms(sums[kDataLoad]);
  times->provide_dataset_ms = Ms(sums[kProvideDataset]);
  times->train_ms = Ms(sums[kTrain]);
  times->model_wall_ms = Ms(UnionLength(model, run_start, run_end));
  times->model_cpu_ms = Ms(sums[kModel]);
  times->core_init_ms = Ms(sums[kCoreInit]);
  times->to_json_ms = Ms(sums[kToJson]);
  times->atomic_write_ms = Ms(sums[kAtomicWrite]);
  times->store_lookup_ms = Ms(sums[kStoreLookup]);
  times->store_put_ms = Ms(sums[kStorePut]);
  times->store_sync_ms = Ms(sums[kStoreSync]);
  times->refresh_peers_ms = Ms(sums[kRefreshPeers]);
  times->journal_append_ms = Ms(sums[kJournalAppend]);
  times->journal_fsync_ms = Ms(sums[kJournalSync]);
  times->checkpoint_ms = Ms(sums[kCheckpoint]);
  int64_t attributed = UnionLength(all, run_start, run_end);
  // Marks: pivot, triangles, lattice, counterfactuals, done.
  for (size_t i = 0; i + 1 < phase_marks.size() && i < 4; ++i) {
    const int64_t lo = phase_marks[i];
    const int64_t hi = phase_marks[i + 1];
    const int64_t self = (hi - lo) - UnionLength(all, lo, hi);
    times->core_phase_ms[i] = Ms(self);
    attributed += self;
  }
  times->attributed_ms = Ms(attributed);
}

}  // namespace

TracedJob TracedRunDurableExplain(const api::ExplainRequest& spec,
                                  const std::string& job_dir,
                                  persist::ScoreStore* store,
                                  service::StreamCoordinator* coordinator) {
  TracedJob job;
  SpanLog log;
  obs::MetricsRegistry metrics;
  std::vector<int64_t> phase_marks;
  const int64_t run_start = NowNs();
  auto fail = [&job](const std::string& error) {
    job.ok = false;
    job.error = error;
    return job;
  };

  std::string request_error;
  if (!spec.Validate(&request_error)) return fail(request_error);
  if (spec.fault_rate > 0.0) return fail("fault_rate");
  if (!util::EnsureDirectory(job_dir)) return fail("cannot create " + job_dir);
  persist::DirLock job_lock;
  std::string lock_error;
  if (!job_lock.Acquire(job_dir, &lock_error)) return fail(lock_error);

  data::Dataset dataset;
  if (coordinator != nullptr) {
    ScopedSpan span(&log, kProvideDataset);
    std::string provider_error;
    if (!coordinator->ProvideDataset(spec, &dataset, &provider_error)) {
      return fail(provider_error);
    }
  } else {
    ScopedSpan span(&log, kDataLoad);
    const std::vector<std::string>& codes = data::BenchmarkCodes();
    if (std::find(codes.begin(), codes.end(), spec.dataset) == codes.end()) {
      return fail("unknown dataset " + spec.dataset);
    }
    dataset = data::MakeBenchmark(spec.dataset);
  }
  if (spec.pair_index < 0 ||
      spec.pair_index >= static_cast<int>(dataset.test.size())) {
    return fail("pair index out of range");
  }
  models::ModelKind kind;
  if (!ModelKindFromName(spec.model, &kind)) return fail("unknown model");

  // Replay jobs always start in a fresh directory: the journal has
  // nothing to replay or compact.
  persist::JournalWriter journal;
  if (!journal.Open(persist::JournalPathInDir(job_dir))) {
    return fail("cannot open journal");
  }

  std::unique_ptr<models::Matcher> trained;
  {
    ScopedSpan span(&log, kTrain);
    trained = models::TrainMatcher(kind, dataset);
  }
  TimedMatcher model(std::move(trained), &log);

  persist::JobCheckpoint checkpoint;
  checkpoint.request = spec;
  checkpoint.state = "running";
  const std::string checkpoint_path = persist::CheckpointPathInDir(job_dir);
  long long fresh = 0;
  int since_flush = 0;
  auto flush = [&] {
    {
      ScopedSpan span(&log, kJournalSync);
      journal.Sync();
    }
    if (store != nullptr) {
      {
        ScopedSpan span(&log, kStoreSync);
        store->Sync();
      }
      ScopedSpan span(&log, kRefreshPeers);
      store->RefreshPeers();
    }
    checkpoint.fresh_scores = fresh;
    ScopedSpan span(&log, kCheckpoint);
    persist::SaveCheckpoint(checkpoint_path, checkpoint);
  };
  flush();

  core::CertaExplainer::Options options =
      service::ExplainerOptionsFromRequest(spec, /*include_deadline=*/false);
  options.metrics = &metrics;
  options.use_candidate_index = true;
  long long lookups = 0;
  long long puts = 0;
  if (store != nullptr && store->is_open()) {
    const uint64_t scope =
        persist::HashScope(spec.model, DatasetFingerprint(dataset));
    {
      ScopedSpan span(&log, kRefreshPeers);
      store->RefreshPeers();
    }
    options.store_probe = [store, scope, &log, &lookups](
                              const models::PairKey& key, double* score) {
      ScopedSpan span(&log, kStoreLookup);
      ++lookups;
      bool from_peer = false;
      if (!store->Lookup(scope, key, score, &from_peer)) return 0;
      return from_peer ? 2 : 1;
    };
    options.store_write = [store, scope, &log, &puts](
                              const models::PairKey& key, double score) {
      ScopedSpan span(&log, kStorePut);
      ++puts;
      store->Put(scope, key, score);
    };
  }
  options.score_observer = [&](const models::PairKey& key, double score) {
    {
      ScopedSpan span(&log, kJournalAppend);
      journal.Append(key, score);
    }
    ++fresh;
    if (++since_flush >= 256) {  // the serve default --checkpoint-every
      since_flush = 0;
      flush();
    }
  };
  options.progress = [&](const core::ExplainProgress& progress) {
    if (progress.last_tags == nullptr) phase_marks.push_back(NowNs());
    checkpoint.phase = progress.phase;
    checkpoint.triangles_total = progress.triangles_total;
    checkpoint.triangles_tagged = progress.triangles_tagged;
    checkpoint.predictions_performed = progress.predictions_performed;
    checkpoint.total_flips = progress.total_flips;
    if (progress.last_tags != nullptr) {
      checkpoint.tagged_lattices.push_back(
          progress.last_lattice->SerializeTags(*progress.last_tags));
    } else {
      flush();
    }
  };

  explain::ExplainContext context{&model, &dataset.left, &dataset.right};
  std::unique_ptr<core::CertaExplainer> explainer;
  {
    ScopedSpan span(&log, kCoreInit);
    explainer = std::make_unique<core::CertaExplainer>(context, options);
  }
  const data::LabeledPair& pair =
      dataset.test[static_cast<size_t>(spec.pair_index)];
  core::CertaResult result = explainer->Explain(
      dataset.left.record(pair.left_index),
      dataset.right.record(pair.right_index));
  {
    ScopedSpan span(&log, kToJson);
    job.result_json = core::CertaResultToJson(result, dataset.left.schema(),
                                              dataset.right.schema());
  }
  bool written = false;
  {
    ScopedSpan span(&log, kAtomicWrite);
    written = util::AtomicWriteFile(persist::ResultPathInDir(job_dir),
                                    job.result_json);
  }
  if (!written) {
    flush();
    return fail("cannot write result file");
  }
  checkpoint.state = "complete";
  checkpoint.phase = "done";
  flush();
  const int64_t run_end = NowNs();

  Summarize(log.Take(), phase_marks, run_start, run_end, &job.times);
  LayerTimes& times = job.times;
  times.batch_latency_ms =
      metrics.histogram("scoring.batch.latency_us")->sum() / 1000.0;
  times.pairs = model.pairs();
  times.batches = model.batches();
  times.lookups = lookups;
  times.puts = puts;
  times.appends = fresh;
  times.cache_hits = metrics.counter("scoring.cache.hits")->value();
  times.cache_misses = metrics.counter("scoring.cache.misses")->value();
  times.store_hits = metrics.counter("scoring.cache.store_hits")->value();
  times.predictions_expected = result.predictions_expected;
  times.predictions_saved = result.predictions_saved;
  job.ok = true;
  return job;
}

}  // namespace certa::e2ebench
