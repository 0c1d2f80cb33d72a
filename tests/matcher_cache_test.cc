// Trained-matcher reuse (labels: concurrency;durability): the
// process-wide models::MatcherCache keyed by (kind, training
// fingerprint), and the durable runner taking its model from it. A job
// served from a cached model must produce the same result bytes as a
// process that trained its own.
#include "models/matcher_cache.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "service/job_runner.h"
#include "test_util.h"

#ifndef CERTA_CLI_PATH
#error "CERTA_CLI_PATH must be defined to the certa CLI binary path"
#endif

namespace certa {
namespace {

namespace fs = std::filesystem;
using models::MatcherCache;
using models::ModelKind;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("certa_matcher_cache_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

long long Count(obs::MetricsRegistry& registry, const std::string& name) {
  return registry.counter("models.matcher_cache." + name)->value();
}

/// Two-attribute dataset small enough to train in microseconds, so the
/// eviction test can fill the whole cache. Left record 3 is referenced
/// by the test pair only.
data::Dataset ToyDataset() {
  data::Dataset dataset;
  dataset.left = testing::MakeTable(
      "L", {"name", "city"},
      {{"anna smith", "rome"}, {"bob jones", "paris"},
       {"carl white", "oslo"}, {"dora black", "lima"}});
  dataset.right = testing::MakeTable(
      "R", {"name", "city"},
      {{"anna smith", "roma"}, {"bob jonas", "paris"},
       {"karl white", "oslo"}, {"zed green", "kyiv"}});
  dataset.train = {{0, 0, 1}, {1, 1, 1}, {2, 2, 1},
                   {0, 1, 0}, {1, 2, 0}, {2, 3, 0}};
  dataset.test = {{3, 3, 0}};
  return dataset;
}

/// `table` with one value replaced.
data::Table WithValue(const data::Table& table, int index, int attribute,
                      const std::string& value) {
  data::Table copy(table.name(), table.schema());
  for (int i = 0; i < table.size(); ++i) {
    data::Record record = table.record(i);
    if (i == index) record.values[static_cast<size_t>(attribute)] = value;
    copy.Add(std::move(record));
  }
  return copy;
}

service::JobSpec SmallJob(const std::string& id) {
  service::JobSpec spec;
  spec.id = id;
  spec.dataset = "AB";
  spec.model = "svm";
  spec.pair_index = 0;
  spec.triangles = 10;
  return spec;
}

/// result.json of `spec` from `certa explain --job-dir` in a process of
/// its own, whose matcher cache starts empty.
std::string FreshProcessResult(const service::JobSpec& spec,
                               const std::string& dir) {
  const std::string command =
      std::string(CERTA_CLI_PATH) + " explain --dataset " + spec.dataset +
      " --model " + spec.model + " --pair " +
      std::to_string(spec.pair_index) + " --triangles " +
      std::to_string(spec.triangles) + " --threads " +
      std::to_string(spec.threads) + " --job-dir " + dir +
      " > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  return ReadAll(persist::ResultPathInDir(dir));
}

// ---------------------------------------------------------------------
// The cache itself.

TEST(MatcherCacheTest, SameKeyHitsAndAnotherModelKindMisses) {
  MatcherCache cache;
  obs::MetricsRegistry registry;
  obs::TraceRecorder trace;
  const data::Dataset dataset = ToyDataset();
  const uint64_t key = models::TrainingFingerprint(dataset);

  const auto svm =
      cache.Get(ModelKind::kSvm, key, dataset, &registry, &trace);
  EXPECT_EQ(cache.Get(ModelKind::kSvm, key, dataset, &registry, &trace),
            svm);
  const auto deeper =
      cache.Get(ModelKind::kDeepEr, key, dataset, &registry, &trace);
  EXPECT_NE(deeper, svm);
  EXPECT_EQ(deeper->name(), "DeepER");

  EXPECT_EQ(Count(registry, "hits"), 1);
  EXPECT_EQ(Count(registry, "misses"), 2);
  EXPECT_EQ(Count(registry, "evictions"), 0);
  EXPECT_EQ(registry.histogram("models.train_us")->count(), 2);
  const std::string spans = trace.ToJson();
  EXPECT_NE(spans.find("\"name\":\"train\""), std::string::npos) << spans;
  EXPECT_NE(spans.find("\"cache_hit\":1"), std::string::npos) << spans;
  EXPECT_NE(spans.find("\"cache_hit\":0"), std::string::npos) << spans;
}

TEST(MatcherCacheTest, ChangedTrainingValueMisses) {
  MatcherCache cache;
  obs::MetricsRegistry registry;
  const data::Dataset dataset = ToyDataset();
  const uint64_t key = models::TrainingFingerprint(dataset);
  const auto trained =
      cache.Get(ModelKind::kSvm, key, dataset, &registry, nullptr);

  // A record no train pair references is not part of the model.
  data::Dataset test_side = dataset;
  test_side.left = WithValue(dataset.left, 3, 0, "dora blanc");
  EXPECT_EQ(models::TrainingFingerprint(test_side), key);

  // One changed value in a training record is a different model.
  data::Dataset train_side = dataset;
  train_side.right = WithValue(dataset.right, 0, 1, "rome");
  const uint64_t changed = models::TrainingFingerprint(train_side);
  EXPECT_NE(changed, key);
  EXPECT_NE(cache.Get(ModelKind::kSvm, changed, train_side, &registry,
                      nullptr),
            trained);
  EXPECT_EQ(Count(registry, "hits"), 0);
  EXPECT_EQ(Count(registry, "misses"), 2);
}

TEST(MatcherCacheTest, CapacityPlusOneEvictsLeastRecentlyUsed) {
  MatcherCache cache;
  obs::MetricsRegistry registry;
  const data::Dataset dataset = ToyDataset();
  std::vector<std::shared_ptr<const models::Matcher>> trained;
  for (uint64_t key = 0; key < MatcherCache::kCapacity; ++key) {
    trained.push_back(
        cache.Get(ModelKind::kSvm, key, dataset, &registry, nullptr));
  }
  EXPECT_EQ(Count(registry, "evictions"), 0);

  // Touch key 0, so key 1 is the least recently used.
  EXPECT_EQ(cache.Get(ModelKind::kSvm, 0, dataset, &registry, nullptr),
            trained[0]);
  cache.Get(ModelKind::kSvm, MatcherCache::kCapacity, dataset, &registry,
            nullptr);
  EXPECT_EQ(Count(registry, "evictions"), 1);
  EXPECT_EQ(cache.Get(ModelKind::kSvm, 0, dataset, &registry, nullptr),
            trained[0]);

  const long long misses = Count(registry, "misses");
  const auto retrained =
      cache.Get(ModelKind::kSvm, 1, dataset, &registry, nullptr);
  EXPECT_EQ(Count(registry, "misses"), misses + 1);
  EXPECT_NE(retrained, trained[1]);
  // The evicted model stays alive, and usable, for whoever holds it.
  const data::Record& left = dataset.left.record(0);
  const data::Record& right = dataset.right.record(0);
  EXPECT_EQ(trained[1]->Score(left, right), retrained->Score(left, right));
}

// ---------------------------------------------------------------------
// Durable jobs served from the cache.

TEST(MatcherCacheRunnerTest, SecondJobReusesModelAndBothMatchFreshProcess) {
  ScratchDir scratch("reuse");
  const std::string reference =
      FreshProcessResult(SmallJob("cli"), scratch.dir() + "/fresh");
  ASSERT_FALSE(reference.empty());

  obs::MetricsRegistry registry;
  service::JobRunnerOptions options;
  options.job_root = scratch.dir() + "/jobs";
  options.metrics = &registry;
  service::JobRunner runner(options);
  for (const char* id : {"first", "second"}) {
    ASSERT_TRUE(runner.Submit(SmallJob(id)).accepted);
    runner.Wait();
  }
  // The second job (at least) takes the model the first one trained.
  EXPECT_GE(Count(registry, "hits"), 1);
  EXPECT_EQ(Count(registry, "hits") + Count(registry, "misses"), 2);
  for (const char* id : {"first", "second"}) {
    EXPECT_EQ(ReadAll(persist::ResultPathInDir(options.job_root + "/" + id)),
              reference)
        << id;
  }
}

TEST(MatcherCacheRunnerTest, ResumeWithWarmCacheMatchesFreshProcess) {
  ScratchDir scratch("resume");
  const service::JobSpec spec = SmallJob("resume");
  const std::string reference =
      FreshProcessResult(spec, scratch.dir() + "/fresh");
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(service::RunDurableExplain(spec, scratch.dir() + "/warm",
                                       service::DurableRunOptions())
                .state,
            service::JobState::kComplete);

  // Park a run after a few heartbeats, then resume it: both runs take
  // the model the warm-up trained.
  obs::MetricsRegistry registry;
  std::atomic<bool> cancel{false};
  int beats = 0;
  service::DurableRunOptions options;
  options.checkpoint_every = 4;
  options.metrics = &registry;
  options.cancel = &cancel;
  options.heartbeat = [&] {
    if (++beats >= 12) cancel.store(true);
  };
  const std::string job_dir = scratch.dir() + "/job";
  ASSERT_EQ(service::RunDurableExplain(spec, job_dir, options).state,
            service::JobState::kParked);
  service::DurableRunOptions resume_options;
  resume_options.metrics = &registry;
  const service::JobOutcome resumed =
      service::RunDurableExplain(spec, job_dir, resume_options);
  ASSERT_EQ(resumed.state, service::JobState::kComplete) << resumed.error;
  EXPECT_GT(resumed.replayed_scores, 0);
  EXPECT_EQ(Count(registry, "hits"), 2);
  EXPECT_EQ(Count(registry, "misses"), 0);
  EXPECT_EQ(resumed.result_json, reference);
  EXPECT_EQ(ReadAll(persist::ResultPathInDir(job_dir)), reference);
}

TEST(MatcherCacheRunnerTest, FourWorkersShareOneModelConcurrently) {
  ScratchDir scratch("concurrent");
  constexpr int kJobs = 4;
  std::vector<service::JobSpec> specs;
  std::vector<std::string> references;
  for (int i = 0; i < kJobs; ++i) {
    service::JobSpec spec = SmallJob("pair-" + std::to_string(i));
    spec.pair_index = i;
    spec.threads = 2;  // pool threads score on the shared model too
    specs.push_back(spec);
    references.push_back(FreshProcessResult(
        spec, scratch.dir() + "/fresh-" + std::to_string(i)));
    ASSERT_FALSE(references.back().empty()) << i;
  }

  obs::MetricsRegistry registry;
  service::JobRunnerOptions options;
  options.job_root = scratch.dir() + "/jobs";
  options.workers = kJobs;
  options.queue_capacity = kJobs;
  options.metrics = &registry;
  service::JobRunner runner(options);
  for (const service::JobSpec& spec : specs) {
    ASSERT_TRUE(runner.Submit(spec).accepted);
  }
  runner.Wait();
  EXPECT_EQ(runner.counters().completed, kJobs);
  // Concurrent misses on one key may each train; every job counts once.
  EXPECT_EQ(Count(registry, "hits") + Count(registry, "misses"), kJobs);
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(ReadAll(persist::ResultPathInDir(options.job_root + "/" +
                                               specs[i].id)),
              references[static_cast<size_t>(i)])
        << i;
  }
}

}  // namespace
}  // namespace certa
