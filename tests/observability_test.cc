// Tests for the observability layer (src/obs): counter/gauge/histogram
// correctness under concurrent pool writers, quantile estimation, the
// zero-overhead-when-disabled contract, trace-event JSON schema, and
// the determinism invariant — a CertaResult is byte-identical whether
// metrics/tracing are attached or not.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/certa_explainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace certa {
namespace {

using certa::testing::FakeMatcher;
using certa::testing::MakeTable;

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (the repo has a writer, not a parser):
// validates the value grammar so snapshots/traces are known loadable.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
        while (true) {
          SkipSpace();
          if (!String()) return false;
          SkipSpace();
          if (pos_ >= text_.size() || text_[pos_] != ':') return false;
          ++pos_;
          if (!Value()) return false;
          SkipSpace();
          if (pos_ < text_.size() && text_[pos_] == ',') { ++pos_; continue; }
          break;
        }
        if (pos_ >= text_.size() || text_[pos_] != '}') return false;
        ++pos_;
        return true;
      }
      case '[': {
        ++pos_;
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
        while (true) {
          if (!Value()) return false;
          SkipSpace();
          if (pos_ < text_.size() && text_[pos_] == ',') { ++pos_; continue; }
          break;
        }
        if (pos_ >= text_.size() || text_[pos_] != ']') return false;
        ++pos_;
        return true;
      }
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool IsValidJson(std::string_view text) { return JsonChecker(text).Valid(); }

TEST(JsonCheckerTest, SelfTest) {
  EXPECT_TRUE(IsValidJson(R"({"a":[1,2.5,-3e4],"b":{"c":null},"d":"x"})"));
  EXPECT_FALSE(IsValidJson(R"({"a":})"));
  EXPECT_FALSE(IsValidJson(R"({"a":1)"));
  EXPECT_FALSE(IsValidJson("{} trailing"));
}

// ---------------------------------------------------------------------------
// Counters / gauges

TEST(MetricsTest, CounterCountsExactlyUnderConcurrency) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.counter("test.counter");
  util::ThreadPool pool(8);
  constexpr int kRounds = 200;
  constexpr int kTasks = 64;
  for (int round = 0; round < kRounds; ++round) {
    pool.ParallelFor(kTasks, [&](size_t) { counter->Increment(); });
  }
  EXPECT_EQ(counter->value(), kRounds * kTasks);
}

TEST(MetricsTest, CounterAddAccumulatesDeltas) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.counter("test.bytes");
  counter->Add(100);
  counter->Add(23);
  EXPECT_EQ(counter->value(), 123);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = registry.gauge("test.depth");
  gauge->Set(7);
  EXPECT_EQ(gauge->value(), 7);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 4);
}

TEST(MetricsTest, HandlesAreStablePerName) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.counter("same"), registry.counter("same"));
  EXPECT_NE(registry.counter("same"), registry.counter("other"));
  EXPECT_EQ(registry.histogram("h"), registry.histogram("h"));
}

TEST(MetricsTest, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry registry(/*enabled=*/false);
  obs::Counter* counter = registry.counter("test.counter");
  obs::Gauge* gauge = registry.gauge("test.gauge");
  obs::Histogram* histogram = registry.histogram("test.histogram");
  counter->Add(5);
  gauge->Set(5);
  histogram->Record(5.0);
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(histogram->count(), 0);
  registry.set_enabled(true);
  counter->Add(5);
  EXPECT_EQ(counter->value(), 5);
}

// ---------------------------------------------------------------------------
// Histograms

TEST(MetricsTest, HistogramCountSumMinMax) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.histogram("h", obs::ExponentialBuckets(1.0, 2.0, 10));
  histogram->Record(3.0);
  histogram->Record(1.0);
  histogram->Record(40.0);
  EXPECT_EQ(histogram->count(), 3);
  EXPECT_NEAR(histogram->sum(), 44.0, 1e-6);
  EXPECT_DOUBLE_EQ(histogram->min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram->max(), 40.0);
}

TEST(MetricsTest, HistogramQuantilesLandInTheRightBucket) {
  obs::MetricsRegistry registry;
  // Bounds 100, 200, ..., 1000: uniform samples 1..1000 put the true
  // p50/p95/p99 at 500/950/990; bucket interpolation must stay within
  // one bucket width.
  std::vector<double> bounds;
  for (int b = 100; b <= 1000; b += 100) bounds.push_back(b);
  obs::Histogram* histogram = registry.histogram("h", bounds);
  for (int i = 1; i <= 1000; ++i) histogram->Record(i);
  EXPECT_NEAR(histogram->Quantile(0.50), 500.0, 100.0);
  EXPECT_NEAR(histogram->Quantile(0.95), 950.0, 100.0);
  EXPECT_NEAR(histogram->Quantile(0.99), 990.0, 100.0);
  EXPECT_EQ(histogram->Quantile(0.5), histogram->Quantile(0.5));
}

TEST(MetricsTest, HistogramOverflowBucketReportsObservedMax) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.histogram("h", {1.0, 2.0});
  histogram->Record(1e9);
  EXPECT_EQ(histogram->count(), 1);
  EXPECT_DOUBLE_EQ(histogram->Quantile(0.99), 1e9);
  EXPECT_EQ(histogram->bucket_count(2), 1);  // overflow bucket
}

TEST(MetricsTest, HistogramExactCountUnderConcurrency) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.histogram("h", obs::LatencyBuckets());
  util::ThreadPool pool(8);
  constexpr int kSamples = 20000;
  pool.ParallelFor(kSamples, [&](size_t i) {
    histogram->Record(static_cast<double>(i % 1000) + 1.0);
  });
  EXPECT_EQ(histogram->count(), kSamples);
  long long bucket_total = 0;
  for (size_t b = 0; b <= histogram->bounds().size(); ++b) {
    bucket_total += histogram->bucket_count(b);
  }
  EXPECT_EQ(bucket_total, kSamples);
}

TEST(MetricsTest, SnapshotIsValidJsonWithExpectedShape) {
  obs::MetricsRegistry registry;
  registry.counter("scoring.cache.hits")->Add(3);
  registry.gauge("service.queue.depth")->Set(2);
  registry.histogram("scoring.batch.latency_us", obs::LatencyBuckets())
      ->Record(123.0);
  const std::string json = registry.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"scoring.cache.hits\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":null"), std::string::npos);  // overflow bucket
}

// ---------------------------------------------------------------------------
// Trace recorder

TEST(TraceTest, SpansRecordNameArgsAndNesting) {
  obs::TraceRecorder recorder;
  {
    obs::TraceSpan outer(&recorder, "explain");
    {
      obs::TraceSpan inner(&recorder, "phase:lattice");
      inner.AddArg("flips", 19);
    }
    outer.AddArg("status", 0);
  }
  // Inner destructs first, so it is event 0.
  EXPECT_EQ(recorder.event_count(), 2u);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"phase:lattice\""), std::string::npos);
  EXPECT_NE(json.find("\"flips\":19"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceTest, NullAndDisabledRecordersAreNoOps) {
  {
    obs::TraceSpan span(nullptr, "nothing");
    span.AddArg("k", 1);  // must not crash
  }
  obs::TraceRecorder disabled(/*enabled=*/false);
  {
    obs::TraceSpan span(&disabled, "nothing");
  }
  EXPECT_EQ(disabled.event_count(), 0u);
}

TEST(TraceTest, ConcurrentSpansGetDistinctTids) {
  obs::TraceRecorder recorder;
  util::ThreadPool pool(4);
  pool.ParallelFor(64, [&](size_t i) {
    obs::TraceSpan span(&recorder, "work");
    span.AddArg("i", static_cast<long long>(i));
  });
  EXPECT_EQ(recorder.event_count(), 64u);
  EXPECT_TRUE(IsValidJson(recorder.ToJson()));
}

// ---------------------------------------------------------------------------
// Instrumented layers

TEST(ObservabilityIntegrationTest, JournalMirrorsAppendsAndSyncs) {
  const std::string path =
      ::testing::TempDir() + "/obs_journal_" +
      std::to_string(::getpid()) + ".wal";
  obs::MetricsRegistry registry;
  persist::JournalWriter writer;
  writer.BindMetrics(&registry);
  ASSERT_TRUE(writer.Open(path));
  // Open() syncs once itself (header / truncation durability).
  const long long syncs_after_open =
      registry.counter("journal.syncs")->value();
  ASSERT_TRUE(writer.Append({1, 2}, 0.5));
  ASSERT_TRUE(writer.Append({3, 4}, 0.25));
  ASSERT_TRUE(writer.Sync());
  writer.Close();
  EXPECT_EQ(registry.counter("journal.appends")->value(), 2);
  EXPECT_GT(registry.counter("journal.bytes")->value(), 0);
  EXPECT_EQ(registry.counter("journal.syncs")->value(),
            syncs_after_open + 1);
  EXPECT_EQ(registry.histogram("journal.fsync_us")->count(),
            registry.counter("journal.syncs")->value());
  ::remove(path.c_str());
}

/// A deterministic black-box model: score depends only on the pair's
/// attribute text, so two runs over the same tables issue identical
/// call streams and scores.
double HashScore(const data::Record& u, const data::Record& v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& value : u.values) {
    for (char c : value) h = (h ^ (unsigned char)c) * 0x100000001b3ULL;
    h = (h ^ 0x1f) * 0x100000001b3ULL;
  }
  for (const std::string& value : v.values) {
    for (char c : value) h = (h ^ (unsigned char)c) * 0x100000001b3ULL;
    h = (h ^ 0x1e) * 0x100000001b3ULL;
  }
  h ^= h >> 33;
  return static_cast<double>(h % 1000) / 999.0;
}

TEST(ObservabilityIntegrationTest, CertaResultIsByteIdenticalObsOnOrOff) {
  data::Table left = MakeTable("L", {"name", "brand", "price"},
                               {{"ipad pro 11", "apple", "799"},
                                {"galaxy tab s9", "samsung", "919"},
                                {"pixel tablet", "google", "499"},
                                {"fire hd 10", "amazon", "149"},
                                {"surface go 4", "microsoft", "579"}});
  data::Table right = MakeTable("R", {"name", "brand", "price"},
                                {{"ipad pro 11 inch", "apple", "801"},
                                 {"tab s9 wifi", "samsung", "899"},
                                 {"pixel tablet 2023", "google", "489"}});
  FakeMatcher model(HashScore);
  explain::ExplainContext context{&model, &left, &right};

  auto run = [&](obs::MetricsRegistry* metrics, obs::TraceRecorder* trace,
                 core::CertaResult* result_out) {
    core::CertaExplainer::Options options;
    options.num_triangles = 4;
    options.metrics = metrics;
    options.trace = trace;
    core::CertaExplainer explainer(context, options);
    *result_out = explainer.Explain(left.record(0), right.record(0));
    return core::CertaResultToJson(*result_out, left.schema(),
                                   right.schema());
  };

  core::CertaResult result_off, result_on;
  const std::string without_obs = run(nullptr, nullptr, &result_off);
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  const std::string with_obs = run(&registry, &recorder, &result_on);

  EXPECT_EQ(without_obs, with_obs);  // byte-identical result
  // The internal cache stats (which feed CertaResult) are identical too;
  // the registry mirrors them without becoming authoritative.
  EXPECT_EQ(result_off.cache_hits, result_on.cache_hits);
  EXPECT_EQ(result_off.cache_misses, result_on.cache_misses);
  EXPECT_EQ(registry.counter("scoring.cache.hits")->value(),
            result_on.cache_hits);
  EXPECT_EQ(registry.counter("scoring.cache.misses")->value(),
            result_on.cache_misses);
  // The explainer reported phases and at least one model call.
  EXPECT_EQ(registry.counter("explain.runs")->value(), 1);
  EXPECT_GT(registry.counter("scoring.scores.computed")->value(), 0);
  EXPECT_GT(recorder.event_count(), 0u);  // explain + phase spans
  const std::string trace_json = recorder.ToJson();
  EXPECT_NE(trace_json.find("\"name\":\"explain\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"name\":\"phase:"), std::string::npos);
}

TEST(ObservabilityIntegrationTest, PhaseModelCallCountsSumToTotal) {
  data::Table left = MakeTable("L", {"a", "b"},
                               {{"one", "red"},
                                {"two", "green"},
                                {"three", "blue"},
                                {"four", "cyan"}});
  data::Table right = MakeTable("R", {"a", "b"},
                                {{"one x", "red"}, {"two y", "green"}});
  // With the cache off too: uncached single-pair calls (the pivot
  // prediction) take the engine's hook-free path and must still count.
  for (bool use_cache : {true, false}) {
    SCOPED_TRACE(use_cache ? "cached" : "uncached");
    FakeMatcher model(HashScore);
    explain::ExplainContext context{&model, &left, &right};
    obs::MetricsRegistry registry;
    core::CertaExplainer::Options options;
    options.num_triangles = 3;
    options.use_cache = use_cache;
    options.metrics = &registry;
    core::CertaExplainer explainer(context, options);
    explainer.Explain(left.record(0), right.record(0));
    const long long total =
        registry.counter("scoring.scores.computed")->value();
    long long phases = 0;
    for (const char* phase :
         {"pivot", "triangles", "lattice", "counterfactuals"}) {
      phases += registry
                    .counter(std::string("explain.phase.") + phase +
                             ".model_calls")
                    ->value();
    }
    EXPECT_EQ(phases, total);
    EXPECT_EQ(total, model.calls());
  }
}

}  // namespace
}  // namespace certa
