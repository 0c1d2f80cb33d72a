// Scaling benchmark for the batched + cached + pooled scoring engine:
// CertaExplainer::Explain end to end under four regimes —
//
//   serial   per-pair Score through an adapter that hides the model's
//            ScoreBatch override (the pre-engine hot path), no cache
//   batched  model-level ScoreBatch amortization, no cache
//   cached   batched + the prediction cache
//   pooled   batched + cached + a worker pool at 1/2/4/8 threads
//
// Every regime must produce a bit-identical CertaResult (verified via
// the JSON export before any timing is reported). Besides the
// google-benchmark output, the binary writes a machine-readable summary
// to BENCH_perf.json (path overridable via CERTA_BENCH_PERF_JSON) with
// per-regime wall times, speedups over the serial baseline, and the CPU
// time of the whole process and of the calling thread alone (what the
// pool cannot spread), plus the git sha and build type measured.

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "explain/json_export.h"
#include "models/trainer.h"
#include "text/simd.h"
#include "util/json_writer.h"
#include "util/thread_pool.h"

namespace {

using certa::core::CertaExplainer;
using certa::core::CertaResult;
using certa::core::CertaResultToJson;

/// Presents the wrapped model with its ScoreBatch override hidden: the
/// inherited default loops per-pair Score, so explaining through this
/// adapter reproduces the pre-engine serial scoring cost.
class SerialAdapter : public certa::models::Matcher {
 public:
  explicit SerialAdapter(const certa::models::Matcher* base) : base_(base) {}
  double Score(const certa::data::Record& u,
               const certa::data::Record& v) const override {
    return base_->Score(u, v);
  }
  std::string name() const override { return base_->name(); }

 private:
  const certa::models::Matcher* base_;
};

struct Regime {
  std::string key;
  bool serial_model = false;  // score through SerialAdapter
  bool use_cache = false;
  int num_threads = 1;
};

std::vector<Regime> Regimes() {
  return {
      {"serial", true, false, 1},
      {"batched", false, false, 1},
      {"cached", false, true, 1},
      {"pooled_1", false, true, 1},
      {"pooled_2", false, true, 2},
      {"pooled_4", false, true, 4},
      {"pooled_8", false, true, 8},
  };
}

certa::models::ModelKind ModelFromEnv() {
  const char* name = std::getenv("CERTA_BENCH_MODEL");
  if (name == nullptr) return certa::models::ModelKind::kDitto;
  std::string value = name;
  if (value == "DeepER") return certa::models::ModelKind::kDeepEr;
  if (value == "DeepMatcher") return certa::models::ModelKind::kDeepMatcher;
  if (value == "SVM") return certa::models::ModelKind::kSvm;
  return certa::models::ModelKind::kDitto;
}

struct Fixture {
  std::string dataset_code;
  certa::data::Dataset dataset;
  std::unique_ptr<certa::models::Matcher> model;
  std::unique_ptr<SerialAdapter> serial_model;
  std::vector<certa::models::RecordPair> pairs;  // explained inputs

  Fixture() {
    // FZ's six attributes give a 62-node lattice per side — a scoring
    // mix representative of the paper's mid-size schemas. Overridable
    // for scaling studies on other generators.
    const char* code = std::getenv("CERTA_BENCH_DATASET");
    dataset_code = code != nullptr ? code : "FZ";
    dataset = certa::data::MakeBenchmark(dataset_code);
    model = certa::models::TrainMatcher(ModelFromEnv(), dataset);
    serial_model = std::make_unique<SerialAdapter>(model.get());
    const size_t max_pairs = 4;
    for (const certa::data::LabeledPair& pair : dataset.test) {
      if (pairs.size() >= max_pairs) break;
      pairs.push_back({&dataset.left.record(pair.left_index),
                       &dataset.right.record(pair.right_index)});
    }
  }

  CertaExplainer MakeExplainer(const Regime& regime) const {
    certa::explain::ExplainContext context{
        regime.serial_model
            ? static_cast<const certa::models::Matcher*>(serial_model.get())
            : model.get(),
        &dataset.left, &dataset.right};
    CertaExplainer::Options options;
    // τ = 100 is the paper's default; cache reuse across triangles is a
    // large part of the engine's win, so the bench keeps it.
    const char* triangles = std::getenv("CERTA_BENCH_TRIANGLES");
    options.num_triangles =
        triangles != nullptr ? std::max(2, std::atoi(triangles)) : 100;
    options.use_cache = regime.use_cache;
    options.num_threads = regime.num_threads;
    return CertaExplainer(context, options);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_ExplainRegime(benchmark::State& state, const Regime& regime) {
  Fixture& fixture = GetFixture();
  CertaExplainer explainer = fixture.MakeExplainer(regime);
  size_t next = 0;
  for (auto _ : state) {
    const auto& pair = fixture.pairs[next++ % fixture.pairs.size()];
    CertaResult result = explainer.Explain(*pair.left, *pair.right);
    benchmark::DoNotOptimize(result.triangles_used);
  }
}

void RegisterBenchmarks() {
  for (const Regime& regime : Regimes()) {
    benchmark::RegisterBenchmark(("BM_Explain/" + regime.key).c_str(),
                                 [regime](benchmark::State& state) {
                                   BM_ExplainRegime(state, regime);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
}

/// JSON payload of a result with the cache counters zeroed (they
/// legitimately differ across regimes; everything else must not).
std::string ComparableJson(CertaResult result, const Fixture& fixture) {
  result.cache_hits = 0;
  result.cache_misses = 0;
  result.cache_evictions = 0;
  return CertaResultToJson(result, fixture.dataset.left.schema(),
                           fixture.dataset.right.schema());
}

/// Repetitions per regime (>= 5 so the min and median are meaningful
/// on a shared machine; CERTA_BENCH_REPS raises it for quieter boxes).
int SweepReps() {
  const char* reps = std::getenv("CERTA_BENCH_REPS");
  return reps != nullptr ? std::max(5, std::atoi(reps)) : 7;
}

/// CPU milliseconds spent so far by `who` (RUSAGE_SELF: every thread
/// of the process; RUSAGE_THREAD: the calling thread).
double CpuMillis(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
}

/// First line of a shell command's output, or "" when it prints none.
std::string FirstLine(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  char buffer[256] = {};
  std::string line = std::fgets(buffer, sizeof(buffer), pipe) != nullptr
                         ? buffer
                         : "";
  pclose(pipe);
  while (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

/// HEAD of the source checkout at run time, with "-dirty" when tracked
/// files differ from it; "unknown" outside a git checkout.
std::string GitSha() {
  const std::string git = std::string("git -C '") + CERTA_SOURCE_DIR + "' ";
  std::string sha = FirstLine(git + "rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  if (!FirstLine(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    sha += "-dirty";
  }
  return sha;
}

/// Wall and CPU time of one regime's sweeps: each the minimum over the
/// repetitions, plus the median wall time.
struct SweepTiming {
  double min_ms = 0.0;
  double median_ms = 0.0;
  double process_cpu_ms = 0.0;
  double caller_cpu_ms = 0.0;
};

/// Times `SweepReps()` full sweeps over the explained pairs; fills
/// `payloads` with the comparable JSON of each result (warm-up
/// repetition only). The minimum is the least noise-contaminated
/// estimate; the median shows how far the tail sits from it.
SweepTiming SweepMillis(const Regime& regime, const Fixture& fixture,
                        std::vector<std::string>* payloads) {
  CertaExplainer explainer = fixture.MakeExplainer(regime);
  // Warm-up run outside the clock (thread spawn, allocator steady
  // state); also the run whose payloads are compared across regimes.
  for (const auto& pair : fixture.pairs) {
    CertaResult result = explainer.Explain(*pair.left, *pair.right);
    if (payloads != nullptr) {
      payloads->push_back(ComparableJson(std::move(result), fixture));
    }
  }
  const int reps = SweepReps();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  SweepTiming timing;
  for (int rep = 0; rep < reps; ++rep) {
    const double process_start = CpuMillis(RUSAGE_SELF);
    const double caller_start = CpuMillis(RUSAGE_THREAD);
    auto start = std::chrono::steady_clock::now();
    for (const auto& pair : fixture.pairs) {
      CertaResult result = explainer.Explain(*pair.left, *pair.right);
      benchmark::DoNotOptimize(result.triangles_used);
    }
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    const double process_ms = CpuMillis(RUSAGE_SELF) - process_start;
    const double caller_ms = CpuMillis(RUSAGE_THREAD) - caller_start;
    timing.process_cpu_ms =
        rep == 0 ? process_ms : std::min(timing.process_cpu_ms, process_ms);
    timing.caller_cpu_ms =
        rep == 0 ? caller_ms : std::min(timing.caller_cpu_ms, caller_ms);
  }
  std::sort(samples.begin(), samples.end());
  timing.min_ms = samples.front();
  timing.median_ms = samples[samples.size() / 2];
  return timing;
}

int WriteSummary() {
  Fixture& fixture = GetFixture();
  if (fixture.pairs.empty()) {
    std::fprintf(stderr, "no test pairs to explain\n");
    return 1;
  }

  std::vector<Regime> regimes = Regimes();
  std::vector<SweepTiming> millis;
  std::vector<std::vector<std::string>> payloads(regimes.size());
  for (size_t r = 0; r < regimes.size(); ++r) {
    millis.push_back(SweepMillis(regimes[r], fixture, &payloads[r]));
  }

  // Identity check: every regime's explanations must match the serial
  // baseline's exactly.
  bool identical = true;
  for (size_t r = 1; r < regimes.size(); ++r) {
    if (payloads[r] != payloads[0]) {
      identical = false;
      std::fprintf(stderr, "FAIL: regime %s diverges from serial output\n",
                   regimes[r].key.c_str());
    }
  }

  const double serial_ms = millis[0].min_ms;
  certa::JsonWriter json;
  json.BeginObject();
  json.Key("benchmark");
  json.String("perf_scaling");
  json.Key("git_sha");
  json.String(GitSha());
  json.Key("build_type");
  json.String(CERTA_BUILD_TYPE);
  json.Key("dataset");
  json.String(fixture.dataset_code);
  json.Key("model");
  json.String(fixture.model->name());
  json.Key("pairs_per_sweep");
  json.Int(static_cast<long long>(fixture.pairs.size()));
  json.Key("reps");
  json.Int(SweepReps());
  // Thread scaling is only physically possible up to this: with one
  // hardware thread every pooled_N row measures the same serialized
  // execution plus pool bookkeeping, and the wins must come from the
  // batch/cache/kernel layers instead.
  json.Key("hardware_threads");
  json.Int(certa::util::ThreadPool::HardwareThreads());
  json.Key("kernels");
  json.String(certa::text::simd::ActiveModeName());
  json.Key("results_identical");
  json.Bool(identical);
  json.Key("regimes");
  json.BeginArray();
  for (size_t r = 0; r < regimes.size(); ++r) {
    json.BeginObject();
    json.Key("name");
    json.String(regimes[r].key);
    json.Key("threads");
    json.Int(regimes[r].num_threads);
    json.Key("cache");
    json.Bool(regimes[r].use_cache);
    json.Key("sweep_ms");
    json.Number(millis[r].min_ms);
    json.Key("sweep_ms_median");
    json.Number(millis[r].median_ms);
    json.Key("speedup_vs_serial");
    json.Number(millis[r].min_ms > 0.0 ? serial_ms / millis[r].min_ms : 0.0);
    json.Key("process_cpu_ms");
    json.Number(millis[r].process_cpu_ms);
    json.Key("caller_cpu_ms");
    json.Number(millis[r].caller_cpu_ms);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const char* path_env = std::getenv("CERTA_BENCH_PERF_JSON");
  std::string path = path_env != nullptr ? path_env : "BENCH_perf.json";
  if (!certa::explain::SaveJsonFile(path, json.str())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }

  std::printf("\n%-10s %8s %8s %8s %8s %8s\n", "regime", "min_ms", "med_ms",
              "speedup", "proc_cpu", "call_cpu");
  for (size_t r = 0; r < regimes.size(); ++r) {
    std::printf("%-10s %8.2f %8.2f %7.2fx %8.2f %8.2f\n",
                regimes[r].key.c_str(), millis[r].min_ms, millis[r].median_ms,
                millis[r].min_ms > 0.0 ? serial_ms / millis[r].min_ms : 0.0,
                millis[r].process_cpu_ms, millis[r].caller_cpu_ms);
  }
  std::printf("results identical across regimes: %s\n",
              identical ? "yes" : "NO");
  std::printf("summary written to %s\n", path.c_str());
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return WriteSummary();
}
