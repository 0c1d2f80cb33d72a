// Micro-benchmarks (google-benchmark) for the performance-critical
// pieces, including the DESIGN.md ablation: lattice tagging with the
// monotone-propagation optimization vs exhaustive enumeration, which is
// the paper's Sect. 4/5.6 efficiency claim in isolation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/certa_explainer.h"
#include "core/lattice.h"
#include "data/benchmarks.h"
#include "eval/harness.h"
#include "explain/json_export.h"
#include "text/hashing_vectorizer.h"
#include "text/simd.h"
#include "text/similarity.h"
#include "util/json_writer.h"
#include "util/random.h"

namespace {

// --- Lattice tagging: monotone propagation vs exhaustive -------------
//
// The flip oracle simulates a model invocation (a few microseconds of
// feature work); the ablation measures how much of that cost the
// monotone propagation avoids. With a free oracle both variants would
// be bookkeeping-bound and the comparison meaningless.

double SimulatedModelCall(certa::explain::AttrMask mask) {
  double x = 1.0 + static_cast<double>(mask);
  for (int i = 0; i < 120; ++i) {
    x = x * 1.0000001 + 0.5 / x;
  }
  return x;
}

void BM_LatticeTagMonotone(benchmark::State& state) {
  const int attributes = static_cast<int>(state.range(0));
  certa::core::Lattice lattice(attributes);
  // Flip once any of the two lowest bits is present (a typical MFA of
  // two singletons), so propagation prunes most of the lattice.
  auto flips = [](certa::explain::AttrMask mask) {
    benchmark::DoNotOptimize(SimulatedModelCall(mask));
    return (mask & 3u) != 0u;
  };
  for (auto _ : state) {
    auto tags = lattice.Tag(flips, /*assume_monotone=*/true);
    benchmark::DoNotOptimize(tags.performed);
  }
}
BENCHMARK(BM_LatticeTagMonotone)->Arg(3)->Arg(5)->Arg(8)->Arg(12);

void BM_LatticeTagExhaustive(benchmark::State& state) {
  const int attributes = static_cast<int>(state.range(0));
  certa::core::Lattice lattice(attributes);
  auto flips = [](certa::explain::AttrMask mask) {
    benchmark::DoNotOptimize(SimulatedModelCall(mask));
    return (mask & 3u) != 0u;
  };
  for (auto _ : state) {
    auto tags = lattice.Tag(flips, /*assume_monotone=*/false);
    benchmark::DoNotOptimize(tags.performed);
  }
}
BENCHMARK(BM_LatticeTagExhaustive)->Arg(3)->Arg(5)->Arg(8)->Arg(12);

// --- String similarity kernels ----------------------------------------

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "sony bravia theater black micro system davis50b";
  std::string b = "sony bravia dav-is50 / b home theater system";
  for (auto _ : state) {
    benchmark::DoNotOptimize(certa::text::LevenshteinSimilarity(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_JaroWinkler(benchmark::State& state) {
  std::string a = "altec lansing inmotion";
  std::string b = "altec lansing inmotion im600";
  for (auto _ : state) {
    benchmark::DoNotOptimize(certa::text::JaroWinklerSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_AttributeSimilarity(benchmark::State& state) {
  std::string a = "sony bravia theater black micro system davis50b";
  std::string b = "sony bravia dav-is50 / b home theater system";
  for (auto _ : state) {
    benchmark::DoNotOptimize(certa::text::AttributeSimilarity(a, b));
  }
}
BENCHMARK(BM_AttributeSimilarity);

// --- Hashing vectorizer ------------------------------------------------

void BM_HashingVectorizer(benchmark::State& state) {
  certa::text::HashingVectorizer vectorizer(96);
  std::vector<std::string> tokens = {"sony",  "bravia", "theater",
                                     "black", "micro",  "system",
                                     "davis50b"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(vectorizer.TransformNormalized(tokens));
  }
}
BENCHMARK(BM_HashingVectorizer);

// --- Model scoring and full CERTA explanations -------------------------

struct Fixture {
  std::unique_ptr<certa::eval::Setup> setup;
  Fixture() {
    certa::eval::HarnessOptions options;
    setup = certa::eval::Prepare("AB", certa::models::ModelKind::kDitto,
                                 options);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_ModelScore(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const auto& pair = fixture.setup->dataset.test.front();
  const auto& u = fixture.setup->dataset.left.record(pair.left_index);
  const auto& v = fixture.setup->dataset.right.record(pair.right_index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.setup->model->Score(u, v));
  }
}
BENCHMARK(BM_ModelScore);

void BM_CertaExplainCached(benchmark::State& state) {
  // Warm-cache regime: how the evaluation harness actually runs, where
  // repeated perturbations hit the scoring engine's prediction cache.
  Fixture& fixture = GetFixture();
  certa::core::CertaExplainer::Options options;
  options.num_triangles = static_cast<int>(state.range(0));
  certa::core::CertaExplainer explainer(fixture.setup->context, options);
  const auto& pair = fixture.setup->dataset.test.front();
  const auto& u = fixture.setup->dataset.left.record(pair.left_index);
  const auto& v = fixture.setup->dataset.right.record(pair.right_index);
  for (auto _ : state) {
    certa::core::CertaResult result = explainer.Explain(u, v);
    benchmark::DoNotOptimize(result.triangles_used);
  }
}
BENCHMARK(BM_CertaExplainCached)->Arg(10)->Arg(100)->Unit(
    benchmark::kMillisecond);

void BM_CertaExplainUncached(benchmark::State& state) {
  // Cold regime: every perturbation pays a real model invocation, so
  // the cost scales with τ and with the monotone savings.
  Fixture& fixture = GetFixture();
  certa::explain::ExplainContext raw_context{
      fixture.setup->model.get(), &fixture.setup->dataset.left,
      &fixture.setup->dataset.right};
  certa::core::CertaExplainer::Options options;
  options.num_triangles = static_cast<int>(state.range(0));
  certa::core::CertaExplainer explainer(raw_context, options);
  const auto& pair = fixture.setup->dataset.test.front();
  const auto& u = fixture.setup->dataset.left.record(pair.left_index);
  const auto& v = fixture.setup->dataset.right.record(pair.right_index);
  for (auto _ : state) {
    certa::core::CertaResult result = explainer.Explain(u, v);
    benchmark::DoNotOptimize(result.triangles_used);
  }
}
BENCHMARK(BM_CertaExplainUncached)->Arg(10)->Arg(50)->Arg(100)->Unit(
    benchmark::kMillisecond);

// --- Scalar vs vectorized kernel comparison ----------------------------
//
// Times each simd::scalar kernel against its simd::vec counterpart on a
// fixed deterministic workload and writes the per-kernel speedups to
// BENCH_micro.json (path overridable via CERTA_BENCH_MICRO_JSON). The
// differential tests (tests/simd_kernel_test.cc) prove the two variants
// bit-identical; this measures what the restructuring buys.

namespace simd = certa::text::simd;

std::string RandomWord(certa::Rng* rng, int min_len, int max_len) {
  int len = rng->UniformInt(min_len, max_len);
  std::string s;
  s.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng->UniformInt(0, 25)));
  }
  return s;
}

/// Best-of-reps nanoseconds per call of `fn` (which runs one pass over
/// the whole workload and returns a checksum to defeat DCE).
double TimeKernelNs(const std::function<uint64_t()>& fn, int calls_per_pass) {
  uint64_t sink = fn();  // warm-up
  benchmark::DoNotOptimize(sink);
  const int reps = 5;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    sink ^= fn();
    auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sink);
    double ns = std::chrono::duration<double, std::nano>(stop - start)
                    .count() /
                calls_per_pass;
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

struct KernelRow {
  const char* name;
  double scalar_ns = 0.0;
  double vector_ns = 0.0;
};

int WriteKernelSummary() {
  certa::Rng rng(0x5eed);
  std::vector<KernelRow> rows;

  {  // Levenshtein over realistic attribute-length strings (< 64 chars,
     // the Myers bit-parallel window).
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int i = 0; i < 64; ++i) {
      pairs.emplace_back(RandomWord(&rng, 30, 60), RandomWord(&rng, 30, 60));
    }
    auto pass = [&pairs](auto&& kernel) {
      uint64_t sum = 0;
      for (const auto& [a, b] : pairs) {
        sum += static_cast<uint64_t>(kernel(a, b));
      }
      return sum;
    };
    KernelRow row{"levenshtein"};
    row.scalar_ns = TimeKernelNs(
        [&] { return pass(simd::scalar::LevenshteinDistance); },
        static_cast<int>(pairs.size()));
    row.vector_ns = TimeKernelNs(
        [&] { return pass(simd::vec::LevenshteinDistance); },
        static_cast<int>(pairs.size()));
    rows.push_back(row);
  }

  {  // Sorted-u64 intersection at trigram-shingle sizes.
    auto make_sorted = [&rng](size_t n) {
      std::vector<uint64_t> values;
      values.reserve(n);
      for (size_t i = 0; i < n; ++i) values.push_back(rng.UniformUint64(512));
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      return values;
    };
    std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>
        sets;
    for (int i = 0; i < 64; ++i) {
      sets.emplace_back(make_sorted(200), make_sorted(200));
    }
    auto pass = [&sets](auto&& kernel) {
      uint64_t sum = 0;
      for (const auto& [a, b] : sets) {
        sum += kernel(a.data(), a.size(), b.data(), b.size());
      }
      return sum;
    };
    KernelRow row{"sorted_intersection"};
    row.scalar_ns = TimeKernelNs(
        [&] { return pass(simd::scalar::SortedIntersectionCount); },
        static_cast<int>(sets.size()));
    row.vector_ns = TimeKernelNs(
        [&] { return pass(simd::vec::SortedIntersectionCount); },
        static_cast<int>(sets.size()));
    rows.push_back(row);
  }

  {  // Token-count cosine at serialized-record lengths.
    std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
        bags;
    for (int i = 0; i < 32; ++i) {
      std::vector<std::string> a;
      std::vector<std::string> b;
      for (int t = 0; t < 40; ++t) a.push_back(RandomWord(&rng, 2, 8));
      for (int t = 0; t < 40; ++t) b.push_back(RandomWord(&rng, 2, 8));
      bags.emplace_back(std::move(a), std::move(b));
    }
    auto pass = [&bags](auto&& kernel) {
      uint64_t sum = 0;
      for (const auto& [a, b] : bags) {
        sum += static_cast<uint64_t>(kernel(a, b) * 1e6);
      }
      return sum;
    };
    KernelRow row{"cosine_token"};
    row.scalar_ns = TimeKernelNs(
        [&] { return pass(simd::scalar::CosineTokenSimilarity); },
        static_cast<int>(bags.size()));
    row.vector_ns = TimeKernelNs(
        [&] { return pass(simd::vec::CosineTokenSimilarity); },
        static_cast<int>(bags.size()));
    rows.push_back(row);
  }

  {  // 4-gram window hashing over attribute-sized values.
    std::vector<std::string> values;
    for (int i = 0; i < 64; ++i) {
      std::string padded(1, ' ');
      padded += RandomWord(&rng, 30, 60);
      padded.push_back(' ');
      values.push_back(std::move(padded));
    }
    auto pass = [&values](auto&& kernel) {
      uint64_t sum = 0;
      std::vector<uint64_t> hashes;
      for (const std::string& padded : values) {
        hashes.clear();
        kernel(padded, 4, 0xD1770, &hashes);
        for (uint64_t h : hashes) sum ^= h;
      }
      return sum;
    };
    KernelRow row{"ngram_window_hash"};
    row.scalar_ns = TimeKernelNs(
        [&] { return pass(simd::scalar::AppendNgramWindowHashes); },
        static_cast<int>(values.size()));
    row.vector_ns = TimeKernelNs(
        [&] { return pass(simd::vec::AppendNgramWindowHashes); },
        static_cast<int>(values.size()));
    rows.push_back(row);
  }

  certa::JsonWriter json;
  json.BeginObject();
  json.Key("benchmark");
  json.String("perf_micro");
  json.Key("kernels_active");
  json.String(simd::ActiveModeName());
  json.Key("kernels");
  json.BeginArray();
  for (const KernelRow& row : rows) {
    json.BeginObject();
    json.Key("name");
    json.String(row.name);
    json.Key("scalar_ns_per_op");
    json.Number(row.scalar_ns);
    json.Key("vector_ns_per_op");
    json.Number(row.vector_ns);
    json.Key("speedup");
    json.Number(row.vector_ns > 0.0 ? row.scalar_ns / row.vector_ns : 0.0);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const char* path_env = std::getenv("CERTA_BENCH_MICRO_JSON");
  std::string path = path_env != nullptr ? path_env : "BENCH_micro.json";
  if (!certa::explain::SaveJsonFile(path, json.str())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\n%-20s %12s %12s %8s\n", "kernel", "scalar_ns", "vector_ns",
              "speedup");
  for (const KernelRow& row : rows) {
    std::printf("%-20s %12.1f %12.1f %7.2fx\n", row.name, row.scalar_ns,
                row.vector_ns,
                row.vector_ns > 0.0 ? row.scalar_ns / row.vector_ns : 0.0);
  }
  std::printf("kernel summary written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return WriteKernelSummary();
}
