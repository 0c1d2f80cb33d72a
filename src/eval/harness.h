#ifndef CERTA_EVAL_HARNESS_H_
#define CERTA_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/certa_explainer.h"
#include "data/dataset.h"
#include "eval/cf_metrics.h"
#include "explain/explainer.h"
#include "models/resilience.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "util/thread_pool.h"

namespace certa::eval {

/// One fully prepared experiment cell: a synthesized benchmark, a
/// trained model behind a batched/cached scoring engine, and the
/// explainer context. Heap allocated (via Prepare) so internal pointers
/// stay stable.
struct Setup {
  data::Dataset dataset;
  models::ModelKind model_kind = models::ModelKind::kDeepEr;
  std::unique_ptr<models::Matcher> model;
  /// Shared worker pool for the cell; null when options.num_threads <= 1.
  std::unique_ptr<util::ThreadPool> pool;
  /// Thread-safe scoring layer every explainer call drains through.
  std::unique_ptr<models::ScoringEngine> engine;
  /// Deterministic fault injector installed as the explainer's model
  /// when options.fault_rate > 0; null otherwise. It wraps the raw
  /// model un-cached — like the remote service it simulates — while
  /// `engine` and test_f1 stay on the clean model.
  std::unique_ptr<models::FaultInjectingMatcher> faulty;
  explain::ExplainContext context;
  double test_f1 = 0.0;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

/// Experiment-wide knobs shared by all bench binaries. Environment
/// variables override the defaults so the full grids can be scaled up
/// without rebuilding:
///   CERTA_BENCH_PAIRS  — explained test pairs per cell (default 20)
///   CERTA_BENCH_SCALE  — dataset scale factor (default 1.0)
///   CERTA_BENCH_TRIANGLES — CERTA's τ (default 100)
///   CERTA_BENCH_THREADS — scoring threads per cell (default 1)
///   CERTA_BENCH_BUDGET — model calls per Explain, 0 = unlimited
///   CERTA_BENCH_DEADLINE_MS — per-call deadline, 0 = none
///   CERTA_BENCH_FAULT_RATE — injected fault probability (default 0)
struct HarnessOptions {
  int max_pairs = 20;
  double scale = 1.0;
  int num_triangles = 100;
  uint64_t seed = 42;
  /// Scoring threads (pool size) per cell; 1 disables the pool.
  int num_threads = 1;
  /// Prediction cache in the scoring engine / CERTA runs.
  bool use_cache = true;
  /// Resilience knobs (inert by default). Any non-default value turns
  /// the CertaExplainer resilience layer on via CertaOptionsFor.
  long long budget = 0;
  int64_t deadline_micros = 0;
  double fault_rate = 0.0;
  uint64_t fault_seed = 99;
};

/// Options with environment overrides applied.
HarnessOptions OptionsFromEnv();

/// Generates the benchmark and trains the model for one cell.
std::unique_ptr<Setup> Prepare(const std::string& dataset_code,
                               models::ModelKind kind,
                               const HarnessOptions& options);

/// The first `max_pairs` test pairs of the setup's dataset (the slice
/// every experiment explains). Test pairs are pre-shuffled by the
/// generator, so a prefix is an unbiased sample.
std::vector<data::LabeledPair> ExplainedPairs(const Setup& setup,
                                              const HarnessOptions& options);

/// Saliency methods of Tables 2-3, in column order.
const std::vector<std::string>& SaliencyMethodNames();

/// Counterfactual methods of Tables 4-6, in column order.
const std::vector<std::string>& CfMethodNames();

/// Factory for a saliency explainer by table-column name ("CERTA",
/// "LandMark", "Mojito", "SHAP").
std::unique_ptr<explain::SaliencyExplainer> MakeSaliencyExplainer(
    const std::string& method, const Setup& setup,
    const HarnessOptions& options);

/// Factory for a counterfactual explainer by table-column name
/// ("CERTA", "DiCE", "SHAP-C", "LIME-C").
std::unique_ptr<explain::CounterfactualExplainer> MakeCfExplainer(
    const std::string& method, const Setup& setup,
    const HarnessOptions& options);

/// CERTA options derived from the harness options (shared by the
/// factories and the ablation benches).
core::CertaExplainer::Options CertaOptionsFor(const HarnessOptions& options);

/// Runs one counterfactual method over the explained pairs and returns
/// the aggregated CF metrics (one cell of Tables 4-6 / Fig. 10).
CfAggregate RunCfCell(explain::CounterfactualExplainer* explainer,
                      const Setup& setup,
                      const std::vector<data::LabeledPair>& pairs);

/// Runs one saliency method over the explained pairs (the shared inner
/// loop of Tables 2-3 and Fig. 11).
std::vector<explain::SaliencyExplanation> RunSaliencyCell(
    explain::SaliencyExplainer* explainer, const Setup& setup,
    const std::vector<data::LabeledPair>& pairs);

/// Parallel cell runners: explain the pairs concurrently on the setup's
/// pool (falling back to the serial runner when there is none), one
/// fresh explainer per pair so no explainer state is shared across
/// threads. Inner CERTA threading is forced to 1 — the outer fan-out
/// owns the pool. Results are assembled in pair order.
CfAggregate RunCfCellParallel(const std::string& method, const Setup& setup,
                              const std::vector<data::LabeledPair>& pairs,
                              const HarnessOptions& options);

std::vector<explain::SaliencyExplanation> RunSaliencyCellParallel(
    const std::string& method, const Setup& setup,
    const std::vector<data::LabeledPair>& pairs,
    const HarnessOptions& options);

}  // namespace certa::eval

#endif  // CERTA_EVAL_HARNESS_H_
