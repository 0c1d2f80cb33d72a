#ifndef CERTA_CORE_CERTA_EXPLAINER_H_
#define CERTA_CORE_CERTA_EXPLAINER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/lattice.h"
#include "core/triangles.h"
#include "explain/explainer.h"
#include "explain/explanation.h"
#include "explain/perturbation.h"
#include "models/resilience.h"
#include "models/scoring_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace certa::core {

/// How completely an Explain run covered its planned model calls when
/// the matcher can fail (see docs/RESILIENCE.md).
///   kComplete  — every planned call succeeded; the result is exactly
///                the fault-free answer.
///   kDegraded  — some cells were lost to model failures but every
///                phase ran to its end; counts are computed over the
///                surviving cells.
///   kTruncated — a phase stopped early (model-call budget exhausted,
///                circuit breaker open); later phases saw a prefix of
///                their planned work.
enum class ExplainStatus { kComplete = 0, kDegraded = 1, kTruncated = 2 };

/// "complete" / "degraded" / "truncated" (JSON and report labels).
std::string ExplainStatusName(ExplainStatus status);

/// Resilience accounting for one Explain phase. `calls`/`retries`/
/// `failures` come from the ResilientMatcher decorator (all zero when
/// Options::resilience is disabled); `cells_skipped` counts scoring
/// cells the phase abandoned (a lattice node, a screened candidate, a
/// counterfactual score) and is tracked even without the decorator.
struct PhaseResilience {
  long long calls = 0;
  long long retries = 0;
  long long failures = 0;
  long long cells_skipped = 0;
};

/// Full result of one CERTA run: the saliency explanation (probability
/// of necessity per attribute, Eq. 1), the counterfactual examples for
/// the golden attribute set A* (Eq. 3), and the bookkeeping the paper's
/// ablation experiments report.
struct CertaResult {
  explain::SaliencyExplanation saliency;
  std::vector<explain::CounterfactualExample> counterfactuals;

  /// χ_{A*}: probability of sufficiency of the winning attribute set.
  double best_sufficiency = 0.0;
  /// The winning changed-attribute set (side + mask); mask 0 when no
  /// flip was ever observed.
  data::Side best_side = data::Side::kLeft;
  explain::AttrMask best_mask = 0;

  /// Sufficiency χ_A per (side, mask), for every set that flipped at
  /// least once. Parallel vectors.
  std::vector<data::Side> set_sides;
  std::vector<explain::AttrMask> set_masks;
  std::vector<double> set_sufficiencies;

  /// Triangle collection stats (Table 8).
  TriangleStats triangle_stats;
  int triangles_used = 0;

  /// Lattice-tagging stats (Table 7), summed over triangles.
  long long predictions_expected = 0;   // Σ (2^l - 2)
  long long predictions_performed = 0;  // Σ tested nodes
  long long predictions_saved = 0;      // expected - performed
  /// Among saved (inferred) tags, how many disagree with the model's
  /// actual outcome; only populated when Options::audit_inferences.
  long long inference_errors = 0;

  /// Prediction-cache accounting for this run (all zero with
  /// Options::use_cache off). Deterministic: the engine probes and
  /// inserts sequentially regardless of the thread count.
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;

  /// kComplete unless model calls failed or a budget/breaker stopped a
  /// phase early; the per-phase breakdown is below.
  ExplainStatus status = ExplainStatus::kComplete;
  PhaseResilience triangle_phase;
  PhaseResilience lattice_phase;
  PhaseResilience cf_phase;
};

/// Progress snapshot handed to Options::progress at every phase
/// boundary and after each triangle's lattice is tagged — the
/// durability layer (src/persist, src/service) checkpoints from these
/// without the explainer knowing files exist.
struct ExplainProgress {
  /// "pivot" | "triangles" | "lattice" | "counterfactuals" | "done".
  const char* phase = "pivot";
  int triangles_total = 0;
  /// Lattice frontier: triangles fully tagged so far.
  int triangles_tagged = 0;
  long long predictions_performed = 0;
  long long total_flips = 0;
  /// Set only on per-triangle notifications: the lattice and tag result
  /// of the triangle just finished (valid for the callback's duration —
  /// serialize, don't store).
  const Lattice* last_lattice = nullptr;
  const Lattice::TagResult* last_tags = nullptr;
  data::Side last_side = data::Side::kLeft;
};

/// The CERTA algorithm (Algorithm 1). Implements both explainer
/// interfaces so it drops into the shared evaluation harness alongside
/// the baselines.
class CertaExplainer : public explain::SaliencyExplainer,
                       public explain::CounterfactualExplainer {
 public:
  struct Options {
    /// τ — number of open triangles (the paper uses 100).
    int num_triangles = 100;
    /// Assume monotone classification and propagate flips (Sect. 4).
    bool assume_monotone = true;
    /// Data-augmentation fallback for triangle shortage (Sect. 3.3).
    bool allow_augmentation = true;
    /// Force augmented triangles only (Tables 9-10 ablation).
    bool only_augmentation = false;
    /// Additionally test every inferred node against the model to
    /// measure the monotonicity error rate (Table 7). Costly; off by
    /// default.
    bool audit_inferences = false;
    /// Seed for triangle sampling and augmentation.
    uint64_t seed = 7;
    /// Worker threads for batched model scoring; 1 keeps everything on
    /// the calling thread. Results are bit-identical at any value.
    int num_threads = 1;
    /// Lattice triangles tagged in lockstep: each scoring batch merges
    /// the pending level of up to this many triangles' lattices, so
    /// the engine (and its pool) sees a few hundred pairs per call
    /// instead of a few dozen. Tags are bit-identical at any value
    /// (the per-triangle node order never changes — only the batch
    /// boundaries do). Clamped to >= 1.
    int lattice_group_size = 16;
    /// Memoize perturbed-pair scores for the duration of each Explain
    /// call. Bit-identical on or off (the model is deterministic); off
    /// only the call counts change.
    bool use_cache = true;
    /// When enabled, every model call goes through a per-Explain
    /// ResilientMatcher (retries, deadlines, breaker, call budget) and
    /// failures degrade the result instead of propagating; disabled,
    /// Explain is bit-identical to the pre-resilience code path.
    models::ResilienceOptions resilience;

    // -- durability hooks (src/persist, docs/OPERATIONS.md) --

    /// Invoked once per freshly computed score, sequentially, in
    /// deterministic order — the write-ahead journal's feed.
    models::ScoringEngine::ScoreObserver score_observer;
    /// Durable read-through (bound by the service/CLI layer to the
    /// job's journal on resume and the cross-job persist::ScoreStore):
    /// `store_probe` may serve a cache miss without a model call,
    /// `store_write` records every freshly computed score. Byte-identity
    /// with the hooks detached is part of the engine contract — see
    /// models::ScoringEngine::Options.
    models::ScoringEngine::Options::StoreProbe store_probe;
    models::ScoringEngine::Options::StoreWrite store_write;
    /// Answer triangle support discovery from inverted candidate
    /// indexes built once over the sources (default), instead of the
    /// reference per-probe linear scan. Results are byte-identical
    /// either way; on large sources discovery drops from O(|source| ×
    /// tokens) per probe to the matched postings only. See
    /// TriangleOptions::support_partition_min_pool — sources smaller
    /// than that threshold skip the partition and never consult either
    /// mechanism.
    bool use_candidate_index = true;
    /// Pool-size floor for the partitioned screening (forwarded to
    /// TriangleOptions::support_partition_min_pool; tests set 0 to
    /// exercise the machinery on small tables).
    size_t support_partition_min_pool = 4096;
    /// Cooperative cancellation (watchdog parking, graceful shutdown):
    /// polled at phase boundaries and between triangles; when set,
    /// Explain stops issuing work and returns a kTruncated result.
    const std::atomic<bool>* cancel = nullptr;
    /// Phase/frontier notifications; empty = zero overhead.
    std::function<void(const ExplainProgress&)> progress;

    // -- observability (src/obs, docs/OBSERVABILITY.md) --

    /// Metrics registry (not owned; nullptr = uninstrumented). Flows
    /// down to the ScoringEngine and ResilientMatcher built per
    /// Explain; the explainer itself adds explain.* phase counters.
    /// Observation-only: CertaResult is bit-identical with or without
    /// a registry attached (its counters come from the engine's own
    /// Stats, never from here).
    obs::MetricsRegistry* metrics = nullptr;
    /// Phase-span trace recorder (not owned; nullptr = no tracing).
    obs::TraceRecorder* trace = nullptr;
  };

  CertaExplainer(explain::ExplainContext context, Options options);
  CertaExplainer(explain::ExplainContext context)
      : CertaExplainer(context, Options()) {}

  std::string name() const override { return "CERTA"; }

  /// Runs Algorithm 1 end to end.
  CertaResult Explain(const data::Record& u, const data::Record& v) const;

  // SaliencyExplainer / CounterfactualExplainer adapters.
  explain::SaliencyExplanation ExplainSaliency(
      const data::Record& u, const data::Record& v) override;
  std::vector<explain::CounterfactualExample> ExplainCounterfactual(
      const data::Record& u, const data::Record& v) override;

  const Options& options() const { return options_; }

 private:
  explain::ExplainContext context_;
  Options options_;
  /// Shared across Explain calls (worker startup is not free); null when
  /// num_threads <= 1.
  std::unique_ptr<util::ThreadPool> pool_;
  /// Inverted support-candidate indexes over the sources, built once
  /// at construction when use_candidate_index is on and a source is
  /// large enough to ever consult them; null otherwise (triangle
  /// collection falls back to the linear reference scan).
  std::unique_ptr<data::CandidateIndex> left_index_;
  std::unique_ptr<data::CandidateIndex> right_index_;
};

/// JSON export of a full CERTA result (saliency, counterfactuals,
/// sufficiency table, triangle/lattice bookkeeping); see
/// explain/json_export.h for the underlying building blocks.
std::string CertaResultToJson(const CertaResult& result,
                              const data::Schema& left,
                              const data::Schema& right);

}  // namespace certa::core

#endif  // CERTA_CORE_CERTA_EXPLAINER_H_
