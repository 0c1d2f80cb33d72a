#include "core/certa_explainer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "core/lattice.h"
#include "explain/perturbation.h"
#include "models/scoring_engine.h"
#include "util/logging.h"

namespace certa::core {
namespace {

using explain::AttrMask;

/// Content hash of the pair, mixed into the explainer seed so triangle
/// sampling differs across inputs but is stable across runs.
uint64_t PairHash(const data::Record& u, const data::Record& v) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](const std::string& value) {
    for (char c : value) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    hash ^= 0x1f;
    hash *= 0x100000001b3ULL;
  };
  for (const std::string& value : u.values) mix(value);
  for (const std::string& value : v.values) mix(value);
  return hash;
}

}  // namespace

std::string ExplainStatusName(ExplainStatus status) {
  switch (status) {
    case ExplainStatus::kComplete:
      return "complete";
    case ExplainStatus::kDegraded:
      return "degraded";
    case ExplainStatus::kTruncated:
      return "truncated";
  }
  return "unknown";
}

CertaExplainer::CertaExplainer(explain::ExplainContext context,
                               Options options)
    : context_(context), options_(options) {
  CERTA_CHECK(context_.valid());
  CERTA_CHECK_GT(options_.num_triangles, 0);
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
  }
  if (options_.use_candidate_index) {
    // Build only for sources the partition threshold will ever consult
    // — indexing a small table would be pure constructor waste.
    const size_t min_pool = options_.support_partition_min_pool;
    if (static_cast<size_t>(context_.left->size()) >= min_pool) {
      left_index_ = std::make_unique<data::CandidateIndex>(*context_.left);
    }
    if (static_cast<size_t>(context_.right->size()) >= min_pool) {
      right_index_ = std::make_unique<data::CandidateIndex>(*context_.right);
    }
  }
}

CertaResult CertaExplainer::Explain(const data::Record& u,
                                    const data::Record& v) const {
  const int left_attributes = context_.left->schema().size();
  const int right_attributes = context_.right->schema().size();
  CertaResult result;
  result.saliency =
      explain::SaliencyExplanation(left_attributes, right_attributes);

  // Every model call of this run drains through one scoring engine:
  // batched featurization, per-run memoization, and (with num_threads
  // > 1) pool fan-out — all bit-identical to calling the model per
  // pair, so the result is invariant across thread/cache settings.
  models::ScoringEngine::Options engine_options;
  engine_options.enable_cache = options_.use_cache;
  engine_options.pool = pool_.get();
  engine_options.observer = options_.score_observer;
  engine_options.store_probe = options_.store_probe;
  engine_options.store_write = options_.store_write;
  engine_options.metrics = options_.metrics;
  // With resilience enabled the chain grows one layer: base model →
  // ResilientMatcher (retries, deadline, breaker, call budget) →
  // ScoringEngine. The decorator sits *below* the cache, so cache hits
  // never re-charge the budget; disabled, the chain is byte-for-byte
  // the non-resilient one.
  std::unique_ptr<models::ResilientMatcher> resilient;
  const models::Matcher* scored_model = context_.model;
  if (options_.resilience.enabled) {
    models::ResilienceOptions resilience_options = options_.resilience;
    if (resilience_options.metrics == nullptr) {
      resilience_options.metrics = options_.metrics;
    }
    resilient = std::make_unique<models::ResilientMatcher>(
        context_.model, resilience_options);
    scored_model = resilient.get();
  }
  models::ScoringEngine engine(scored_model, engine_options);
  explain::ExplainContext engine_context = context_;
  engine_context.model = &engine;

  // Observability: one span for the whole run plus one per phase, and
  // explain.phase.<name>.model_calls counters derived from the engine's
  // scores-computed stream. All of it is write-only — nothing below
  // reads these back into the result.
  obs::TraceSpan run_span(options_.trace, "explain");
  std::optional<obs::TraceSpan> phase_span;
  auto begin_phase_span = [&](const char* name) {
    phase_span.reset();  // record the previous phase first
    if (options_.trace != nullptr) {
      phase_span.emplace(options_.trace, std::string("phase:") + name);
    }
  };
  obs::Counter* computed_counter =
      options_.metrics != nullptr
          ? options_.metrics->counter("scoring.scores.computed")
          : nullptr;
  long long computed_seen =
      computed_counter != nullptr ? computed_counter->value() : 0;
  // Attributes the model calls since the previous boundary to `name`,
  // and mirrors the delta onto the current phase span.
  auto record_phase_calls = [&](const char* name) {
    if (computed_counter == nullptr) return;
    long long now = computed_counter->value();
    options_.metrics
        ->counter(std::string("explain.phase.") + name + ".model_calls")
        ->Add(now - computed_seen);
    if (phase_span.has_value()) {
      phase_span->AddArg("model_calls", now - computed_seen);
    }
    computed_seen = now;
  };

  auto cancelled = [&] {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };
  ExplainProgress progress;
  auto notify = [&](const char* phase) {
    if (!options_.progress) return;
    progress.phase = phase;
    progress.predictions_performed = result.predictions_performed;
    progress.last_lattice = nullptr;
    progress.last_tags = nullptr;
    options_.progress(progress);
  };

  auto record_cache_stats = [&] {
    models::PredictionCache::Stats stats = engine.cache_stats();
    result.cache_hits = stats.hits;
    result.cache_misses = stats.misses;
    result.cache_evictions = stats.evictions;
  };
  // Attributes the decorator's call/retry/failure deltas since the last
  // snapshot to one phase; cells_skipped is tracked at the call sites.
  models::ResilientMatcher::Stats seen;
  auto close_phase = [&](PhaseResilience* phase) {
    if (!resilient) return;
    models::ResilientMatcher::Stats now = resilient->stats();
    phase->calls += now.calls - seen.calls;
    phase->retries += now.retries - seen.retries;
    phase->failures += now.failures - seen.failures;
    seen = now;
  };
  bool truncated = false;
  auto finish_status = [&] {
    const bool degraded = result.triangle_phase.cells_skipped > 0 ||
                          result.lattice_phase.cells_skipped > 0 ||
                          result.cf_phase.cells_skipped > 0;
    result.status = truncated     ? ExplainStatus::kTruncated
                    : degraded    ? ExplainStatus::kDegraded
                                  : ExplainStatus::kComplete;
  };

  if (cancelled()) {
    truncated = true;
    finish_status();
    record_cache_stats();
    return result;
  }
  begin_phase_span("pivot");
  notify("pivot");
  bool original_prediction = false;
  try {
    original_prediction = engine.Predict(u, v);
  } catch (const models::ScoringError&) {
    // Without the pivot prediction nothing downstream is computable;
    // return an empty-but-honest result instead of propagating.
    ++result.triangle_phase.cells_skipped;
    close_phase(&result.triangle_phase);
    truncated = true;
    finish_status();
    record_cache_stats();
    return result;
  }
  record_phase_calls("pivot");
  Rng rng(options_.seed ^ PairHash(u, v));

  begin_phase_span("triangles");
  notify("triangles");
  TriangleOptions triangle_options;
  triangle_options.count = options_.num_triangles;
  triangle_options.allow_augmentation = options_.allow_augmentation;
  triangle_options.only_augmentation = options_.only_augmentation;
  triangle_options.left_index = left_index_.get();
  triangle_options.right_index = right_index_.get();
  triangle_options.support_partition_min_pool =
      options_.support_partition_min_pool;
  std::vector<OpenTriangle> triangles =
      CollectTriangles(engine_context, u, v, original_prediction,
                       triangle_options, &rng, &result.triangle_stats);
  result.triangles_used = static_cast<int>(triangles.size());
  if (phase_span.has_value()) {
    phase_span->AddArg("triangles", result.triangles_used);
  }
  record_phase_calls("triangles");
  close_phase(&result.triangle_phase);
  result.triangle_phase.cells_skipped += result.triangle_stats.failed_probes;
  if (result.triangle_stats.aborted) truncated = true;
  if (triangles.empty()) {
    finish_status();
    record_cache_stats();
    return result;
  }
  progress.triangles_total = static_cast<int>(triangles.size());
  begin_phase_span("lattice");
  notify("lattice");

  Lattice left_lattice(left_attributes);
  Lattice right_lattice(right_attributes);

  // Counters of Algorithm 1: N (necessity), f (total flips), S
  // (sufficiency per attribute set), C (flip provenance per set).
  std::vector<long long> necessity_left(left_attributes, 0);
  std::vector<long long> necessity_right(right_attributes, 0);
  long long total_flips = 0;
  std::map<std::pair<data::Side, AttrMask>, int> sufficiency_counts;
  std::map<std::pair<data::Side, AttrMask>, std::vector<int>> provenance;
  int left_triangles = 0;
  int right_triangles = 0;

  // Set when the model-call budget dies mid-lattice: the remaining
  // triangles cannot be tagged, so the loop stops and every Eq. 1/2
  // count below stays an honest partial over the tagged prefix.
  bool stop_lattice = false;

  // Group-lockstep tagging: triangles are tagged lattice_group_size at
  // a time, and each round merges the pending level of every unfinished
  // lattice in the group into ONE engine batch. Per-triangle node order
  // is exactly the batched Tag's, so the tags are bit-identical to
  // tagging each triangle alone — only the batch boundaries change,
  // which turns dozens of small per-level batches into a few large
  // ones the engine (memoized featurization, pool chunks) can amortize.
  const size_t group_size =
      static_cast<size_t>(std::max(1, options_.lattice_group_size));
  for (size_t g = 0; g < triangles.size(); g += group_size) {
    if (stop_lattice || cancelled()) {
      truncated = true;
      break;
    }
    const size_t group_end = std::min(triangles.size(), g + group_size);

    std::vector<Lattice::Tagger> taggers;
    taggers.reserve(group_end - g);
    for (size_t t = g; t < group_end; ++t) {
      const bool is_left = triangles[t].side == data::Side::kLeft;
      taggers.emplace_back(is_left ? left_lattice : right_lattice,
                           options_.assume_monotone);
    }

    // Lockstep rounds: gather every group member's pending masks (in
    // triangle order), score once, hand each tagger its slice.
    std::vector<data::Record> perturbed;
    std::vector<models::RecordPair> pairs;
    while (!stop_lattice) {
      size_t total = 0;
      for (const Lattice::Tagger& tagger : taggers) {
        if (!tagger.done()) total += tagger.pending().size();
      }
      if (total == 0) break;
      if (cancelled()) {
        truncated = true;
        break;
      }
      // Materialize all perturbations first (reserved, so the pair
      // pointers below stay stable), then the pair rows.
      perturbed.clear();
      perturbed.reserve(total);
      for (size_t k = 0; k < taggers.size(); ++k) {
        if (taggers[k].done()) continue;
        const OpenTriangle& triangle = triangles[g + k];
        const data::Record& free_record =
            triangle.side == data::Side::kLeft ? u : v;
        for (AttrMask mask : taggers[k].pending()) {
          perturbed.push_back(
              explain::CopyAttributes(free_record, triangle.support, mask));
        }
      }
      pairs.clear();
      pairs.reserve(total);
      size_t offset = 0;
      for (size_t k = 0; k < taggers.size(); ++k) {
        if (taggers[k].done()) continue;
        const bool is_left = triangles[g + k].side == data::Side::kLeft;
        for (size_t i = 0; i < taggers[k].pending().size(); ++i) {
          const data::Record& record = perturbed[offset++];
          pairs.push_back(is_left ? models::RecordPair{&record, &v}
                                  : models::RecordPair{&u, &record});
        }
      }

      models::ScoringEngine::BatchOutcome outcome =
          engine.TryScoreBatch(pairs);
      if (outcome.budget_exhausted) stop_lattice = true;
      result.lattice_phase.cells_skipped +=
          static_cast<long long>(outcome.failures);
      offset = 0;
      std::vector<uint8_t> flips_out;
      for (Lattice::Tagger& tagger : taggers) {
        if (tagger.done()) continue;  // finished before this round
        const size_t count = tagger.pending().size();
        flips_out.assign(count, 0);
        for (size_t i = 0; i < count; ++i) {
          // A failed cell conservatively counts as "no flip": it adds
          // nothing to the counters and never seeds monotone
          // propagation.
          flips_out[i] =
              (outcome.ok[offset + i] != 0 &&
               (outcome.scores[offset + i] >= 0.5) != original_prediction)
                  ? 1
                  : 0;
        }
        offset += count;
        tagger.Supply(flips_out);
      }
    }

    // Per-triangle accounting in triangle order — identical to the
    // one-triangle-at-a-time loop this replaces. A group cut short by
    // budget death or cancellation still accounts its (honest, partial)
    // tags; finish_status() reports the truncation.
    for (size_t t = g; t < group_end; ++t) {
      const OpenTriangle& triangle = triangles[t];
      const bool is_left = triangle.side == data::Side::kLeft;
      (is_left ? left_triangles : right_triangles) += 1;
      const data::Record& free_record = is_left ? u : v;
      const Lattice& lattice = is_left ? left_lattice : right_lattice;
      Lattice::TagResult tags = taggers[t - g].TakeTags();
      result.predictions_expected += lattice.node_count();
      result.predictions_performed += tags.performed;

      if (options_.audit_inferences && options_.assume_monotone) {
        // Re-test every inferred node; a disagreement is a monotonicity
        // violation that CERTA silently absorbed (Table 7's error rate).
        auto flips = [&](AttrMask mask) {
          data::Record single =
              explain::CopyAttributes(free_record, triangle.support, mask);
          bool prediction = is_left ? engine.Predict(single, v)
                                    : engine.Predict(u, single);
          return prediction != original_prediction;
        };
        const AttrMask full =
            (1u << (is_left ? left_attributes : right_attributes)) - 1u;
        for (AttrMask mask = 1; mask < full; ++mask) {
          if (!tags.flip[mask] || tags.tested[mask]) continue;
          try {
            if (!flips(mask)) ++result.inference_errors;
          } catch (const models::BudgetExhausted&) {
            ++result.lattice_phase.cells_skipped;
            stop_lattice = true;
            break;
          } catch (const models::ScoringError&) {
            // Unauditable cell; the inferred tag stands.
            ++result.lattice_phase.cells_skipped;
          }
        }
      }

      std::vector<AttrMask> flipped = lattice.FlippedNodes(tags);
      for (AttrMask mask : flipped) {
        ++total_flips;
        ++sufficiency_counts[{triangle.side, mask}];
        provenance[{triangle.side, mask}].push_back(static_cast<int>(t));
        for (int index : explain::MaskToIndices(mask)) {
          (is_left ? necessity_left : necessity_right)[index] += 1;
        }
      }
      // The supremum (full attribute set) is never tested (footnote 2
      // of the paper) but inherits a flip from any flipped proper
      // subset by monotone propagation, and the paper's Sect. 4 example
      // counts it among the flips for the necessity probabilities. It
      // stays excluded from the counterfactual argmax (Eq. 3 ranges
      // over proper subsets only).
      if (!flipped.empty()) {
        ++total_flips;
        const int attributes = is_left ? left_attributes : right_attributes;
        for (int index = 0; index < attributes; ++index) {
          (is_left ? necessity_left : necessity_right)[index] += 1;
        }
      }

      // Frontier notification: triangle t is fully tagged; its lattice
      // snapshot rides along so checkpoints can record the antichain.
      if (options_.progress) {
        progress.phase = "lattice";
        progress.triangles_tagged = static_cast<int>(t) + 1;
        progress.predictions_performed = result.predictions_performed;
        progress.total_flips = total_flips;
        progress.last_lattice = &lattice;
        progress.last_tags = &tags;
        progress.last_side = triangle.side;
        options_.progress(progress);
        progress.last_lattice = nullptr;
        progress.last_tags = nullptr;
      }
    }
  }
  if (stop_lattice) truncated = true;
  if (phase_span.has_value()) {
    phase_span->AddArg("flips", total_flips);
    phase_span->AddArg("predictions_performed", result.predictions_performed);
  }
  record_phase_calls("lattice");
  close_phase(&result.lattice_phase);
  if (options_.metrics != nullptr) {
    options_.metrics->counter("explain.flips")->Add(total_flips);
  }
  result.predictions_saved =
      result.predictions_expected - result.predictions_performed;

  // Saliency scores: probability of necessity φ_a = N[a] / f (Eq. 1).
  if (total_flips > 0) {
    for (int i = 0; i < left_attributes; ++i) {
      result.saliency.set_score(
          {data::Side::kLeft, i},
          static_cast<double>(necessity_left[i]) / total_flips);
    }
    for (int i = 0; i < right_attributes; ++i) {
      result.saliency.set_score(
          {data::Side::kRight, i},
          static_cast<double>(necessity_right[i]) / total_flips);
    }
  }

  // Sufficiency per set: χ_A = S[A] / |T_side| (Eq. 2) — normalized by
  // the triangles of the set's own side, matching the probabilistic
  // reading P(flip | attributes in A changed).
  double best_sufficiency = 0.0;
  int best_size = 1 << 30;
  data::Side best_side = data::Side::kLeft;
  AttrMask best_mask = 0;
  for (const auto& [key, count] : sufficiency_counts) {
    const auto& [side, mask] = key;
    int side_total =
        side == data::Side::kLeft ? left_triangles : right_triangles;
    if (side_total == 0) continue;
    double sufficiency = static_cast<double>(count) / side_total;
    result.set_sides.push_back(side);
    result.set_masks.push_back(mask);
    result.set_sufficiencies.push_back(sufficiency);
    int size = explain::MaskSize(mask);
    if (sufficiency > best_sufficiency ||
        (sufficiency == best_sufficiency && size < best_size)) {
      best_sufficiency = sufficiency;
      best_size = size;
      best_side = side;
      best_mask = mask;
    }
  }
  result.best_sufficiency = best_sufficiency;
  result.best_side = best_side;
  result.best_mask = best_mask;

  begin_phase_span("counterfactuals");
  notify("counterfactuals");
  if (cancelled()) {
    // Parked/shut down between phases: skip the counterfactual scoring
    // entirely — the resumed run redoes it from journaled scores.
    truncated = true;
    close_phase(&result.cf_phase);
    finish_status();
    record_cache_stats();
    return result;
  }
  // Counterfactual examples: every flipped input whose changed set is
  // the golden set A* (Algorithm 1 lines 30-33).
  if (best_mask != 0) {
    const bool is_left = best_side == data::Side::kLeft;
    const data::Record& free_record = is_left ? u : v;
    for (int t : provenance[{best_side, best_mask}]) {
      const OpenTriangle& triangle = triangles[static_cast<size_t>(t)];
      data::Record perturbed =
          explain::CopyAttributes(free_record, triangle.support, best_mask);
      explain::CounterfactualExample example;
      for (int index : explain::MaskToIndices(best_mask)) {
        example.changed_attributes.push_back({best_side, index});
      }
      example.sufficiency = best_sufficiency;
      if (is_left) {
        example.left = perturbed;
        example.right = v;
      } else {
        example.left = u;
        example.right = perturbed;
      }
      result.counterfactuals.push_back(std::move(example));
    }
    // Score all counterfactuals as one batch (after the pushes, so the
    // record addresses are stable).
    std::vector<models::RecordPair> pairs;
    pairs.reserve(result.counterfactuals.size());
    for (const explain::CounterfactualExample& example :
         result.counterfactuals) {
      pairs.push_back({&example.left, &example.right});
    }
    models::ScoringEngine::BatchOutcome outcome = engine.TryScoreBatch(pairs);
    if (outcome.budget_exhausted) truncated = true;
    result.cf_phase.cells_skipped += static_cast<long long>(outcome.failures);
    for (size_t i = 0; i < outcome.scores.size(); ++i) {
      // A failed score keeps the -1.0 "unknown" sentinel (JSON null).
      if (outcome.ok[i] != 0) {
        result.counterfactuals[i].score = outcome.scores[i];
      }
    }
  }
  if (phase_span.has_value()) {
    phase_span->AddArg("counterfactuals",
                       static_cast<long long>(result.counterfactuals.size()));
  }
  record_phase_calls("counterfactuals");
  close_phase(&result.cf_phase);
  finish_status();
  record_cache_stats();
  phase_span.reset();
  run_span.AddArg("flips", total_flips);
  run_span.AddArg("status", static_cast<long long>(result.status));
  if (options_.metrics != nullptr) {
    options_.metrics->counter("explain.runs")->Increment();
  }
  notify("done");
  return result;
}

explain::SaliencyExplanation CertaExplainer::ExplainSaliency(
    const data::Record& u, const data::Record& v) {
  return Explain(u, v).saliency;
}

std::vector<explain::CounterfactualExample>
CertaExplainer::ExplainCounterfactual(const data::Record& u,
                                      const data::Record& v) {
  return Explain(u, v).counterfactuals;
}

}  // namespace certa::core
