#ifndef CERTA_MODELS_DEEPMATCHER_MODEL_H_
#define CERTA_MODELS_DEEPMATCHER_MODEL_H_

#include <string>

#include "models/feature_matcher.h"

namespace certa::models {

/// Stand-in for DeepMatcher's Hybrid model (Mudgal et al., SIGMOD'18):
/// attribute-level comparison. Each aligned attribute pair is summarized
/// by a block of similarity features (token Jaccard, edit similarity,
/// symmetric Monge-Elkan, trigram/numeric similarity, missing-value
/// indicators), and a from-scratch MLP learns how attribute evidence
/// composes into a match decision — mirroring DeepMatcher's attribute
/// summarization + classification architecture.
///
/// Requires both sources to have schemas of equal arity (as all the
/// DeepMatcher benchmarks do); Fit CHECK-fails otherwise.
class DeepMatcherModel : public FeatureMatcher {
 public:
  DeepMatcherModel();

  std::string name() const override { return "DeepMatcher"; }

  /// Number of features produced per attribute pair.
  static constexpr int kFeaturesPerAttribute = 6;

 protected:
  ml::Vector Features(const data::Record& u,
                      const data::Record& v) const override;

  /// Preprocesses each value once per `memo` (BatchValues: token ids,
  /// unique-token set, normalized string, numeric parse, trigram
  /// shingles), computes each attribute's feature block once per (left
  /// value, right value) and memo, and reads Monge-Elkan's Jaro-Winkler
  /// of each ordered token pair from the memo's token table.
  /// Bit-identical to per-pair Features.
  std::vector<ml::Vector> FeaturesBatch(std::span<const RecordPair> pairs,
                                        ScoreMemo* memo) const override;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_DEEPMATCHER_MODEL_H_
