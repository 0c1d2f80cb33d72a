#ifndef CERTA_MODELS_SVM_MODEL_H_
#define CERTA_MODELS_SVM_MODEL_H_

#include <string>

#include "models/feature_matcher.h"

namespace certa::models {

/// Classical (pre-deep-learning) ER matcher in the Magellan/SVM family
/// the paper cites as the traditional approach (Christen, KDD'08): the
/// same per-attribute similarity feature block as the DeepMatcher
/// stand-in, classified by a linear SVM with Platt-calibrated scores.
/// Not part of the paper's evaluated trio, but included so users can
/// explain non-neural production matchers and so the benches can be
/// extended with a classical baseline.
class SvmModel : public FeatureMatcher {
 public:
  SvmModel();

  std::string name() const override { return "SVM"; }

 protected:
  ml::Vector Features(const data::Record& u,
                      const data::Record& v) const override;

  /// Normalizes, tokenizes and shingles each value once per `memo`
  /// (BatchValues), and computes each attribute's feature block once
  /// per (left value, right value) and memo. Bit-identical to per-pair
  /// Features.
  std::vector<ml::Vector> FeaturesBatch(std::span<const RecordPair> pairs,
                                        ScoreMemo* memo) const override;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_SVM_MODEL_H_
