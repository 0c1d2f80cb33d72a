#ifndef CERTA_MODELS_FEATURE_MATCHER_H_
#define CERTA_MODELS_FEATURE_MATCHER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/scaler.h"
#include "models/matcher.h"
#include "models/score_memo.h"

namespace certa::models {

/// Shared skeleton of the three trainable ER models: a model-specific
/// pair featurization (implemented by subclasses) feeding a trained,
/// standardized classification head. Subclasses only define Features()
/// and name(); Fit/Score are common.
class FeatureMatcher : public Matcher {
 public:
  /// Which classification head sits on the features.
  enum class Head {
    kLogistic,
    kMlp,
    kSvm,
  };

  /// Trains the head on the dataset's train pairs, featurized as one
  /// FeaturesBatch. Must be called before Score. `seed` controls head
  /// initialization and batching.
  void Fit(const data::Dataset& dataset, uint64_t seed);

  double Score(const data::Record& u, const data::Record& v) const override;

  /// Batched scoring: featurizes all pairs via FeaturesBatch, through
  /// the ScoreMemo installed on the calling thread (a fresh one when
  /// none is), scales in place, then runs one head-level batch predict.
  /// Bit-identical to calling Score per pair.
  std::vector<double> ScoreBatch(
      std::span<const RecordPair> pairs) const override;

  /// Persists the trained head + scaler into the archive (the feature
  /// extraction itself is code, not state). Used by models::SaveMatcher.
  void SaveParameters(TextArchive* archive) const;
  /// Restores a previously saved head; false on mismatch with this
  /// model's head kind.
  bool LoadParameters(const TextArchive& archive);

  bool is_fitted() const { return fitted_; }

 protected:
  explicit FeatureMatcher(Head head) : head_(head) {}

  /// Model-specific pair featurization; must have fixed dimension for a
  /// given schema and be independent of training state.
  virtual ml::Vector Features(const data::Record& u,
                              const data::Record& v) const = 0;

  /// Batched featurization hook, used by ScoreBatch and Fit. The default
  /// loops Features; the bundled models override it to featurize each
  /// attribute value once per `memo` (models::BatchValues) and build
  /// the rows from those value reps by exact operations only. Must
  /// return exactly Features(pair) per element, in order, whatever
  /// `memo` already holds.
  virtual std::vector<ml::Vector> FeaturesBatch(
      std::span<const RecordPair> pairs, ScoreMemo* memo) const;

 private:
  Head head_;
  ml::StandardScaler scaler_;
  ml::LogisticRegression logistic_;
  ml::Mlp mlp_;
  ml::LinearSvm svm_;
  bool fitted_ = false;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_FEATURE_MATCHER_H_
