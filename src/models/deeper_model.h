#ifndef CERTA_MODELS_DEEPER_MODEL_H_
#define CERTA_MODELS_DEEPER_MODEL_H_

#include <string>

#include "models/feature_matcher.h"
#include "text/hashing_vectorizer.h"

namespace certa::models {

/// Stand-in for DeepER's LSTM model (Ebraheem et al., PVLDB'18):
/// each record is collapsed into a single distributed representation —
/// here a hashed, L2-normalized bag-of-tokens embedding over the
/// concatenation of all attribute values — and the pair is classified
/// from record-level vector similarities plus a trained logistic head.
///
/// The property that matters for the explanation experiments is the
/// *record-level granularity*: attribute boundaries are invisible, the
/// model only sees the fused token distribution, mirroring how DeepER
/// composes word embeddings into one tuple vector.
class DeepErModel : public FeatureMatcher {
 public:
  DeepErModel();

  std::string name() const override { return "DeepER"; }

 protected:
  ml::Vector Features(const data::Record& u,
                      const data::Record& v) const override;

  /// Tokenizes and embeds each distinct value of the batch once
  /// (BatchValues), then builds each distinct record's rep by summing
  /// its values' +/-1 bucket counts before the L2 normalization and
  /// uniting their token-id sets. The counts are integers, so the sums
  /// are exact: bit-identical to per-pair Features.
  std::vector<ml::Vector> FeaturesBatch(
      std::span<const RecordPair> pairs) const override;

 private:
  text::HashingVectorizer word_embedder_;
  text::HashingVectorizer ngram_embedder_;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_DEEPER_MODEL_H_
