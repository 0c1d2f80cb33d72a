#ifndef CERTA_MODELS_DITTO_MODEL_H_
#define CERTA_MODELS_DITTO_MODEL_H_

#include <string>
#include <vector>

#include "models/feature_matcher.h"
#include "text/hashing_vectorizer.h"

namespace certa::models {

/// Stand-in for Ditto (Li et al., PVLDB'20): the pair is serialized into
/// one token sequence with [COL]/[VAL] markers exactly like Ditto's
/// input encoding, and classified from sequence-level cross-alignment
/// features: soft token alignment in both directions (the transformer
/// cross-attention analogue), character n-gram cosine over the whole
/// serializations, and Ditto's domain-knowledge injections (number
/// normalization and span typing for numeric/code tokens).
class DittoModel : public FeatureMatcher {
 public:
  DittoModel();

  std::string name() const override { return "Ditto"; }

  /// Ditto's serialization:
  ///   [COL] attr1 [VAL] v1 tokens [COL] attr2 [VAL] v2 tokens ...
  /// Exposed for tests and for the explanation case study.
  static std::string Serialize(const data::Schema& schema,
                               const data::Record& record);

 protected:
  ml::Vector Features(const data::Record& u,
                      const data::Record& v) const override;

  /// Tokenizes and embeds each value once per `memo` (BatchValues) and
  /// builds each record's serialization and 4-gram embedding from those
  /// value reps (integer bucket counts summed before the L2
  /// normalization). Soft alignment reads Jaro-Winkler per ordered
  /// token pair and each token's best match per (token, value) from the
  /// memo; a token's best match over a record is the max over the
  /// record's values, kept per batch, and the per-token summation order
  /// is kept. Bit-identical to per-pair Features.
  std::vector<ml::Vector> FeaturesBatch(std::span<const RecordPair> pairs,
                                        ScoreMemo* memo) const override;

 private:
  text::HashingVectorizer ngram_embedder_;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_DITTO_MODEL_H_
