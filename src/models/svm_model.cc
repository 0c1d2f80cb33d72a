#include "models/svm_model.h"

#include <array>

#include "models/batch_values.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/logging.h"

namespace certa::models {
namespace {

/// What the feature block needs from one attribute value: the missing
/// flag, the numeric parse, the unique token set and the trigram
/// shingles that JaccardSimilarity, TrigramSimilarity and
/// AttributeSimilarity would each recompute per pair.
struct ValueRep {
  bool missing = false;
  bool is_numeric = false;
  double numeric = 0.0;
  std::vector<std::string> unique_tokens;
  std::vector<uint64_t> shingles;
};

ValueRep MakeValueRep(std::string_view value) {
  ValueRep rep;
  rep.missing = text::IsMissing(value);
  if (rep.missing) return rep;
  rep.is_numeric = text::TryParseNumeric(value, &rep.numeric);
  rep.unique_tokens = text::UniqueTokens(text::Tokenize(value));
  rep.shingles = text::TrigramShingles(value);
  return rep;
}

using Block = std::array<double, 4>;

/// Features' per-attribute block from two value reps. The third entry
/// is AttributeSimilarity's numeric path or its 0.5/0.5 blend of the
/// first two entries.
Block AttributeBlock(const ValueRep& u, const ValueRep& v) {
  if (u.missing || v.missing) return {0.0, 0.0, 0.0, 1.0};
  double jaccard = text::JaccardOfUnique(u.unique_tokens, v.unique_tokens);
  double trigram = text::TrigramSimilarityOfShingles(u.shingles, v.shingles);
  double similarity = u.is_numeric && v.is_numeric
                          ? text::NumericSimilarity(u.numeric, v.numeric)
                          : 0.5 * jaccard + 0.5 * trigram;
  return {jaccard, trigram, similarity, 0.0};
}

using Memo = AlignedMemo<ValueRep, Block>;

}  // namespace

SvmModel::SvmModel() : FeatureMatcher(Head::kSvm) {}

ml::Vector SvmModel::Features(const data::Record& u,
                              const data::Record& v) const {
  CERTA_CHECK_EQ(u.values.size(), v.values.size())
      << "SvmModel requires aligned schemas";
  ml::Vector features;
  features.reserve(u.values.size() * 4);
  for (size_t a = 0; a < u.values.size(); ++a) {
    const std::string& value_u = u.values[a];
    const std::string& value_v = v.values[a];
    if (text::IsMissing(value_u) || text::IsMissing(value_v)) {
      features.insert(features.end(), {0.0, 0.0, 0.0, 1.0});
      continue;
    }
    std::vector<std::string> tokens_u = text::Tokenize(value_u);
    std::vector<std::string> tokens_v = text::Tokenize(value_v);
    features.push_back(text::JaccardSimilarity(tokens_u, tokens_v));
    features.push_back(text::TrigramSimilarity(value_u, value_v));
    features.push_back(text::AttributeSimilarity(value_u, value_v));
    features.push_back(0.0);  // missing indicator
  }
  return features;
}

std::vector<ml::Vector> SvmModel::FeaturesBatch(
    std::span<const RecordPair> pairs, ScoreMemo* memo) const {
  return AlignedFeaturesBatch(pairs, &memo->Get<Memo>(), MakeValueRep,
                              AttributeBlock, "SvmModel");
}

}  // namespace certa::models
