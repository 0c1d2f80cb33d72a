#include "models/deepmatcher_model.h"

#include <array>
#include <cstdint>

#include "models/batch_values.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/logging.h"

namespace certa::models {
namespace {

/// Per-value preprocessing shared by every attribute pair the value
/// participates in: missing flag, token list and its unique set,
/// normalized string, the numeric parse AttributeSimilarity would redo,
/// and the sorted trigram shingle set (the dominant per-comparison
/// cost). The batch path also keeps the tokens as memo token ids.
struct ValueRep {
  bool missing = false;
  bool is_numeric = false;
  double numeric = 0.0;
  std::vector<std::string> tokens;
  std::vector<uint32_t> token_ids;
  std::vector<std::string> unique_tokens;
  std::string normalized;
  std::vector<uint64_t> shingles;
};

ValueRep MakeValueRep(std::string_view value) {
  ValueRep rep;
  rep.missing = text::IsMissing(value);
  if (rep.missing) return rep;
  rep.is_numeric = text::TryParseNumeric(value, &rep.numeric);
  rep.tokens = text::Tokenize(value);
  rep.unique_tokens = text::UniqueTokens(rep.tokens);
  rep.shingles = text::TrigramShingles(value);
  rep.normalized = text::Normalize(value);
  return rep;
}

using Block = std::array<double, DeepMatcherModel::kFeaturesPerAttribute>;

/// The feature block of one aligned attribute pair; `monge_elkan(u, v)`
/// is the symmetric Monge-Elkan of the two token lists. The fourth
/// entry is AttributeSimilarity over the reps: the same numeric fast
/// path, then the Jaccard/trigram blend.
template <typename MongeElkan>
Block AttributeBlock(const ValueRep& u, const ValueRep& v,
                     const MongeElkan& monge_elkan) {
  if (u.missing || v.missing) {
    // Neutral similarity block with missing indicators: the MLP learns
    // how much absence matters per attribute.
    return {0.0, 0.0, 0.0, 0.0, u.missing && v.missing ? 1.0 : 0.0,
            u.missing != v.missing ? 1.0 : 0.0};
  }
  double jaccard = text::JaccardOfUnique(u.unique_tokens, v.unique_tokens);
  double similarity =
      u.is_numeric && v.is_numeric
          ? text::NumericSimilarity(u.numeric, v.numeric)
          : 0.5 * jaccard +
                0.5 * text::TrigramSimilarityOfShingles(u.shingles,
                                                        v.shingles);
  return {jaccard,
          text::LevenshteinSimilarity(u.normalized, v.normalized),
          monge_elkan(u, v),
          similarity,
          0.0,   // missing_both
          0.0};  // missing_one
}

double MongeElkanOfTokens(const ValueRep& u, const ValueRep& v) {
  return text::SymmetricMongeElkan(u.tokens, v.tokens);
}

/// The aligned memo plus the token table Monge-Elkan reads.
struct Memo : AlignedMemo<ValueRep, Block> {
  TokenIds tokens;
};

}  // namespace

DeepMatcherModel::DeepMatcherModel() : FeatureMatcher(Head::kMlp) {}

ml::Vector DeepMatcherModel::Features(const data::Record& u,
                                      const data::Record& v) const {
  CERTA_CHECK_EQ(u.values.size(), v.values.size())
      << "DeepMatcher requires aligned schemas";
  ml::Vector features;
  features.reserve(u.values.size() * kFeaturesPerAttribute);
  for (size_t a = 0; a < u.values.size(); ++a) {
    Block block = AttributeBlock(MakeValueRep(u.values[a]),
                                 MakeValueRep(v.values[a]),
                                 MongeElkanOfTokens);
    features.insert(features.end(), block.begin(), block.end());
  }
  return features;
}

std::vector<ml::Vector> DeepMatcherModel::FeaturesBatch(
    std::span<const RecordPair> pairs, ScoreMemo* score_memo) const {
  Memo& memo = score_memo->Get<Memo>();
  auto make_rep = [&memo](std::string_view value) {
    ValueRep rep = MakeValueRep(value);
    for (std::string& token : rep.tokens) {
      rep.token_ids.push_back(memo.tokens.Intern(std::move(token)));
    }
    rep.tokens.clear();
    return rep;
  };
  auto monge_elkan = [&memo](const ValueRep& u, const ValueRep& v) {
    return SymmetricMongeElkanOfIds(u.token_ids, v.token_ids, &memo.tokens);
  };
  auto make_block = [&monge_elkan](const ValueRep& u, const ValueRep& v) {
    return AttributeBlock(u, v, monge_elkan);
  };
  return AlignedFeaturesBatch(pairs, &memo, make_rep, make_block,
                              "DeepMatcher");
}

}  // namespace certa::models
