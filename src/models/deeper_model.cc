#include "models/deeper_model.h"

#include <algorithm>
#include <type_traits>

#include "models/batch_values.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace certa::models {
namespace {

constexpr int kWordDim = 96;
constexpr int kNgramDim = 64;

/// Fuses every attribute value of the record into one token sequence —
/// DeepER's "tuple as a sentence" view.
std::vector<std::string> RecordTokens(const data::Record& record) {
  std::vector<std::string> tokens;
  for (const std::string& value : record.values) {
    if (text::IsMissing(value)) continue;
    std::vector<std::string> attr_tokens = text::Tokenize(value);
    tokens.insert(tokens.end(), attr_tokens.begin(), attr_tokens.end());
  }
  return tokens;
}

/// Hashed counterpart of the record's character-trigram multiset; the
/// hashes feed TransformHashedNormalized, which lands on the same
/// buckets/signs as embedding the gram strings (no per-gram substr).
std::vector<uint64_t> RecordNgramHashes(const data::Record& record,
                                        uint64_t seed) {
  std::vector<uint64_t> hashes;
  for (const std::string& value : record.values) {
    if (text::IsMissing(value)) continue;
    std::vector<uint64_t> value_hashes = text::CharNgramHashes(value, 3, seed);
    hashes.insert(hashes.end(), value_hashes.begin(), value_hashes.end());
  }
  return hashes;
}

/// Everything Features needs from one record. `Token` is the token
/// string on the per-pair path and a batch token id on the batch path;
/// `unique` is the record's sorted unique tokens in that form.
template <typename Token>
struct RecordRep {
  size_t token_count = 0;
  std::vector<Token> unique;
  ml::Vector word_embed;
  ml::Vector gram_embed;
};

RecordRep<std::string> MakeRep(const data::Record& record,
                               const text::HashingVectorizer& word_embedder,
                               const text::HashingVectorizer& ngram_embedder) {
  std::vector<std::string> tokens = RecordTokens(record);
  RecordRep<std::string> rep;
  rep.token_count = tokens.size();
  rep.unique = text::UniqueTokens(tokens);
  rep.word_embed = word_embedder.TransformNormalized(tokens);
  rep.gram_embed = ngram_embedder.TransformHashedNormalized(
      RecordNgramHashes(record, ngram_embedder.seed()));
  return rep;
}

template <typename Token>
ml::Vector PairFeatures(const RecordRep<Token>& u, const RecordRep<Token>& v) {
  double size_u = static_cast<double>(u.token_count);
  double size_v = static_cast<double>(v.token_count);
  double length_ratio =
      size_u > 0.0 && size_v > 0.0
          ? std::min(size_u, size_v) / std::max(size_u, size_v)
          : 0.0;
  double jaccard = 0.0;
  double overlap = 0.0;
  if constexpr (std::is_same_v<Token, std::string>) {
    jaccard = text::JaccardOfUnique(u.unique, v.unique);
    overlap = text::OverlapOfUnique(u.unique, v.unique);
  } else {
    jaccard = JaccardOfIds(u.unique, v.unique);
    overlap = OverlapOfIds(u.unique, v.unique);
  }
  return {
      text::CosineSimilarity(u.word_embed, v.word_embed),
      text::CosineSimilarity(u.gram_embed, v.gram_embed),
      jaccard,
      overlap,
      length_ratio,
  };
}

/// One distinct value's share of a record rep: its token count, its
/// unique tokens as batch ids, and its unnormalized +/-1 bucket counts
/// in both embedding spaces (summed per record by AddCounts).
struct ValueRep {
  bool missing = false;
  size_t token_count = 0;
  std::vector<uint64_t> unique_ids;
  ml::Vector word_counts;
  ml::Vector gram_counts;
};

ValueRep MakeValueRep(std::string_view value, TokenIds* token_ids,
                      const text::HashingVectorizer& word_embedder,
                      const text::HashingVectorizer& ngram_embedder) {
  ValueRep rep;
  rep.missing = text::IsMissing(value);
  if (rep.missing) return rep;
  std::vector<std::string> tokens = text::Tokenize(value);
  rep.token_count = tokens.size();
  rep.word_counts = word_embedder.Transform(tokens);
  for (std::string& token : tokens) {
    rep.unique_ids.push_back(token_ids->Intern(std::move(token)));
  }
  SortUnique(&rep.unique_ids);
  rep.gram_counts = ngram_embedder.TransformHashed(
      text::CharNgramHashes(value, 3, ngram_embedder.seed()));
  return rep;
}

RecordRep<uint64_t> RecordFromValues(std::span<const uint32_t> ids,
                                     const std::vector<ValueRep>& values) {
  RecordRep<uint64_t> rep;
  rep.word_embed.assign(kWordDim, 0.0);
  rep.gram_embed.assign(kNgramDim, 0.0);
  for (uint32_t id : ids) {
    const ValueRep& value = values[id];
    if (value.missing) continue;
    rep.token_count += value.token_count;
    rep.unique.insert(rep.unique.end(), value.unique_ids.begin(),
                      value.unique_ids.end());
    AddCounts(value.word_counts, &rep.word_embed);
    AddCounts(value.gram_counts, &rep.gram_embed);
  }
  SortUnique(&rep.unique);
  text::L2Normalize(&rep.word_embed);
  text::L2Normalize(&rep.gram_embed);
  return rep;
}

}  // namespace

DeepErModel::DeepErModel()
    : FeatureMatcher(Head::kLogistic),
      word_embedder_(kWordDim, /*seed=*/0xD33Bu),
      ngram_embedder_(kNgramDim, /*seed=*/0x36AA) {}

ml::Vector DeepErModel::Features(const data::Record& u,
                                 const data::Record& v) const {
  return PairFeatures(MakeRep(u, word_embedder_, ngram_embedder_),
                      MakeRep(v, word_embedder_, ngram_embedder_));
}

std::vector<ml::Vector> DeepErModel::FeaturesBatch(
    std::span<const RecordPair> pairs) const {
  BatchValues values(pairs);
  TokenIds token_ids;
  std::vector<ValueRep> value_reps;
  value_reps.reserve(values.size());
  for (uint32_t id = 0; id < values.size(); ++id) {
    value_reps.push_back(MakeValueRep(values.value(id), &token_ids,
                                      word_embedder_, ngram_embedder_));
  }
  std::vector<RecordRep<uint64_t>> reps;
  reps.reserve(values.records());
  for (size_t r = 0; r < values.records(); ++r) {
    reps.push_back(RecordFromValues(values.ids(r), value_reps));
  }
  std::vector<ml::Vector> rows;
  rows.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    rows.push_back(PairFeatures(reps[values.left(i)], reps[values.right(i)]));
  }
  return rows;
}

}  // namespace certa::models
