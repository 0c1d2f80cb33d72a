#include "models/ditto_model.h"

#include <algorithm>
#include <cmath>

#include "models/batch_values.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace certa::models {
namespace {

constexpr int kNgramDim = 128;

/// Ditto-style domain knowledge injection: numeric tokens are rounded
/// and re-serialized so "379.72" and "379.7" align; pure codes keep
/// their shape. Mirrors Ditto's number normalization (Sect. 3.3 of the
/// Ditto paper).
std::string NormalizeToken(const std::string& token) {
  double value = 0.0;
  if (text::TryParseNumeric(token, &value)) {
    double rounded = std::round(value * 10.0) / 10.0;
    // Trim trailing ".0" for integer-like values.
    if (rounded == std::round(rounded)) {
      return std::to_string(static_cast<long long>(std::llround(rounded)));
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.1f", rounded);
    return buffer;
  }
  return token;
}

/// Serialized token sequence of a record, with per-attribute [COL]
/// markers (index-based when no schema is available).
std::vector<std::string> SerializedTokens(const data::Record& record) {
  std::vector<std::string> tokens;
  for (size_t a = 0; a < record.values.size(); ++a) {
    tokens.push_back("[COL" + std::to_string(a) + "]");
    if (text::IsMissing(record.values[a])) continue;
    for (std::string& token : text::Tokenize(record.values[a])) {
      tokens.push_back(NormalizeToken(token));
    }
  }
  return tokens;
}

/// Soft alignment score: mean over tokens of `a` of the best pairwise
/// token similarity in `b` — the cross-attention analogue. Marker
/// tokens align exactly with themselves (anchoring attribute spans).
double SoftAlignment(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (const std::string& token_a : a) {
    if (token_a.size() >= 2 && token_a[0] == '[') continue;  // skip markers
    double best = 0.0;
    for (const std::string& token_b : b) {
      if (token_b.size() >= 2 && token_b[0] == '[') continue;
      if (token_a == token_b) {
        best = 1.0;
        break;
      }
      best = std::max(best, text::JaroWinklerSimilarity(token_a, token_b));
    }
    total += best;
    ++counted;
  }
  return counted > 0 ? total / counted : 0.0;
}

/// Fraction of numeric tokens of `a` that have an exact normalized
/// numeric counterpart in `b` (Ditto's span typing for numbers).
double NumericAgreement(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  int numeric = 0;
  int agreed = 0;
  for (const std::string& token_a : a) {
    double value_a = 0.0;
    if (!text::TryParseNumeric(token_a, &value_a)) continue;
    ++numeric;
    for (const std::string& token_b : b) {
      double value_b = 0.0;
      if (text::TryParseNumeric(token_b, &value_b) &&
          text::NumericSimilarity(value_a, value_b) > 0.98) {
        ++agreed;
        break;
      }
    }
  }
  return numeric > 0 ? static_cast<double>(agreed) / numeric : 0.5;
}

/// Everything Features needs from one record: the serialized token
/// sequence and the hashed 4-gram embedding (CharNgramHashes lands on
/// the same buckets/signs as embedding the gram strings, without the
/// per-gram substr allocations).
struct RecordRep {
  std::vector<std::string> seq;
  std::vector<std::string> unique_seq;
  ml::Vector gram_embed;
};

RecordRep MakeRep(const data::Record& record,
                  const text::HashingVectorizer& ngram_embedder) {
  RecordRep rep;
  rep.seq = SerializedTokens(record);
  rep.unique_seq = text::UniqueTokens(rep.seq);
  std::vector<uint64_t> hashes;
  for (const std::string& value : record.values) {
    if (text::IsMissing(value)) continue;
    std::vector<uint64_t> value_hashes =
        text::CharNgramHashes(value, 4, ngram_embedder.seed());
    hashes.insert(hashes.end(), value_hashes.begin(), value_hashes.end());
  }
  rep.gram_embed = ngram_embedder.TransformHashedNormalized(hashes);
  return rep;
}

ml::Vector PairFeatures(const RecordRep& u, const RecordRep& v) {
  double align_uv = SoftAlignment(u.seq, v.seq);
  double align_vu = SoftAlignment(v.seq, u.seq);

  return {
      align_uv,
      align_vu,
      std::min(align_uv, align_vu),
      text::CosineSimilarity(u.gram_embed, v.gram_embed),
      text::JaccardOfUnique(u.unique_seq, v.unique_seq),
      NumericAgreement(u.seq, v.seq),
  };
}

// --- memoized featurization --------------------------------------------
//
// SoftAlignment is the model's cost center: O(|u|·|v|) Jaro-Winkler
// calls per pair. Across the batches of one explanation the same values
// (and the same tokens) recur constantly — a lattice cell copies a few
// support values into the free record, and every pair shares the pivot
// side — so FeaturesBatch featurizes each value once per ScoreMemo,
// interns its tokens into the memo's table, and memoizes every distinct
// Jaro-Winkler evaluation and every token's best match within a value
// (Memo), plus each token's best match over a record of the batch.
// Identical token strings get identical ids, and the memos store the
// exact doubles the per-pair loops compute, so the features are
// bit-identical to the uninterned per-pair path (which Features() keeps
// using).

/// Distinct tokens of one memo: id -> string/marker-flag/parsed-number,
/// and the Jaro-Winkler of the ordered token pairs asked for.
struct TokenTable {
  TokenIds ids;
  std::vector<uint8_t> marker;
  std::vector<uint8_t> numeric_ok;
  std::vector<double> numeric_val;

  int Intern(std::string s) {
    const uint32_t id = ids.Intern(std::move(s));
    if (id == marker.size()) {
      const std::string& token = ids.token(id);
      marker.push_back(token.size() >= 2 && token[0] == '[' ? 1 : 0);
      double value = 0.0;
      uint8_t ok = text::TryParseNumeric(token, &value) ? 1 : 0;
      numeric_ok.push_back(ok);
      numeric_val.push_back(ok ? value : 0.0);
    }
    return static_cast<int>(id);
  }
};

/// One distinct value's share of a record rep: its Ditto-normalized
/// tokens as memo ids, and its unnormalized +/-1 4-gram bucket counts
/// (summed per record by AddCounts).
struct ValueRep {
  bool missing = false;
  std::vector<int> ids;
  ml::Vector gram_counts;
};

/// What a memo carries across batches: the token table, a rep per
/// value, the [COLa] marker ids, and each token's best match within one
/// value. A token's best match over a record is the max of its best
/// matches over the record's values: the per-pair inner loop takes the
/// max over the record's non-marker tokens, which the values partition,
/// and max is exact in any order. Perturbed records share most values,
/// so the per-value memo serves them.
struct Memo : ScoreMemo::State {
  ValueIds values;
  TokenTable table;
  std::vector<ValueRep> reps;  // by value id
  std::vector<int> markers;    // by attribute index
  PairMemo best_in_value;    // by (token, value)
};

/// A record of the batch rebuilt from value reps: its serialized
/// sequence as memo ids, the ids of its non-missing values, its sorted
/// unique ids and its normalized 4-gram embedding.
struct BatchRecord {
  std::vector<int> seq;
  std::vector<uint32_t> values;
  std::vector<uint64_t> unique_ids;
  ml::Vector gram_embed;
};

double BestInValue(Memo* memo, int id_a, uint32_t value) {
  double& slot = memo->best_in_value.Slot(id_a, value);
  if (slot >= 0.0) return slot;
  // The original SoftAlignment inner loop over one value's tokens.
  double best = 0.0;
  for (int id_b : memo->reps[value].ids) {
    if (memo->table.marker[id_b]) continue;
    if (id_a == id_b) {
      best = 1.0;
      break;
    }
    best = std::max(best, memo->table.ids.JaroWinkler(id_a, id_b));
  }
  slot = best;
  return best;
}

/// SoftAlignment over interned sequences: the same per-token best
/// matches, summed over `a`'s non-marker tokens in sequence order.
/// `best_in_record` holds each token's best match over one record of
/// the batch, by (token, record): every pair shares the pivot record,
/// so it serves that.
double SoftAlignmentInterned(const BatchRecord& a, const BatchRecord& b,
                             uint32_t b_index, Memo* memo,
                             PairMemo* best_in_record) {
  if (a.seq.empty() || b.seq.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (int id_a : a.seq) {
    if (memo->table.marker[id_a]) continue;
    double& best = best_in_record->Slot(id_a, b_index);
    if (best < 0.0) {
      double max = 0.0;
      for (uint32_t value : b.values) {
        max = std::max(max, BestInValue(memo, id_a, value));
      }
      best = max;
    }
    total += best;
    ++counted;
  }
  return counted > 0 ? total / counted : 0.0;
}

/// NumericAgreement over interned sequences with the per-token parse
/// done once at interning time.
double NumericAgreementInterned(const std::vector<int>& a,
                                const std::vector<int>& b,
                                const TokenTable& table) {
  int numeric = 0;
  int agreed = 0;
  for (int id_a : a) {
    if (!table.numeric_ok[id_a]) continue;
    ++numeric;
    for (int id_b : b) {
      if (table.numeric_ok[id_b] &&
          text::NumericSimilarity(table.numeric_val[id_a],
                                  table.numeric_val[id_b]) > 0.98) {
        ++agreed;
        break;
      }
    }
  }
  return numeric > 0 ? static_cast<double>(agreed) / numeric : 0.5;
}

}  // namespace

DittoModel::DittoModel()
    : FeatureMatcher(Head::kLogistic),
      ngram_embedder_(kNgramDim, /*seed=*/0xD1770) {}

std::string DittoModel::Serialize(const data::Schema& schema,
                                  const data::Record& record) {
  std::string out;
  for (int a = 0; a < schema.size(); ++a) {
    if (a > 0) out.push_back(' ');
    out += "[COL] " + schema.name(a) + " [VAL]";
    if (!text::IsMissing(record.values[a])) {
      out.push_back(' ');
      out += record.values[a];
    }
  }
  return out;
}

ml::Vector DittoModel::Features(const data::Record& u,
                                const data::Record& v) const {
  return PairFeatures(MakeRep(u, ngram_embedder_),
                      MakeRep(v, ngram_embedder_));
}

std::vector<ml::Vector> DittoModel::FeaturesBatch(
    std::span<const RecordPair> pairs, ScoreMemo* score_memo) const {
  // Pass 1: a rep for each value new to the memo, its tokens interned
  // into the memo's table; then one record per distinct record of the
  // batch (by address), assembled from its values' reps.
  Memo& memo = score_memo->Get<Memo>();
  BatchValues batch(pairs, &memo.values);
  for (uint32_t id = static_cast<uint32_t>(memo.reps.size());
       id < memo.values.size(); ++id) {
    std::string_view value = memo.values.value(id);
    ValueRep& rep = memo.reps.emplace_back();
    rep.missing = text::IsMissing(value);
    if (rep.missing) continue;
    for (const std::string& token : text::Tokenize(value)) {
      rep.ids.push_back(memo.table.Intern(NormalizeToken(token)));
    }
    rep.gram_counts = ngram_embedder_.TransformHashed(
        text::CharNgramHashes(value, 4, ngram_embedder_.seed()));
  }
  std::vector<BatchRecord> records(batch.records());
  for (size_t r = 0; r < batch.records(); ++r) {
    std::span<const uint32_t> ids = batch.ids(r);
    BatchRecord& record = records[r];
    record.gram_embed.assign(kNgramDim, 0.0);
    for (size_t a = 0; a < ids.size(); ++a) {
      if (a == memo.markers.size()) {
        memo.markers.push_back(
            memo.table.Intern("[COL" + std::to_string(a) + "]"));
      }
      record.seq.push_back(memo.markers[a]);
      const ValueRep& value = memo.reps[ids[a]];
      if (value.missing) continue;
      record.seq.insert(record.seq.end(), value.ids.begin(), value.ids.end());
      record.values.push_back(ids[a]);
      AddCounts(value.gram_counts, &record.gram_embed);
    }
    text::L2Normalize(&record.gram_embed);
    // Sorted unique ids stand in for the sorted unique token strings:
    // same distinct elements, so the same Jaccard cardinalities.
    record.unique_ids.assign(record.seq.begin(), record.seq.end());
    SortUnique(&record.unique_ids);
  }

  // Pass 2: features through the memos — every distinct (token, token)
  // and (token, value) evaluation is paid once per memo, and every
  // (token, record) once per batch, instead of once per pair. Values
  // are bit-identical to PairFeatures.
  PairMemo best_in_record;
  std::vector<ml::Vector> rows;
  rows.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint32_t left = static_cast<uint32_t>(batch.left(i));
    const uint32_t right = static_cast<uint32_t>(batch.right(i));
    const BatchRecord& u = records[left];
    const BatchRecord& v = records[right];
    double align_uv =
        SoftAlignmentInterned(u, v, right, &memo, &best_in_record);
    double align_vu =
        SoftAlignmentInterned(v, u, left, &memo, &best_in_record);
    rows.push_back({
        align_uv,
        align_vu,
        std::min(align_uv, align_vu),
        text::CosineSimilarity(u.gram_embed, v.gram_embed),
        JaccardOfIds(u.unique_ids, v.unique_ids),
        NumericAgreementInterned(u.seq, v.seq, memo.table),
    });
  }
  return rows;
}

}  // namespace certa::models
