#ifndef CERTA_MODELS_BATCH_VALUES_H_
#define CERTA_MODELS_BATCH_VALUES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "ml/dense.h"
#include "models/matcher.h"
#include "models/score_memo.h"
#include "util/logging.h"

namespace certa::models {

/// Distinct attribute values by content, each string owned by the
/// table: equal strings at distinct addresses (copies in perturbed
/// records, one string in two attributes) share one id. Lives in a
/// ScoreMemo, so a value keeps its id, and the model its rep, across
/// the batches of one explanation.
class ValueIds {
 public:
  ValueIds() = default;
  ValueIds(const ValueIds&) = delete;  // index_ views this object's strings
  ValueIds& operator=(const ValueIds&) = delete;

  /// Ids are 0..size()-1 in first-seen order.
  uint32_t Intern(std::string_view value);
  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }
  std::string_view value(uint32_t id) const { return values_[id]; }

 private:
  std::deque<std::string> values_;  // stable addresses for index_'s keys
  std::unordered_map<std::string_view, uint32_t> index_;
};

/// The distinct records of one FeaturesBatch call (by address, so it
/// must not outlive the batch's pairs) with the value id of each of
/// their attributes. A lattice batch copies a few support values into
/// many perturbed records, so it holds far fewer distinct values than
/// pairs x attributes; the matchers featurize each distinct value once
/// into a value rep and build record and attribute-pair features from
/// those reps.
class BatchValues {
 public:
  /// Interns every attribute value of the batch into `values`.
  BatchValues(std::span<const RecordPair> pairs, ValueIds* values);

  /// Distinct records, in first-seen order.
  size_t records() const { return record_begin_.size() - 1; }
  /// Value id of each attribute of `record`, in attribute order.
  std::span<const uint32_t> ids(size_t record) const {
    return {record_ids_.data() + record_begin_[record],
            record_begin_[record + 1] - record_begin_[record]};
  }

  /// Record index of each side of pair `i`.
  size_t left(size_t i) const { return pair_records_[2 * i]; }
  size_t right(size_t i) const { return pair_records_[2 * i + 1]; }

 private:
  std::vector<uint32_t> record_ids_;
  std::vector<size_t> record_begin_;
  std::vector<size_t> pair_records_;
};

/// A double in [0, 1] per ordered pair of 32-bit ids, in an
/// open-addressing hash table: the models' (token, token), (token,
/// value) and (token, record) memos.
class PairMemo {
 public:
  /// The slot of (a, b), negative until the caller sets it. Valid until
  /// the next Slot call.
  double& Slot(uint32_t a, uint32_t b);

 private:
  struct Entry {
    uint64_t key;
    double value;
  };
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  std::vector<Entry> entries_;  // power-of-two size, at most half full
  size_t used_ = 0;
};

/// Distinct tokens by content, and the Jaro-Winkler of every ordered
/// token pair asked for. Equal strings share an id, so sorted id sets
/// have exactly the intersections and unions of the token-string sets
/// they stand for.
class TokenIds {
 public:
  TokenIds() = default;
  TokenIds(const TokenIds&) = delete;  // tokens_ points at index_'s keys
  TokenIds& operator=(const TokenIds&) = delete;

  uint32_t Intern(std::string token) {
    auto [it, inserted] = index_.try_emplace(std::move(token), size());
    if (inserted) tokens_.push_back(&it->first);
    return it->second;
  }
  uint32_t size() const { return static_cast<uint32_t>(tokens_.size()); }
  const std::string& token(uint32_t id) const { return *tokens_[id]; }

  /// text::JaroWinklerSimilarity(token(a), token(b)), computed once per
  /// ordered pair (the greedy Jaro matching is not symmetric).
  double JaroWinkler(uint32_t a, uint32_t b);

 private:
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<const std::string*> tokens_;  // points at the map's keys
  PairMemo jaro_winkler_;
};

/// Adds one value's +/-1 hashed bucket counts into a record's sum. The
/// counts are integers held in doubles, so the sum is exact in any
/// order: it equals the per-token accumulation of the per-pair path,
/// before the same L2 normalization.
void AddCounts(const ml::Vector& counts, ml::Vector* sum);

/// Sorts and deduplicates `ids` in place: the id-set form of
/// text::UniqueTokens.
void SortUnique(std::vector<uint64_t>* ids);

/// text::JaccardOfUnique and text::OverlapOfUnique over sorted unique
/// id sets. Ids are one-to-one with distinct tokens, so the
/// cardinalities, and hence the coefficients, are bit-identical.
double JaccardOfIds(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b);
double OverlapOfIds(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b);

/// text::SymmetricMongeElkan over token-id sequences, reading each
/// Jaro-Winkler from `tokens`: the same loops over the same doubles, so
/// bit-identical.
double SymmetricMongeElkanOfIds(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b,
                                TokenIds* tokens);

/// The memo of an attribute-aligned model (SVM, DeepMatcher): one rep
/// per distinct value and one feature block per distinct (left value,
/// right value), whichever attribute it occurs in.
template <typename Rep, typename Block>
struct AlignedMemo : ScoreMemo::State {
  ValueIds values;
  std::vector<Rep> reps;  // by value id
  std::unordered_map<uint64_t, Block> blocks;
};

/// FeaturesBatch of an attribute-aligned model, whose feature row
/// concatenates one block per attribute that depends on the two aligned
/// values only. `make_rep(value)` runs once per value new to `memo`,
/// and `make_block(rep_u, rep_v)` once per (left value, right value)
/// new to it. Each row is assembled from the memoized blocks, so it
/// equals the per-pair features bit for bit.
template <typename Rep, typename Block, typename MakeRep, typename MakeBlock>
std::vector<ml::Vector> AlignedFeaturesBatch(std::span<const RecordPair> pairs,
                                             AlignedMemo<Rep, Block>* memo,
                                             const MakeRep& make_rep,
                                             const MakeBlock& make_block,
                                             const char* model) {
  BatchValues batch(pairs, &memo->values);
  for (uint32_t id = static_cast<uint32_t>(memo->reps.size());
       id < memo->values.size(); ++id) {
    memo->reps.push_back(make_rep(memo->values.value(id)));
  }
  std::vector<ml::Vector> rows(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::span<const uint32_t> u = batch.ids(batch.left(i));
    std::span<const uint32_t> v = batch.ids(batch.right(i));
    CERTA_CHECK_EQ(u.size(), v.size()) << model << " requires aligned schemas";
    rows[i].reserve(u.size() * std::tuple_size_v<Block>);
    for (size_t a = 0; a < u.size(); ++a) {
      const uint64_t key = (static_cast<uint64_t>(u[a]) << 32) | v[a];
      auto it = memo->blocks.find(key);
      if (it == memo->blocks.end()) {
        it = memo->blocks
                 .emplace(key, make_block(memo->reps[u[a]], memo->reps[v[a]]))
                 .first;
      }
      rows[i].insert(rows[i].end(), it->second.begin(), it->second.end());
    }
  }
  return rows;
}

}  // namespace certa::models

#endif  // CERTA_MODELS_BATCH_VALUES_H_
