#ifndef CERTA_MODELS_BATCH_VALUES_H_
#define CERTA_MODELS_BATCH_VALUES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "ml/dense.h"
#include "models/matcher.h"
#include "util/logging.h"

namespace certa::models {

/// The distinct attribute values of one FeaturesBatch call. A lattice
/// batch copies a few support values into many perturbed records, so
/// it holds far fewer distinct values than pairs x attributes; the
/// matchers featurize each distinct value once into a value rep and
/// build record and attribute-pair features from those reps.
///
/// Values are keyed by content, so equal strings at distinct addresses
/// (copies in perturbed records, one string in two attributes) share
/// one id. Records are keyed by address. The table holds string_views
/// into the caller's records: it must not outlive the batch's pairs.
class BatchValues {
 public:
  explicit BatchValues(std::span<const RecordPair> pairs);

  /// Distinct values; ids are 0..size()-1 in first-seen order.
  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }
  std::string_view value(uint32_t id) const { return values_[id]; }

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
  std::vector<std::string_view> values_;
  std::vector<uint32_t> record_ids_;
  std::vector<size_t> record_begin_;
  std::vector<size_t> pair_records_;
};

/// Batch-local ids of distinct tokens. Equal strings share an id, so
/// sorted id sets have exactly the intersections and unions of the
/// token-string sets they stand for.
class TokenIds {
 public:
  uint32_t Intern(std::string token) {
    auto [it, inserted] = index_.try_emplace(std::move(token), size());
    if (inserted) tokens_.push_back(&it->first);
    return it->second;
  }
  uint32_t size() const { return static_cast<uint32_t>(tokens_.size()); }
  const std::string& token(uint32_t id) const { return *tokens_[id]; }

 private:
  std::unordered_map<std::string, uint32_t> index_;
  std::vector<const std::string*> tokens_;  // points at the map's keys
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

/// FeaturesBatch of an attribute-aligned model (SVM, DeepMatcher),
/// whose feature row concatenates one block per attribute that depends
/// on the two aligned values only. `make_rep(value)` runs once per
/// distinct value of the batch, and `make_block(rep_u, rep_v)` once per
/// distinct (left value, right value), whichever attribute it occurs
/// in. Each row is assembled from the memoized blocks, so it equals the
/// per-pair features bit for bit.
template <typename MakeRep, typename MakeBlock>
std::vector<ml::Vector> AlignedFeaturesBatch(std::span<const RecordPair> pairs,
                                             const MakeRep& make_rep,
                                             const MakeBlock& make_block,
                                             const char* model) {
  using Rep = std::invoke_result_t<MakeRep, std::string_view>;
  using Block = std::invoke_result_t<MakeBlock, const Rep&, const Rep&>;
  BatchValues values(pairs);
  std::vector<Rep> reps;
  reps.reserve(values.size());
  for (uint32_t id = 0; id < values.size(); ++id) {
    reps.push_back(make_rep(values.value(id)));
  }
  std::unordered_map<uint64_t, Block> blocks;
  std::vector<ml::Vector> rows(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::span<const uint32_t> u = values.ids(values.left(i));
    std::span<const uint32_t> v = values.ids(values.right(i));
    CERTA_CHECK_EQ(u.size(), v.size()) << model << " requires aligned schemas";
    rows[i].reserve(u.size() * std::tuple_size_v<Block>);
    for (size_t a = 0; a < u.size(); ++a) {
      const uint64_t key = (static_cast<uint64_t>(u[a]) << 32) | v[a];
      auto [it, inserted] = blocks.try_emplace(key);
      if (inserted) it->second = make_block(reps[u[a]], reps[v[a]]);
      rows[i].insert(rows[i].end(), it->second.begin(), it->second.end());
    }
  }
  return rows;
}

}  // namespace certa::models

#endif  // CERTA_MODELS_BATCH_VALUES_H_
