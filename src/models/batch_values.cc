#include "models/batch_values.h"

#include <algorithm>

#include "text/simd.h"

namespace certa::models {

BatchValues::BatchValues(std::span<const RecordPair> pairs) {
  std::unordered_map<std::string_view, uint32_t> value_index;
  std::unordered_map<const data::Record*, size_t> record_index;
  record_begin_.push_back(0);
  auto record_of = [&](const data::Record* record) {
    auto [it, inserted] = record_index.try_emplace(record, records());
    if (inserted) {
      for (const std::string& value : record->values) {
        auto [value_it, fresh] = value_index.try_emplace(value, size());
        if (fresh) values_.push_back(value);
        record_ids_.push_back(value_it->second);
      }
      record_begin_.push_back(record_ids_.size());
    }
    return it->second;
  };
  pair_records_.reserve(2 * pairs.size());
  for (const RecordPair& pair : pairs) {
    pair_records_.push_back(record_of(pair.left));
    pair_records_.push_back(record_of(pair.right));
  }
}

void AddCounts(const ml::Vector& counts, ml::Vector* sum) {
  for (size_t i = 0; i < counts.size(); ++i) (*sum)[i] += counts[i];
}

void SortUnique(std::vector<uint64_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

namespace {

size_t IntersectionCount(const std::vector<uint64_t>& a,
                         const std::vector<uint64_t>& b) {
  return text::simd::SortedIntersectionCount(a.data(), a.size(), b.data(),
                                             b.size());
}

}  // namespace

double JaccardOfIds(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t intersection = IntersectionCount(a, b);
  size_t union_size = a.size() + b.size() - intersection;
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

double OverlapOfIds(const std::vector<uint64_t>& a,
                    const std::vector<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t smaller = std::min(a.size(), b.size());
  return static_cast<double>(IntersectionCount(a, b)) /
         static_cast<double>(smaller);
}

}  // namespace certa::models
