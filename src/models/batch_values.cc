#include "models/batch_values.h"

#include <algorithm>

#include "text/similarity.h"
#include "text/simd.h"

namespace certa::models {

uint32_t ValueIds::Intern(std::string_view value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  const uint32_t id = size();
  values_.emplace_back(value);
  index_.emplace(values_.back(), id);
  return id;
}

BatchValues::BatchValues(std::span<const RecordPair> pairs, ValueIds* values) {
  std::unordered_map<const data::Record*, size_t> record_index;
  record_begin_.push_back(0);
  auto record_of = [&](const data::Record* record) {
    auto [it, inserted] = record_index.try_emplace(record, records());
    if (inserted) {
      for (const std::string& value : record->values) {
        record_ids_.push_back(values->Intern(value));
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

double& PairMemo::Slot(uint32_t a, uint32_t b) {
  if (2 * (used_ + 1) > entries_.size()) {
    std::vector<Entry> old(std::max<size_t>(64, 2 * entries_.size()),
                           Entry{kEmpty, -1.0});
    old.swap(entries_);
    used_ = 0;
    for (const Entry& entry : old) {
      if (entry.key != kEmpty) {
        Slot(static_cast<uint32_t>(entry.key >> 32),
             static_cast<uint32_t>(entry.key)) = entry.value;
      }
    }
  }
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  const size_t mask = entries_.size() - 1;
  size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  while (entries_[i].key != key) {
    if (entries_[i].key == kEmpty) {
      entries_[i].key = key;
      ++used_;
      break;
    }
    i = (i + 1) & mask;
  }
  return entries_[i].value;
}

double TokenIds::JaroWinkler(uint32_t a, uint32_t b) {
  double& slot = jaro_winkler_.Slot(a, b);
  if (slot < 0.0) slot = text::JaroWinklerSimilarity(token(a), token(b));
  return slot;
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

/// text::MongeElkanSimilarity's loop over ids.
double MongeElkanOfIds(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b, TokenIds* tokens) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (uint32_t token_a : a) {
    double best = 0.0;
    for (uint32_t token_b : b) {
      best = std::max(best, tokens->JaroWinkler(token_a, token_b));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
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

double SymmetricMongeElkanOfIds(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b,
                                TokenIds* tokens) {
  return 0.5 * (MongeElkanOfIds(a, b, tokens) + MongeElkanOfIds(b, a, tokens));
}

}  // namespace certa::models
