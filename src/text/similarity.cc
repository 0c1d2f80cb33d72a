#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "text/simd.h"
#include "text/tokenizer.h"

namespace certa::text {
namespace {

std::unordered_set<std::string> AsSet(const std::vector<std::string>& tokens) {
  return {tokens.begin(), tokens.end()};
}

size_t IntersectionSize(const std::unordered_set<std::string>& a,
                        const std::unordered_set<std::string>& b) {
  const auto& smaller = a.size() <= b.size() ? a : b;
  const auto& larger = a.size() <= b.size() ? b : a;
  size_t count = 0;
  for (const auto& item : smaller) {
    if (larger.contains(item)) ++count;
  }
  return count;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  return simd::LevenshteinDistance(a, b);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int match_window =
      std::max(0, static_cast<int>(std::max(a.size(), b.size())) / 2 - 1);
  // Match flags on the stack for strings up to kStackFlags bytes, such
  // as the tokens the models compare; on the heap only beyond.
  constexpr size_t kStackFlags = 64;
  bool stack_flags[2 * kStackFlags] = {};
  std::unique_ptr<bool[]> heap_flags;
  bool* a_matched = stack_flags;
  bool* b_matched = stack_flags + kStackFlags;
  if (a.size() > kStackFlags || b.size() > kStackFlags) {
    heap_flags = std::make_unique<bool[]>(a.size() + b.size());
    a_matched = heap_flags.get();
    b_matched = a_matched + a.size();
  }
  int matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > static_cast<size_t>(match_window)
                    ? i - static_cast<size_t>(match_window)
                    : 0;
    size_t hi = std::min(b.size(), i + static_cast<size_t>(match_window) + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  int transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = matches;
  return (m / static_cast<double>(a.size()) +
          m / static_cast<double>(b.size()) +
          (m - transpositions / 2.0) / m) /
         3.0;
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  double jaro = JaroSimilarity(a, b);
  size_t prefix = 0;
  size_t limit = std::min({a.size(), b.size(), static_cast<size_t>(4)});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

std::vector<std::string> UniqueTokens(const std::vector<std::string>& tokens) {
  std::vector<std::string> unique = tokens;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  return unique;
}

namespace {

/// Sorted-merge intersection count over UniqueTokens vectors; equals
/// IntersectionSize over the corresponding hash sets.
size_t SortedIntersectionSize(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  size_t intersection = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    int cmp = a[i].compare(b[j]);
    if (cmp == 0) {
      ++intersection;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return intersection;
}

}  // namespace

double JaccardOfUnique(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t intersection = SortedIntersectionSize(a, b);
  size_t union_size = a.size() + b.size() - intersection;
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

double OverlapOfUnique(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t smaller = std::min(a.size(), b.size());
  return static_cast<double>(SortedIntersectionSize(a, b)) /
         static_cast<double>(smaller);
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  // Same sets, same coefficient as the hash-set formulation, via the
  // sorted-unique representation (cheaper: no node allocations, and the
  // augmentation-weight scan calls this per pool record).
  return JaccardOfUnique(UniqueTokens(a), UniqueTokens(b));
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  auto set_a = AsSet(a);
  auto set_b = AsSet(b);
  size_t smaller = std::min(set_a.size(), set_b.size());
  return static_cast<double>(IntersectionSize(set_a, set_b)) /
         static_cast<double>(smaller);
}

double DiceCoefficient(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  auto set_a = AsSet(a);
  auto set_b = AsSet(b);
  size_t total = set_a.size() + set_b.size();
  if (total == 0) return 1.0;
  return 2.0 * static_cast<double>(IntersectionSize(set_a, set_b)) /
         static_cast<double>(total);
}

double CosineTokenSimilarity(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  return simd::CosineTokenSimilarity(a, b);
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& token_a : a) {
    double best = 0.0;
    for (const auto& token_b : b) {
      best = std::max(best, JaroWinklerSimilarity(token_a, token_b));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

double SymmetricMongeElkan(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  return 0.5 * (MongeElkanSimilarity(a, b) + MongeElkanSimilarity(b, a));
}

std::vector<uint64_t> TrigramShingles(std::string_view text) {
  // Hashed shingles instead of materialized gram strings: this is the
  // innermost loop of AttributeSimilarity (called per attribute value
  // by the models and triangle search), and the per-gram substr
  // allocations dominated its cost. Jaccard over 64-bit gram hashes
  // equals Jaccard over the gram strings (collisions are ~2^-64).
  std::vector<uint64_t> grams = CharNgramHashes(text, 3);
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

double TrigramSimilarityOfShingles(const std::vector<uint64_t>& a,
                                   const std::vector<uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t intersection =
      simd::SortedIntersectionCount(a.data(), a.size(), b.data(), b.size());
  size_t union_size = a.size() + b.size() - intersection;
  if (union_size == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(union_size);
}

double TrigramSimilarity(std::string_view a, std::string_view b) {
  return TrigramSimilarityOfShingles(TrigramShingles(a), TrigramShingles(b));
}

double NumericSimilarity(double a, double b) {
  if (a == b) return 1.0;
  double scale = std::max(std::fabs(a), std::fabs(b));
  if (scale == 0.0) return 1.0;
  double relative = std::fabs(a - b) / scale;
  return std::max(0.0, 1.0 - relative);
}

double AttributeSimilarity(std::string_view a, std::string_view b) {
  bool missing_a = IsMissing(a);
  bool missing_b = IsMissing(b);
  if (missing_a && missing_b) return 1.0;
  if (missing_a || missing_b) return 0.0;
  double num_a = 0.0;
  double num_b = 0.0;
  if (TryParseNumeric(a, &num_a) && TryParseNumeric(b, &num_b)) {
    return NumericSimilarity(num_a, num_b);
  }
  std::vector<std::string> tokens_a = Tokenize(a);
  std::vector<std::string> tokens_b = Tokenize(b);
  return 0.5 * JaccardSimilarity(tokens_a, tokens_b) +
         0.5 * TrigramSimilarity(a, b);
}

}  // namespace certa::text
