#include "text/similarity.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace certa::text {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0);
  EXPECT_EQ(LevenshteinDistance("abc", "abd"), 1);
}

TEST(LevenshteinTest, SymmetricAndBounded) {
  EXPECT_EQ(LevenshteinDistance("sony", "snoy"),
            LevenshteinDistance("snoy", "sony"));
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  // Classic textbook value: JARO(martha, marhta) = 0.944...
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
}

// JaroSimilarity with its match flags in two std::vector<bool> per
// call, as it was before the flags moved to a stack buffer: the
// reference the kernel must equal bit for bit.
double VectorFlagsJaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int match_window =
      std::max(0, static_cast<int>(std::max(a.size(), b.size())) / 2 - 1);
  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
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

TEST(JaroTest, StackFlagsMatchVectorFlagsBitForBit) {
  std::vector<std::pair<std::string, std::string>> cases;
  Rng rng(64);
  auto random_string = [&rng](int length, int alphabet) {
    std::string text;
    for (int i = 0; i < length; ++i) {
      text.push_back(static_cast<char>('a' + rng.UniformInt(0, alphabet - 1)));
    }
    return text;
  };
  // Every length 0..130 over 2-4 letters, so matches and transpositions
  // are common, on both sides of the 64-byte stack buffer.
  for (int length = 0; length <= 130; ++length) {
    for (int alphabet = 2; alphabet <= 4; ++alphabet) {
      for (int k = 0; k < 3; ++k) {
        std::string a = random_string(length, alphabet);
        std::string b = random_string(rng.UniformInt(0, 130), alphabet);
        cases.emplace_back(a, b);
        cases.emplace_back(b, a);
        cases.emplace_back(a, a);
      }
    }
  }
  // The tokens the models compare, each against a seeded sample.
  for (const char* code : {"FZ", "AB", "DA", "IA"}) {
    data::Dataset dataset = data::MakeBenchmark(code);
    std::vector<std::string> tokens;
    for (const data::Table* table : {&dataset.left, &dataset.right}) {
      for (int r = 0; r < table->size(); ++r) {
        for (const std::string& value : table->record(r).values) {
          for (std::string& token : Tokenize(value)) {
            tokens.push_back(std::move(token));
          }
        }
      }
    }
    tokens = UniqueTokens(tokens);
    ASSERT_GT(tokens.size(), 1u) << code;
    for (const std::string& token : tokens) {
      for (int k = 0; k < 4; ++k) {
        cases.emplace_back(token, tokens[rng.UniformUint64(tokens.size())]);
      }
    }
  }
  for (const auto& [a, b] : cases) {
    ASSERT_EQ(std::bit_cast<uint64_t>(JaroSimilarity(a, b)),
              std::bit_cast<uint64_t>(VectorFlagsJaro(a, b)))
        << "'" << a << "' vs '" << b << "'";
  }
}

TEST(JaroWinklerTest, PrefixBoost) {
  double jaro = JaroSimilarity("prefixend", "prefixxyz");
  double jw = JaroWinklerSimilarity("prefixend", "prefixxyz");
  EXPECT_GT(jw, jaro);
  EXPECT_LE(jw, 1.0);
  // Textbook: JW(dwayne, duane) ~ 0.84.
  EXPECT_NEAR(JaroWinklerSimilarity("dwayne", "duane"), 0.84, 0.01);
}

TEST(JaccardTest, SetSemantics) {
  std::vector<std::string> a = {"x", "y", "y"};
  std::vector<std::string> b = {"y", "z"};
  // Sets {x,y} and {y,z}: intersection 1, union 3.
  EXPECT_NEAR(JaccardSimilarity(a, b), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0);
}

TEST(OverlapTest, MinNormalization) {
  std::vector<std::string> small = {"a"};
  std::vector<std::string> large = {"a", "b", "c", "d"};
  EXPECT_DOUBLE_EQ(OverlapCoefficient(small, large), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({}, large), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({}, {}), 1.0);
}

TEST(DiceTest, KnownValue) {
  std::vector<std::string> a = {"a", "b"};
  std::vector<std::string> b = {"b", "c"};
  EXPECT_NEAR(DiceCoefficient(a, b), 0.5, 1e-12);
}

TEST(CosineTest, OrthogonalAndParallel) {
  std::vector<std::string> a = {"x", "y"};
  std::vector<std::string> b = {"z", "w"};
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity(a, b), 0.0);
  EXPECT_NEAR(CosineTokenSimilarity(a, a), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity(a, {}), 0.0);
}

TEST(MongeElkanTest, AsymmetryAndSymmetrization) {
  std::vector<std::string> a = {"sony"};
  std::vector<std::string> b = {"sony", "unrelatedzzz"};
  double ab = MongeElkanSimilarity(a, b);
  double ba = MongeElkanSimilarity(b, a);
  EXPECT_DOUBLE_EQ(ab, 1.0);  // every token of a matches perfectly
  EXPECT_LT(ba, 1.0);
  EXPECT_NEAR(SymmetricMongeElkan(a, b), (ab + ba) / 2.0, 1e-12);
}

TEST(TokenSetTest, UniqueDecompositionMatches) {
  // The precomputed-set forms must reproduce the plain forms exactly.
  std::vector<std::vector<std::string>> lists = {
      {}, {"sony"}, {"sony", "bravia", "sony"}, {"a", "b", "c"},
      {"b", "a"}};
  for (const auto& a : lists) {
    for (const auto& b : lists) {
      auto ua = UniqueTokens(a);
      auto ub = UniqueTokens(b);
      EXPECT_EQ(JaccardOfUnique(ua, ub), JaccardSimilarity(a, b));
      EXPECT_EQ(OverlapOfUnique(ua, ub), OverlapCoefficient(a, b));
    }
  }
}

TEST(TrigramTest, ShingleDecompositionMatches) {
  // Precomputed-shingle path must reproduce the string path bit for bit
  // (it is the memoized form the models' batch featurizers rely on).
  for (const char* a : {"sony bravia", "sony brava", "", "ab", "zzz qqq"}) {
    for (const char* b : {"sony bravia", "", "x"}) {
      EXPECT_EQ(TrigramSimilarityOfShingles(TrigramShingles(a),
                                            TrigramShingles(b)),
                TrigramSimilarity(a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(TrigramTest, TypoRobustness) {
  double clean = TrigramSimilarity("sony bravia", "sony bravia");
  double typo = TrigramSimilarity("sony bravia", "sony brava");
  double unrelated = TrigramSimilarity("sony bravia", "zzz qqq");
  EXPECT_DOUBLE_EQ(clean, 1.0);
  EXPECT_GT(typo, 0.5);
  EXPECT_LT(unrelated, 0.1);
}

TEST(NumericSimilarityTest, RelativeScale) {
  EXPECT_DOUBLE_EQ(NumericSimilarity(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity(0.0, 0.0), 1.0);
  EXPECT_NEAR(NumericSimilarity(100.0, 90.0), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(NumericSimilarity(1.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity(0.0, 5.0), 0.0);
}

TEST(AttributeSimilarityTest, MissingValueSemantics) {
  EXPECT_DOUBLE_EQ(AttributeSimilarity("NaN", "NaN"), 1.0);
  EXPECT_DOUBLE_EQ(AttributeSimilarity("NaN", "sony"), 0.0);
  EXPECT_DOUBLE_EQ(AttributeSimilarity("", ""), 1.0);
}

TEST(AttributeSimilarityTest, NumericDispatch) {
  EXPECT_NEAR(AttributeSimilarity("100", "90"), 0.9, 1e-9);
  EXPECT_NEAR(AttributeSimilarity("$100.00", "100"), 1.0, 1e-9);
}

TEST(AttributeSimilarityTest, TextBlend) {
  double same = AttributeSimilarity("sony bravia tv", "sony bravia tv");
  double close = AttributeSimilarity("sony bravia tv", "sony bravia");
  double far = AttributeSimilarity("sony bravia tv", "altec lansing");
  EXPECT_DOUBLE_EQ(same, 1.0);
  EXPECT_GT(close, far);
  EXPECT_GT(close, 0.4);
  EXPECT_LT(far, 0.1);
}

// Property sweep: every similarity stays in [0, 1] on random inputs and
// is exactly 1 on identical inputs.
class SimilarityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimilarityPropertyTest, BoundsAndIdentity) {
  Rng rng(GetParam());
  auto random_token = [&rng]() {
    std::string token;
    int length = rng.UniformInt(1, 8);
    for (int i = 0; i < length; ++i) {
      token.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
    }
    return token;
  };
  for (int round = 0; round < 20; ++round) {
    std::vector<std::string> a;
    std::vector<std::string> b;
    int na = rng.UniformInt(0, 6);
    int nb = rng.UniformInt(0, 6);
    for (int i = 0; i < na; ++i) a.push_back(random_token());
    for (int i = 0; i < nb; ++i) b.push_back(random_token());
    std::string sa;
    for (const auto& t : a) sa += t + " ";
    std::string sb;
    for (const auto& t : b) sb += t + " ";

    for (double value :
         {LevenshteinSimilarity(sa, sb), JaroSimilarity(sa, sb),
          JaroWinklerSimilarity(sa, sb), JaccardSimilarity(a, b),
          OverlapCoefficient(a, b), DiceCoefficient(a, b),
          CosineTokenSimilarity(a, b), MongeElkanSimilarity(a, b),
          SymmetricMongeElkan(a, b), TrigramSimilarity(sa, sb),
          AttributeSimilarity(sa, sb)}) {
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value, 1.0 + 1e-12);
    }
    EXPECT_DOUBLE_EQ(JaccardSimilarity(a, a), 1.0);
    EXPECT_NEAR(CosineTokenSimilarity(a, a), a.empty() ? 1.0 : 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(LevenshteinSimilarity(sa, sa), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace certa::text
