#include "text/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace landmark {
namespace {

using Tokens = std::vector<std::string>;

std::string RandomString(Rng& rng, size_t min_len, size_t max_len,
                         int alphabet) {
  const size_t len = static_cast<size_t>(rng.NextInt(
      static_cast<int64_t>(min_len), static_cast<int64_t>(max_len)));
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + rng.NextInt(0, alphabet - 1)));
  }
  return out;
}

/// Classic O(m*n) edit-distance DP, written out independently of
/// similarity.cc: the reference for both the word-sized Myers kernel and
/// the long-string fallback.
size_t ReferenceLevenshtein(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(a.size() + 1);
  std::vector<size_t> curr(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    curr[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, prev[i - 1] + cost});
    }
    std::swap(prev, curr);
  }
  return prev[a.size()];
}

/// Nested-loop Jaro with the same closing formula as similarity.cc, so the
/// comparison below can demand bit-equality.
double ReferenceJaro(const std::string& a, const std::string& b) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;
  const size_t window = std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  std::vector<bool> a_matched(la, false);
  std::vector<bool> b_matched(lb, false);
  size_t matches = 0;
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = b_matched[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  for (size_t i = 0, j = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double m = static_cast<double>(matches);
  return (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0;
}

// The bit-parallel kernels take strings of at most 64 characters; longer
// ones fall back to the scalar loops. Lengths here straddle that limit on
// both sides so each comparison exercises the dispatch, not just a kernel.
TEST(LevenshteinTest, MatchesScalarDpAcrossWordLimit) {
  Rng rng(61);
  for (int trial = 0; trial < 600; ++trial) {
    // Small alphabets force repeats, the hard case for the bit deltas.
    const int alphabet = trial % 2 == 0 ? 3 : 26;
    const std::string a = RandomString(rng, 56, 72, alphabet);
    const std::string b = RandomString(rng, 0, 100, alphabet);
    EXPECT_EQ(LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
        << "a=" << a << " b=" << b;
    EXPECT_EQ(LevenshteinDistance(b, a), ReferenceLevenshtein(a, b))
        << "a=" << b << " b=" << a;
  }
}

TEST(JaroTest, MatchesScalarScanAcrossWordLimit) {
  Rng rng(62);
  for (int trial = 0; trial < 600; ++trial) {
    const int alphabet = trial % 2 == 0 ? 3 : 26;
    const std::string a = RandomString(rng, 56, 72, alphabet);
    const std::string b = RandomString(rng, 0, 100, alphabet);
    // EXPECT_EQ on doubles: the contract is bit-equality, not epsilon.
    EXPECT_EQ(JaroSimilarity(a, b), ReferenceJaro(a, b))
        << "a=" << a << " b=" << b;
    EXPECT_EQ(JaroSimilarity(b, a), ReferenceJaro(b, a))
        << "a=" << b << " b=" << a;
  }
}

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(LevenshteinSimilarityTest, NormalizedRange) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

TEST(JaroTest, KnownValues) {
  // Classic reference pairs.
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7667, 1e-3);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "xyz"), 0.0);
}

TEST(JaroWinklerTest, PrefixBoost) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.8133, 1e-3);
  // Winkler never decreases the Jaro score.
  for (auto [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"sony", "snoy"}, {"camera", "cam"}, {"x", "y"}}) {
    EXPECT_GE(JaroWinklerSimilarity(a, b), JaroSimilarity(a, b));
  }
}

TEST(JaccardTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a"}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({"a", "a", "b"}, {"a", "b"}), 1.0);
}

TEST(OverlapTest, KnownValues) {
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"a", "b", "c"}, {"a"}), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"a", "b"}, {"b", "c"}), 0.5);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient({"a"}, {}), 0.0);
}

TEST(DiceTest, KnownValues) {
  EXPECT_DOUBLE_EQ(DiceSimilarity({"a", "b"}, {"b", "c"}), 0.5);
  EXPECT_DOUBLE_EQ(DiceSimilarity({}, {}), 1.0);
}

TEST(CosineTokenTest, KnownValues) {
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity({"a"}, {"a"}), 1.0);
  EXPECT_DOUBLE_EQ(CosineTokenSimilarity({"a"}, {"b"}), 0.0);
  EXPECT_NEAR(CosineTokenSimilarity({"a", "b"}, {"a", "c"}), 0.5, 1e-12);
  // Multiset-aware: repeated tokens raise the weight.
  EXPECT_GT(CosineTokenSimilarity({"a", "a", "b"}, {"a"}),
            CosineTokenSimilarity({"a", "b", "c"}, {"a"}));
}

TEST(MongeElkanTest, FindsBestAlignments) {
  const Tokens a = {"sony", "camera"};
  const Tokens b = {"camera", "sony"};
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity(a, b), 1.0);  // order-insensitive
  EXPECT_GT(MongeElkanSymmetric({"sony"}, {"snoy", "case"}), 0.5);
  EXPECT_DOUBLE_EQ(MongeElkanSymmetric({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSymmetric({"a"}, {}), 0.0);
}

TEST(TrigramTest, SharedSubstringsScoreHigher) {
  EXPECT_GT(TrigramSimilarity("dslra200w", "dslra200"),
            TrigramSimilarity("dslra200w", "kx5811"));
  EXPECT_DOUBLE_EQ(TrigramSimilarity("abc", "abc"), 1.0);
}

TEST(NumericTest, RelativeCloseness) {
  EXPECT_DOUBLE_EQ(NumericSimilarity(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity(50.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(NumericSimilarity(0.0, 100.0), 0.0);
  // Opposite signs clamp to 0.
  EXPECT_DOUBLE_EQ(NumericSimilarity(-10.0, 10.0), 0.0);
}

TEST(ExactMatchTest, Basics) {
  EXPECT_DOUBLE_EQ(ExactMatch("a", "a"), 1.0);
  EXPECT_DOUBLE_EQ(ExactMatch("a", "A"), 0.0);
}

// --- Property sweeps over representative string pairs -----------------------

struct SimCase {
  std::string a;
  std::string b;
};

// Without a printer gtest names each case by its raw bytes, heap pointers
// included, so the test names would change from one process to the next.
void PrintTo(const SimCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.a) << " vs "
      << ::testing::PrintToString(c.b);
}

class SimilarityPropertyTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimilarityPropertyTest, AllMeasuresAreInUnitRangeAndSymmetric) {
  const auto& p = GetParam();
  const Tokens ta = {p.a};
  const Tokens tb = {p.b};

  struct Named {
    const char* name;
    double ab;
    double ba;
  };
  const Named results[] = {
      {"lev", LevenshteinSimilarity(p.a, p.b), LevenshteinSimilarity(p.b, p.a)},
      {"jaro", JaroSimilarity(p.a, p.b), JaroSimilarity(p.b, p.a)},
      {"jw", JaroWinklerSimilarity(p.a, p.b), JaroWinklerSimilarity(p.b, p.a)},
      {"jaccard", JaccardSimilarity(ta, tb), JaccardSimilarity(tb, ta)},
      {"overlap", OverlapCoefficient(ta, tb), OverlapCoefficient(tb, ta)},
      {"dice", DiceSimilarity(ta, tb), DiceSimilarity(tb, ta)},
      {"cosine", CosineTokenSimilarity(ta, tb), CosineTokenSimilarity(tb, ta)},
      {"me", MongeElkanSymmetric(ta, tb), MongeElkanSymmetric(tb, ta)},
      {"trigram", TrigramSimilarity(p.a, p.b), TrigramSimilarity(p.b, p.a)},
  };
  for (const auto& r : results) {
    EXPECT_GE(r.ab, 0.0) << r.name;
    EXPECT_LE(r.ab, 1.0) << r.name;
    EXPECT_NEAR(r.ab, r.ba, 1e-12) << r.name << " is not symmetric";
  }
}

TEST_P(SimilarityPropertyTest, IdentityScoresOne) {
  const auto& p = GetParam();
  if (p.a.empty()) return;
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity(p.a, p.a), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity(p.a, p.a), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(p.a, p.a), 1.0);
  EXPECT_DOUBLE_EQ(TrigramSimilarity(p.a, p.a), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SimilarityPropertyTest,
    ::testing::Values(SimCase{"sony", "nikon"}, SimCase{"camera", "cam"},
                      SimCase{"dslra200w", "dslra200"},
                      SimCase{"", "nonempty"}, SimCase{"", ""},
                      SimCase{"a", "a"}, SimCase{"849.99", "7.99"},
                      SimCase{"hello world", "world hello"},
                      SimCase{"x", "yyyyyyyyyyyyyyyyyyyy"}));

TEST(LevenshteinPropertyTest, TriangleInequalityOnSamples) {
  const std::string words[] = {"sony", "snoy", "sonny", "nikon", "",
                               "camera", "cam"};
  for (const auto& a : words) {
    for (const auto& b : words) {
      for (const auto& c : words) {
        EXPECT_LE(LevenshteinDistance(a, c),
                  LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
      }
    }
  }
}

}  // namespace
}  // namespace landmark
