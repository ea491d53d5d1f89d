#include "text/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace landmark {
namespace {

using Tokens = std::vector<std::string>;

/// A random string whose length is drawn from [min_len, max_len] and whose
/// bytes come from `alphabet` (which may hold NUL and bytes >= 0x80).
std::string RandomBytes(Rng& rng, size_t min_len, size_t max_len,
                        const std::string& alphabet) {
  std::string out(static_cast<size_t>(rng.NextInt(
                      static_cast<int64_t>(min_len),
                      static_cast<int64_t>(max_len))),
                  '\0');
  for (char& c : out) {
    c = alphabet[static_cast<size_t>(
        rng.NextInt(0, static_cast<int64_t>(alphabet.size()) - 1))];
  }
  return out;
}

/// Repeat-heavy letters, the full lowercase range, and raw bytes with NUL
/// and the top half of the byte range.
const std::vector<std::string>& Alphabets() {
  static const std::vector<std::string>* alphabets =
      new std::vector<std::string>{"abc", "abcdefghijklmnopqrstuvwxyz",
                                   std::string("\0a\x80\xff\x7f", 5)};
  return *alphabets;
}

/// Lengths straddling each 64-bit word boundary up to four words.
struct LengthBand {
  size_t lo;
  size_t hi;
};
constexpr LengthBand kWordBoundaryBands[] = {
    {56, 72}, {120, 136}, {184, 200}, {248, 264}};

/// Classic O(m*n) edit-distance DP, written out independently of
/// similarity.cc: the reference for the blocked Myers kernel at every
/// length.
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

// The bit-parallel kernels split strings into 64-bit words. Lengths here
// straddle each word boundary up to four words, on both sides of the call,
// so each comparison crosses the carry from one word to the next.
TEST(LevenshteinTest, MatchesScalarDpAcrossWordLimit) {
  Rng rng(61);
  for (const LengthBand band : kWordBoundaryBands) {
    for (int trial = 0; trial < 300; ++trial) {
      const std::string& alphabet = Alphabets()[trial % 3];
      const std::string a = RandomBytes(rng, band.lo, band.hi, alphabet);
      const std::string b = RandomBytes(rng, 0, band.hi + 40, alphabet);
      EXPECT_EQ(LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
          << "|a|=" << a.size() << " |b|=" << b.size();
      EXPECT_EQ(LevenshteinDistance(b, a), ReferenceLevenshtein(a, b))
          << "|a|=" << b.size() << " |b|=" << a.size();
    }
  }
  // One long pair: the second is the first with 50 substitutions and a
  // 100-byte deletion.
  const std::string a = RandomBytes(rng, 20000, 20000, Alphabets()[2]);
  std::string b = a;
  for (int edit = 0; edit < 50; ++edit) {
    b[static_cast<size_t>(rng.NextInt(0, 19999))] = 'z';
  }
  b.erase(b.begin() + 7000, b.begin() + 7100);
  EXPECT_EQ(LevenshteinDistance(a, b), ReferenceLevenshtein(a, b));
}

TEST(JaroTest, MatchesScalarScanAcrossWordLimit) {
  Rng rng(62);
  for (const LengthBand band : kWordBoundaryBands) {
    for (int trial = 0; trial < 300; ++trial) {
      const std::string& alphabet = Alphabets()[trial % 3];
      const std::string a = RandomBytes(rng, band.lo, band.hi, alphabet);
      const std::string b = RandomBytes(rng, 0, band.hi + 40, alphabet);
      // EXPECT_EQ on doubles: the contract is bit-equality, not epsilon.
      EXPECT_EQ(JaroSimilarity(a, b), ReferenceJaro(a, b))
          << "|a|=" << a.size() << " |b|=" << b.size();
      EXPECT_EQ(JaroSimilarity(b, a), ReferenceJaro(b, a))
          << "|a|=" << b.size() << " |b|=" << a.size();
    }
  }
  const std::string a = RandomBytes(rng, 20000, 20000, Alphabets()[2]);
  std::string b = a;
  std::reverse(b.begin() + 5000, b.begin() + 6000);
  b.erase(b.begin() + 12000, b.begin() + 12100);
  EXPECT_EQ(JaroSimilarity(a, b), ReferenceJaro(a, b));
  EXPECT_EQ(JaroSimilarity(b, a), ReferenceJaro(b, a));
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

/// Monge-Elkan without the early exit at best == 1.0: the loop the exit
/// must reproduce bit for bit.
double MongeElkanFullScan(const Tokens& a, const Tokens& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& ta : a) {
    double best = 0.0;
    for (const auto& tb : b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

TEST(MongeElkanTest, EarlyExitMatchesFullScan) {
  Rng rng(63);
  // A small vocabulary makes exact matches (and repeats of them, before
  // and after near-misses) common, so the exit fires at every position.
  const Tokens vocabulary = {"sony", "snoy", "sonny", "cam", "camera",
                             "a", "ab", std::string("\0\x80", 2), "\xff"};
  for (int trial = 0; trial < 400; ++trial) {
    Tokens a, b;
    const int na = static_cast<int>(rng.NextInt(0, 6));
    const int nb = static_cast<int>(rng.NextInt(0, 8));
    for (int i = 0; i < na; ++i) {
      a.push_back(vocabulary[static_cast<size_t>(rng.NextInt(0, 8))]);
    }
    for (int i = 0; i < nb; ++i) {
      // One token in four is random, so some rows never reach 1.0.
      b.push_back(rng.NextInt(0, 3) == 0
                      ? RandomBytes(rng, 1, 6, Alphabets()[trial % 3])
                      : vocabulary[static_cast<size_t>(rng.NextInt(0, 8))]);
    }
    // EXPECT_EQ on doubles: the contract is bit-equality, not epsilon.
    EXPECT_EQ(MongeElkanSimilarity(a, b), MongeElkanFullScan(a, b));
    EXPECT_EQ(MongeElkanSimilarity(b, a), MongeElkanFullScan(b, a));
    EXPECT_EQ(MongeElkanSymmetric(a, b),
              0.5 * (MongeElkanFullScan(a, b) + MongeElkanFullScan(b, a)));
  }
}

TEST(JaroWinklerTest, NeverExceedsOne) {
  // The bound the Monge-Elkan early exit rests on, over lengths that cross
  // word boundaries and prefixes that share up to the full four bytes.
  Rng rng(64);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string& alphabet = Alphabets()[trial % 3];
    const std::string a = RandomBytes(rng, 0, 140, alphabet);
    const std::string b = a.substr(0, std::min<size_t>(a.size(), 4)) +
                    RandomBytes(rng, 0, 140, alphabet);
    EXPECT_LE(JaroWinklerSimilarity(a, b), 1.0);
    EXPECT_LE(JaroWinklerSimilarity(b, a), 1.0);
  }
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
