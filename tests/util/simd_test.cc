// The SIMD shim's exactness contract (util/simd.h): every kernel must
// produce bit-identical results to a reference scalar implementation. The
// references here are written out independently (classic DP / nested
// loops), so the tests hold on any ISA the dispatcher picks — scalar, SSE2,
// AVX2, or NEON.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace landmark {
namespace {

std::string RandomString(Rng& rng, size_t max_len, int alphabet) {
  const size_t len =
      static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(max_len)));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + rng.NextInt(0, static_cast<int64_t>(alphabet) - 1)));
  }
  return out;
}

/// Classic O(m*n) Levenshtein, the oracle for Myers.
size_t ReferenceLevenshtein(const std::string& a, const std::string& b) {
  const size_t m = a.size();
  const size_t n = b.size();
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> curr(m + 1);
  for (size_t i = 0; i <= m; ++i) prev[i] = i;
  for (size_t j = 1; j <= n; ++j) {
    curr[0] = j;
    for (size_t i = 1; i <= m; ++i) {
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      curr[i] = std::min({prev[i] + 1, curr[i - 1] + 1, prev[i - 1] + cost});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

/// Classic nested-loop Jaro match/transposition counting, the oracle for
/// JaroCounts.
void ReferenceJaroCounts(const std::string& a, const std::string& b,
                         size_t* matches, size_t* transpositions) {
  const size_t la = a.size();
  const size_t lb = b.size();
  const size_t window = std::max<size_t>(1, std::max(la, lb) / 2) - 1;
  std::vector<bool> a_matched(la, false);
  std::vector<bool> b_matched(lb, false);
  size_t m = 0;
  for (size_t i = 0; i < la; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(lb, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_matched[j] || a[i] != b[j]) continue;
      a_matched[i] = true;
      b_matched[j] = true;
      ++m;
      break;
    }
  }
  size_t t = 0;
  size_t j = 0;
  for (size_t i = 0; i < la; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++t;
    ++j;
  }
  *matches = m;
  *transpositions = t;
}

TEST(SimdTest, MyersLevenshteinMatchesClassicDp) {
  Rng rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    // Small alphabets force repeats, the hard case for the bit deltas.
    const int alphabet = trial % 2 == 0 ? 3 : 26;
    const std::string a = RandomString(rng, 64, alphabet);
    const std::string b = RandomString(rng, 80, alphabet);
    if (a.empty() || b.empty()) continue;
    EXPECT_EQ(simd::MyersLevenshtein(a, b), ReferenceLevenshtein(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(SimdTest, JaroCountsMatchClassicScan) {
  Rng rng(43);
  for (int trial = 0; trial < 500; ++trial) {
    const int alphabet = trial % 2 == 0 ? 3 : 26;
    const std::string a = RandomString(rng, 64, alphabet);
    const std::string b = RandomString(rng, 64, alphabet);
    size_t fast_m = 0, fast_t = 0, ref_m = 0, ref_t = 0;
    simd::JaroCounts(a, b, &fast_m, &fast_t);
    ReferenceJaroCounts(a, b, &ref_m, &ref_t);
    EXPECT_EQ(fast_m, ref_m) << "a=" << a << " b=" << b;
    EXPECT_EQ(fast_t, ref_t) << "a=" << a << " b=" << b;
  }
}

TEST(SimdTest, PopcountWords) {
  std::vector<uint64_t> words = {0, ~0ULL, 0x5555555555555555ULL, 1, 1ULL << 63};
  EXPECT_EQ(simd::PopcountWords(words.data(), words.size()), 0u + 64 + 32 + 1 + 1);
  EXPECT_EQ(simd::PopcountWords(words.data(), 0), 0u);
}

TEST(SimdTest, AdvanceWhileLessAgreesWithScalarScan) {
  Rng rng(44);
  std::vector<uint64_t> keys64;
  std::vector<uint32_t> keys32;
  for (int i = 0; i < 200; ++i) {
    keys64.push_back(static_cast<uint64_t>(rng.NextInt(0, 1000)));
    keys32.push_back(static_cast<uint32_t>(rng.NextInt(0, 1000)));
  }
  std::sort(keys64.begin(), keys64.end());
  std::sort(keys32.begin(), keys32.end());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t start = static_cast<size_t>(
        rng.NextInt(0, static_cast<int64_t>(keys64.size())));
    const uint64_t limit64 = static_cast<uint64_t>(rng.NextInt(0, 1100));
    size_t expected = start;
    while (expected < keys64.size() && keys64[expected] < limit64) ++expected;
    EXPECT_EQ(
        simd::AdvanceWhileLess64(keys64.data(), start, keys64.size(), limit64),
        expected);
    const uint32_t limit32 = static_cast<uint32_t>(rng.NextInt(0, 1100));
    expected = start;
    while (expected < keys32.size() && keys32[expected] < limit32) ++expected;
    EXPECT_EQ(
        simd::AdvanceWhileLess32(keys32.data(), start, keys32.size(), limit32),
        expected);
  }
}

TEST(SimdTest, FloatKernelsAreBitIdenticalToScalarLoops) {
  Rng rng(45);
  // Every length up to 33 covers each vector body / scalar tail split of
  // the two- and four-lane variants; 256 is a long steady-state run.
  std::vector<size_t> lengths(34);
  for (size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  lengths.push_back(256);
  for (size_t n : lengths) {
    std::vector<double> x(n), y(n), a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.NextDouble(-10, 10);
      y[i] = rng.NextDouble(-10, 10);
      a[i] = rng.NextDouble(-10, 10);
      b[i] = rng.NextDouble(-10, 10);
    }
    const double alpha = rng.NextDouble(-2, 2);

    // Reference: the exact scalar sequence (one mul, one add per element).
    std::vector<double> y_ref = y;
    for (size_t i = 0; i < n; ++i) y_ref[i] += alpha * x[i];
    std::vector<double> prod_ref(n);
    for (size_t i = 0; i < n; ++i) prod_ref[i] = a[i] * b[i];

    std::vector<double> y_out = y;
    simd::AddScaled(y_out.data(), x.data(), alpha, n);
    std::vector<double> prod_out(n);
    simd::Multiply(prod_out.data(), a.data(), b.data(), n);
    for (size_t i = 0; i < n; ++i) {
      // EXPECT_EQ on doubles: the contract is bit-equality, not epsilon.
      EXPECT_EQ(y_out[i], y_ref[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(prod_out[i], prod_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SimdTest, ExpandBitsToDoubles) {
  for (size_t dim : {size_t{1}, size_t{5}, size_t{64}, size_t{65}, size_t{130}}) {
    const size_t words = (dim + 63) / 64;
    std::vector<uint64_t> mask(words, 0);
    Rng rng(46 + static_cast<uint64_t>(dim));
    for (size_t i = 0; i < dim; ++i) {
      if (rng.NextDouble() < 0.5) mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
    std::vector<double> out(dim, -1.0);
    simd::ExpandBitsToDoubles(mask.data(), dim, out.data());
    for (size_t i = 0; i < dim; ++i) {
      const bool bit = ((mask[i >> 6] >> (i & 63)) & 1u) != 0;
      EXPECT_EQ(out[i], bit ? 1.0 : 0.0) << "dim=" << dim << " i=" << i;
    }
  }
}

TEST(SimdTest, ActiveIsaNameIsDetectedLevel) {
  EXPECT_STREQ(simd::ActiveIsaName(),
               simd::SimdLevelName(simd::DetectedLevel()));
}

}  // namespace
}  // namespace landmark
