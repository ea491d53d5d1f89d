#include "text/token_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "text/similarity.h"
#include "text/tokenize.h"
#include "util/telemetry/metrics.h"

namespace landmark {
namespace {

/// Adversarial corpus for the bit-identity contract: empty and
/// whitespace-only strings, repeated tokens (frequency > 1 exercises the
/// cosine accumulation order), punctuation stripped to nothing, tokens that
/// sort differently than they appear, numbers, and strings shorter than a
/// trigram.
const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>* corpus = new std::vector<std::string>{
      "",
      " ",
      "   \t  ",
      "word",
      "alpha beta gamma",
      "gamma beta alpha",
      "a a a b",
      "b a a a",
      "The, quick. BROWN fox!",
      "the quick brown fox",
      "!!! ... ---",
      "849.99",
      "sony cyber-shot dsc-w350 14.1mp digital camera",
      "zz yy xx zz yy zz",
      "ab",
      "a",
      "one two three four five six seven eight nine ten one two three",
  };
  return *corpus;
}

TEST(TokenizedValueTest, ProfilesMatchTokenizer) {
  for (const std::string& text : Corpus()) {
    const TokenizedValue v = TokenizedValue::Of(text);
    EXPECT_EQ(v.tokens, NormalizedTokens(text)) << "text: \"" << text << "\"";
    // token_counts is sorted, distinct, and its frequencies sum to the
    // token count.
    double freq_sum = 0.0;
    for (size_t i = 0; i < v.token_counts.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(v.token_counts[i - 1].first, v.token_counts[i].first);
      }
      freq_sum += v.token_counts[i].second;
    }
    EXPECT_EQ(freq_sum, static_cast<double>(v.tokens.size()));
  }
}

TEST(TokenizedValueTest, SimilaritiesBitIdenticalToStringPath) {
  for (const std::string& a : Corpus()) {
    for (const std::string& b : Corpus()) {
      const TokenizedValue va = TokenizedValue::Of(a);
      const TokenizedValue vb = TokenizedValue::Of(b);
      const std::vector<std::string> ta = NormalizedTokens(a);
      const std::vector<std::string> tb = NormalizedTokens(b);
      // EXPECT_EQ on doubles is exact comparison — the contract is
      // bit-identity, not closeness.
      EXPECT_EQ(JaccardSimilarity(va, vb), JaccardSimilarity(ta, tb))
          << "jaccard(\"" << a << "\", \"" << b << "\")";
      EXPECT_EQ(OverlapCoefficient(va, vb), OverlapCoefficient(ta, tb))
          << "overlap(\"" << a << "\", \"" << b << "\")";
      EXPECT_EQ(CosineTokenSimilarity(va, vb), CosineTokenSimilarity(ta, tb))
          << "cosine(\"" << a << "\", \"" << b << "\")";
      EXPECT_EQ(MongeElkanSymmetric(va, vb), MongeElkanSymmetric(ta, tb))
          << "monge_elkan(\"" << a << "\", \"" << b << "\")";
      EXPECT_EQ(TrigramSimilarity(va, vb), TrigramSimilarity(a, b))
          << "trigram(\"" << a << "\", \"" << b << "\")";
    }
  }
}

/// A copy of `v` whose token key columns are marked unusable, which sends
/// every token merge down its string-column fallback (the path profiles
/// take when a token contains a NUL byte).
TokenizedValue WithoutKeys(TokenizedValue v) {
  v.token_keys_ordered = false;
  v.token_keys_exact = false;
  return v;
}

TEST(TokenizedValueTest, KeyedMergesMatchStringMerges) {
  std::vector<std::string> corpus = Corpus();
  // Tokens longer than 8 bytes that share their 8-byte key: equal keys the
  // keyed merge must resolve by full compare.
  corpus.insert(corpus.end(), {"internationalization internationalisation",
                               "internationalisation standardization",
                               "abcdefghij abcdefghik abcdefgh",
                               "abcdefghik abcdefghij abcdefghij"});
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      const TokenizedValue ka = TokenizedValue::Of(a);
      const TokenizedValue kb = TokenizedValue::Of(b);
      ASSERT_TRUE(ka.token_keys_ordered) << a;
      const TokenizedValue sa = WithoutKeys(ka);
      const TokenizedValue sb = WithoutKeys(kb);
      EXPECT_EQ(JaccardSimilarity(ka, kb), JaccardSimilarity(sa, sb))
          << "jaccard(\"" << a << "\", \"" << b << "\")";
      EXPECT_EQ(OverlapCoefficient(ka, kb), OverlapCoefficient(sa, sb))
          << "overlap(\"" << a << "\", \"" << b << "\")";
      EXPECT_EQ(CosineTokenSimilarity(ka, kb), CosineTokenSimilarity(sa, sb))
          << "cosine(\"" << a << "\", \"" << b << "\")";
    }
  }

  // Trigram keys are injective on every byte string, so there is no string
  // fallback left to compare against: pin the keyed Jaccard to the string
  // kernel directly, on grams with NUL and high bytes, on strings of 0-4
  // bytes (where the whole string is one 1-3 byte gram, or two 3-grams),
  // and on grams that differ only in a trailing NUL ("a" vs "a\0").
  const std::vector<std::string> grams = {
      "",
      std::string("\0", 1),
      std::string("\0\0", 2),
      std::string("\0\0\0", 3),
      std::string("\0\0\0\0", 4),
      "a",
      std::string("a\0", 2),
      std::string("a\0\0", 3),
      std::string("\0a", 2),
      "ab",
      "abc",
      "abcd",
      "\x80",
      "\xff\xfe",
      "\x80\xff\x80",
      "\xff\xff\xff\xff",
      std::string("\xff\0\x80" "a", 4),
      std::string("ab\0cd\0ab\0", 8),
      "abcabcabc",
      "\xc3\xa9t\xc3\xa9 \xc3\xa9t\xc3\xa9",
  };
  for (const std::string& a : grams) {
    for (const std::string& b : grams) {
      EXPECT_EQ(TrigramSimilarity(TokenizedValue::Of(a), TokenizedValue::Of(b)),
                TrigramSimilarity(a, b))
          << "trigram(" << ::testing::PrintToString(a) << ", "
          << ::testing::PrintToString(b) << ")";
    }
  }
}

TEST(TokenCacheTest, CountsHitsAndMisses) {
  TokenCache cache;
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  const TokenizedValue& first = cache.Get("alpha beta");
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  const TokenizedValue& second = cache.Get("alpha beta");
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // Stable reference: the hit returns the same entry.
  EXPECT_EQ(&first, &second);

  cache.Get("gamma");
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.size(), cache.misses());
}

TEST(TokenCacheTest, KeysByExactString) {
  TokenCache cache;
  // Same token profile, different raw strings: distinct entries (the key is
  // the string, not its normalization).
  cache.Get("a b");
  cache.Get("a  b");
  cache.Get("A B");
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
  // The empty string is a valid key.
  const TokenizedValue& empty = cache.Get("");
  EXPECT_TRUE(empty.tokens.empty());
  EXPECT_EQ(cache.size(), 4u);
}

TEST(TokenCacheTest, ReferencesSurviveRehash) {
  TokenCache cache;
  const TokenizedValue& pinned = cache.Get("pinned value");
  const std::vector<std::string> before = pinned.tokens;
  // Force many inserts so the unordered_map rehashes several times.
  for (int i = 0; i < 5000; ++i) {
    cache.Get("filler " + std::to_string(i));
  }
  EXPECT_EQ(pinned.tokens, before);
  EXPECT_EQ(&cache.Get("pinned value"), &pinned);
}

TEST(TokenCacheTest, PublishTelemetryAddsExactDeltasOnce) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& hits = registry.GetCounter("text/token_cache_hits");
  Counter& misses = registry.GetCounter("text/token_cache_misses");

  TokenCache cache;
  cache.Get("x");
  cache.Get("x");
  cache.Get("x");
  cache.Get("y");

  const uint64_t hits_before = hits.Value();
  const uint64_t misses_before = misses.Value();
  cache.PublishTelemetry();
  EXPECT_EQ(hits.Value(), hits_before + 2);
  EXPECT_EQ(misses.Value(), misses_before + 2);

  // Re-publishing without new lookups adds nothing.
  cache.PublishTelemetry();
  EXPECT_EQ(hits.Value(), hits_before + 2);
  EXPECT_EQ(misses.Value(), misses_before + 2);

  // Only the post-publish delta lands on the next call.
  cache.Get("y");
  cache.PublishTelemetry();
  EXPECT_EQ(hits.Value(), hits_before + 3);
  EXPECT_EQ(misses.Value(), misses_before + 2);
}

}  // namespace
}  // namespace landmark
