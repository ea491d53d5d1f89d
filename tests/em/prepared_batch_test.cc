#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "em/feature_extractor.h"
#include "em/prepared_batch.h"
#include "text/token_cache.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace landmark {
namespace {

/// Raw tokens that stress the Monge-Elkan tables: case and punctuation
/// variants that normalize to one token (so both sides share it), tokens
/// that normalize to nothing, NUL and high bytes, and tokens longer than
/// the 64-byte one-word Jaro kernel.
std::vector<std::string> TokenPool() {
  std::vector<std::string> pool = {
      "sony",    "Sony",      "SONY,",       "cyber-shot", "camera",
      "Camera!", "--",        "...",         "a",          "ab",
      "abc",     "b",         "849.99",      "850",        "x.y",
      "caf\xc3\xa9", "CAF\xc3\x89", std::string("nu\0l", 4),
      std::string("\0", 1),    "\xff\xfe",   "eos",        "rebel",
      "dslr",    "lens",      "kit",         "black",      "blk",
  };
  Rng rng(99);
  for (int i = 0; i < 6; ++i) {
    std::string long_token;
    const size_t length = 60 + rng.NextUint64(80);  // both sides of 64
    for (size_t c = 0; c < length; ++c) {
      long_token.push_back(static_cast<char>('a' + rng.NextUint64(4)));
    }
    pool.push_back(long_token);
  }
  return pool;
}

/// A value of `count` tokens drawn from `base` in random order, with
/// repeats; sometimes null, empty or punctuation only.
Value RandomValue(const std::vector<std::string>& base, size_t count,
                  Rng& rng) {
  const uint64_t shape = rng.NextUint64(20);
  if (shape == 0) return Value::Null();
  if (shape == 1) return Value::Of("");
  if (shape == 2) return Value::Of("-- ...");
  std::string text;
  for (size_t t = 0; t < count; ++t) {
    if (!text.empty()) text += rng.NextBernoulli(0.2) ? "  " : " ";
    text += base[rng.NextUint64(base.size())];
  }
  return Value::Of(text);
}

/// `base_size` tokens of the pool: the vocabulary one record side draws
/// its perturbations from.
std::vector<std::string> Subset(const std::vector<std::string>& pool,
                                size_t base_size, Rng& rng) {
  std::vector<std::string> base;
  for (size_t i = 0; i < base_size; ++i) {
    base.push_back(pool[rng.NextUint64(pool.size())]);
  }
  return base;
}

void ExpectPreparedMatchesExtract(const FeatureExtractor& extractor,
                                  const std::vector<PairRecord>& pairs,
                                  const PreparedPairBatch& prepared) {
  std::vector<double> row(extractor.num_features());
  for (size_t p = 0; p < pairs.size(); ++p) {
    const Vector expected = extractor.Extract(pairs[p]);
    extractor.ExtractPrepared(prepared, p, row.data());
    for (size_t f = 0; f < row.size(); ++f) {
      EXPECT_EQ(row[f], expected[f])
          << "pair " << p << " feature " << extractor.feature_name(f);
    }
  }
}

/// One unit-shaped batch: every row draws each attribute from the same
/// per-side base tokens; with `frozen`, the right entity is one record
/// shared by every row, as in a Landmark unit.
std::vector<PairRecord> RandomUnit(const std::shared_ptr<const Schema>& schema,
                                   bool frozen, Rng& rng) {
  const std::vector<std::string> pool = TokenPool();
  const size_t num_attributes = schema->num_attributes();
  std::vector<std::vector<std::string>> left_base, right_base;
  for (size_t a = 0; a < num_attributes; ++a) {
    left_base.push_back(Subset(pool, 1 + rng.NextUint64(10), rng));
    right_base.push_back(Subset(pool, 1 + rng.NextUint64(10), rng));
  }
  auto random_record = [&](const std::vector<std::vector<std::string>>& base) {
    std::vector<Value> values;
    for (size_t a = 0; a < num_attributes; ++a) {
      values.push_back(RandomValue(base[a], 1 + rng.NextUint64(8), rng));
    }
    return *Record::Make(schema, std::move(values));
  };
  const Record landmark = random_record(right_base);
  std::vector<PairRecord> pairs;
  const size_t rows = 1 + rng.NextUint64(40);
  for (size_t p = 0; p < rows; ++p) {
    PairRecord pair;
    pair.id = static_cast<int64_t>(p);
    pair.left = random_record(left_base);
    pair.right = frozen ? landmark : random_record(right_base);
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

TEST(PreparedBatchEquivalenceTest, RandomUnitsMatchExtractBitForBit) {
  auto schema = *Schema::Make({"name", "brand", "description"});
  FeatureExtractor extractor(schema);
  Rng rng(20);
  for (int trial = 0; trial < 60; ++trial) {
    for (bool frozen : {false, true}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " frozen "
                                      << frozen);
      const std::vector<PairRecord> pairs = RandomUnit(schema, frozen, rng);
      TokenCache cache;
      const LandmarkFeatureContext context =
          frozen ? MakeLandmarkFeatureContext(pairs.front(),
                                              EntitySide::kRight, cache)
                 : LandmarkFeatureContext{};
      const PreparedPairBatch prepared(pairs, &cache, context);
      for (size_t a = 0; a < schema->num_attributes(); ++a) {
        EXPECT_TRUE(prepared.has_jw_table(a));
      }
      ExpectPreparedMatchesExtract(extractor, pairs, prepared);
    }
  }
}

/// `count` distinct tokens "t0 t1 t2 ...".
std::string DistinctTokens(size_t count) {
  std::string text;
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) text += ' ';
    text += "t" + std::to_string(i);
  }
  return text;
}

TEST(PreparedBatchCapTest, AttributesAroundTheCapMatchExtract) {
  constexpr size_t kCap = PreparedPairBatch::kMaxJwTableEntries;
  constexpr size_t kRightTokens = 7;
  const size_t under = kCap / kRightTokens;  // under * 7 <= cap
  const size_t over = under + 1;             // over * 7 > cap
  const size_t degenerate = 10000;           // a 10k-token value
  ASSERT_LE(under * kRightTokens, kCap);
  ASSERT_GT(over * kRightTokens, kCap);
  ASSERT_GT(degenerate * kRightTokens, kCap);

  auto schema = *Schema::Make({"under", "over", "degenerate"});
  FeatureExtractor extractor(schema);
  // Seven distinct right tokens, one repeated, two shared with the left.
  const Value right = Value::Of("t3 t17 right camera t3 lens kit black");
  const Record landmark = *Record::Make(schema, {right, right, right});
  std::vector<PairRecord> pairs;
  // The full values, a perturbation keeping half the tokens, and a null.
  for (size_t divisor : {1, 2, 0}) {
    auto value = [&](size_t count) {
      return divisor == 0 ? Value::Null()
                          : Value::Of(DistinctTokens(count / divisor));
    };
    PairRecord pair;
    pair.id = static_cast<int64_t>(pairs.size());
    pair.left = *Record::Make(schema, {value(under), value(over),
                                       value(degenerate)});
    pair.right = landmark;
    pairs.push_back(std::move(pair));
  }

  for (bool frozen : {false, true}) {
    SCOPED_TRACE(frozen ? "frozen right side" : "no context");
    TokenCache cache;
    const LandmarkFeatureContext context =
        frozen ? MakeLandmarkFeatureContext(pairs.front(), EntitySide::kRight,
                                            cache)
               : LandmarkFeatureContext{};
    const PreparedPairBatch prepared(pairs, &cache, context);
    EXPECT_TRUE(prepared.has_jw_table(0));
    EXPECT_FALSE(prepared.has_jw_table(1));
    EXPECT_FALSE(prepared.has_jw_table(2));
    ExpectPreparedMatchesExtract(extractor, pairs, prepared);
  }
}

TEST(PreparedBatchConcurrencyTest, BatchesBuiltAndReadConcurrently) {
  // The engine's query nodes build one batch per unit against a shared
  // cache; a built batch (tables included) is then read from any thread.
  auto schema = *Schema::Make({"name", "brand"});
  FeatureExtractor extractor(schema);
  Rng rng(7);
  std::vector<std::vector<PairRecord>> units;
  for (int u = 0; u < 8; ++u) units.push_back(RandomUnit(schema, u % 2, rng));

  TokenCache cache;
  std::vector<std::unique_ptr<PreparedPairBatch>> batches(units.size());
  ThreadPool pool(4);
  pool.ParallelFor(units.size(), [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const LandmarkFeatureContext context =
          u % 2 ? MakeLandmarkFeatureContext(units[u].front(),
                                             EntitySide::kRight, cache)
                : LandmarkFeatureContext{};
      batches[u] =
          std::make_unique<PreparedPairBatch>(units[u], &cache, context);
    }
  });
  const size_t width = extractor.num_features();
  for (size_t u = 0; u < units.size(); ++u) {
    std::vector<double> features(units[u].size() * width);
    pool.ParallelFor(units[u].size(), [&](size_t begin, size_t end) {
      for (size_t p = begin; p < end; ++p) {
        extractor.ExtractPrepared(*batches[u], p, features.data() + p * width);
      }
    });
    for (size_t p = 0; p < units[u].size(); ++p) {
      const Vector expected = extractor.Extract(units[u][p]);
      for (size_t f = 0; f < width; ++f) {
        EXPECT_EQ(features[p * width + f], expected[f])
            << "unit " << u << " pair " << p << " feature " << f;
      }
    }
  }
}

}  // namespace
}  // namespace landmark
