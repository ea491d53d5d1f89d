#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/em_dataset.h"
#include "em/feature_extractor.h"
#include "em/features.h"
#include "em/prepared_batch.h"
#include "text/token_cache.h"
#include "util/thread_pool.h"

namespace landmark {
namespace {

/// Value corpus covering the kinds' edge cases: nulls, empties, numbers
/// (kNumericCloseness), repeated tokens (cosine frequencies), and plain
/// text.
std::vector<Value> ValueCorpus() {
  return {
      Value::Null(),
      Value::Of(""),
      Value::Of("   "),
      Value::Of("sony cyber-shot camera"),
      Value::Of("sony camera"),
      Value::Of("a a a b"),
      Value::Of("849.99"),
      Value::Of("850"),
      Value::Of("The, quick. BROWN fox!"),
  };
}

TEST(PreparedFeaturesTest, PreparedKernelMatchesLegacyPerKindPath) {
  const std::vector<Value> corpus = ValueCorpus();
  TokenCache cache;
  for (const Value& left : corpus) {
    for (const Value& right : corpus) {
      const PreparedValue pl = PrepareValue(left, cache);
      const PreparedValue pr = PrepareValue(right, cache);
      for (size_t k = 0; k < kNumAttributeFeatures; ++k) {
        const auto kind = static_cast<AttributeFeatureKind>(k);
        // Exact comparison: the fast path promises bit-identity with the
        // legacy per-kind path, which tokenizes from scratch every call.
        EXPECT_EQ(ComputeAttributeFeature(kind, pl, pr),
                  ComputeAttributeFeature(kind, left, right))
            << AttributeFeatureKindName(kind) << "(\"" << left.text()
            << "\", \"" << right.text() << "\")";
      }
    }
  }
}

TEST(PreparedFeaturesTest, TokenizeOnceAllFeaturesMatchesPerKindPath) {
  const std::vector<Value> corpus = ValueCorpus();
  for (const Value& left : corpus) {
    for (const Value& right : corpus) {
      double out[kNumAttributeFeatures];
      ComputeAllAttributeFeatures(left, right, out);
      const std::vector<double> vec = ComputeAllAttributeFeatures(left, right);
      ASSERT_EQ(vec.size(), kNumAttributeFeatures);
      for (size_t k = 0; k < kNumAttributeFeatures; ++k) {
        const auto kind = static_cast<AttributeFeatureKind>(k);
        EXPECT_EQ(out[k], ComputeAttributeFeature(kind, left, right))
            << AttributeFeatureKindName(kind);
        EXPECT_EQ(vec[k], out[k]) << AttributeFeatureKindName(kind);
      }
    }
  }
}

TEST(PreparedFeaturesTest, PrepareValueNullCarriesNoProfile) {
  TokenCache cache;
  const Value null = Value::Null();
  const PreparedValue prepared = PrepareValue(null, cache);
  EXPECT_TRUE(prepared.is_null());
  EXPECT_EQ(prepared.tokens, nullptr);
  // Null never touches the cache: "" and null must stay distinct.
  EXPECT_EQ(cache.size(), 0u);

  const Value empty = Value::Of("");
  const PreparedValue prepared_empty = PrepareValue(empty, cache);
  EXPECT_FALSE(prepared_empty.is_null());
  ASSERT_NE(prepared_empty.tokens, nullptr);
  EXPECT_TRUE(prepared_empty.tokens->tokens.empty());
  EXPECT_EQ(cache.size(), 1u);
}

std::vector<PairRecord> TestPairs() {
  auto schema = *Schema::Make({"name", "brand", "price"});
  std::vector<PairRecord> pairs;
  auto add = [&](std::vector<Value> l, std::vector<Value> r) {
    PairRecord p;
    p.id = static_cast<int64_t>(pairs.size());
    p.left = *Record::Make(schema, std::move(l));
    p.right = *Record::Make(schema, std::move(r));
    pairs.push_back(std::move(p));
  };
  add({Value::Of("sony cyber-shot camera"), Value::Of("sony"),
       Value::Of("849.99")},
      {Value::Of("sony camera"), Value::Of("sony corp"), Value::Of("850")});
  add({Value::Of("canon eos rebel"), Value::Null(), Value::Of("1200")},
      {Value::Of("canon eos"), Value::Of("canon"), Value::Null()});
  add({Value::Of(""), Value::Of("a a b"), Value::Of("10")},
      {Value::Null(), Value::Of("b a a"), Value::Of("10.0")});
  return pairs;
}

TEST(PreparedFeaturesTest, ExtractPreparedMatchesExtract) {
  const std::vector<PairRecord> pairs = TestPairs();
  FeatureExtractor extractor(pairs.front().left.schema());

  TokenCache cache;
  const PreparedPairBatch prepared(pairs, &cache);

  std::vector<double> row(extractor.num_features());
  for (size_t p = 0; p < pairs.size(); ++p) {
    const Vector expected = extractor.Extract(pairs[p]);
    extractor.ExtractPrepared(prepared, p, row.data());
    ASSERT_EQ(expected.size(), row.size());
    for (size_t f = 0; f < row.size(); ++f) {
      EXPECT_EQ(row[f], expected[f])
          << "pair " << p << " feature " << extractor.feature_name(f);
    }
  }
}

TEST(PreparedFeaturesTest, FrozenSideSharingMatchesUnsharedPreparation) {
  // All pairs of a "unit" share the right entity (the frozen landmark);
  // sharing its PreparedValues through the context must not change any
  // feature.
  auto schema = *Schema::Make({"name", "price"});
  const Record landmark = *Record::Make(
      schema, {Value::Of("sony cyber-shot camera"), Value::Of("849.99")});
  std::vector<PairRecord> pairs;
  for (const char* varying :
       {"sony camera", "camera", "", "sony sony cyber-shot"}) {
    PairRecord p;
    p.id = static_cast<int64_t>(pairs.size());
    p.left = *Record::Make(schema, {Value::Of(varying), Value::Of("850")});
    p.right = landmark;
    pairs.push_back(std::move(p));
  }

  FeatureExtractor extractor(schema);
  TokenCache shared_cache;
  const LandmarkFeatureContext context = MakeLandmarkFeatureContext(
      pairs.front(), EntitySide::kRight, shared_cache);
  const PreparedPairBatch shared(pairs, &shared_cache, context);

  TokenCache plain_cache;
  const PreparedPairBatch plain(pairs, &plain_cache);

  std::vector<double> a(extractor.num_features());
  std::vector<double> b(extractor.num_features());
  for (size_t p = 0; p < pairs.size(); ++p) {
    extractor.ExtractPrepared(shared, p, a.data());
    extractor.ExtractPrepared(plain, p, b.data());
    for (size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f], b[f])
          << "pair " << p << " feature " << extractor.feature_name(f);
    }
  }
  // The frozen side resolved once: one cache miss per landmark attribute,
  // and the shared run never re-looked them up per pair.
  EXPECT_LT(shared_cache.misses() + shared_cache.hits(),
            plain_cache.misses() + plain_cache.hits());
}

TEST(PreparedFeaturesTest, ExtractBatchMatchesRowWiseExtract) {
  const std::vector<PairRecord> pairs = TestPairs();
  auto schema = pairs.front().left.schema();
  EmDataset dataset("prepared-features-test", schema);
  for (const PairRecord& p : pairs) {
    PairRecord copy = p;
    ASSERT_TRUE(dataset.Append(std::move(copy)).ok());
  }
  FeatureExtractor extractor(schema);

  std::vector<size_t> indices;
  for (size_t i = 0; i < dataset.size(); ++i) indices.push_back(i);
  // One pool without workers, one with fewer chunks than rows and one with
  // more workers than rows (one row per chunk).
  for (size_t threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    const Matrix x = extractor.ExtractBatch(dataset, indices, pool);
    ASSERT_EQ(x.rows(), dataset.size());
    ASSERT_EQ(x.cols(), extractor.num_features());
    for (size_t r = 0; r < dataset.size(); ++r) {
      const Vector expected = extractor.Extract(dataset.pair(r));
      for (size_t f = 0; f < expected.size(); ++f) {
        EXPECT_EQ(x.row(r)[f], expected[f])
            << threads << " threads, row " << r << " feature " << f;
      }
    }
  }
}

}  // namespace
}  // namespace landmark
