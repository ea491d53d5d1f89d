#include <gtest/gtest.h>

#include "datagen/magellan.h"
#include "em/feature_extractor.h"
#include "em/heuristic_model.h"
#include "em/logreg_em_model.h"
#include "util/thread_pool.h"

namespace landmark {
namespace {

std::shared_ptr<const Schema> TwoAttrSchema() {
  return *Schema::Make({"name", "price"});
}

PairRecord MakePair(const std::shared_ptr<const Schema>& schema,
                    const std::string& l0, const std::string& l1,
                    const std::string& r0, const std::string& r1) {
  PairRecord pair;
  pair.left = *Record::Make(schema, {Value::Of(l0), Value::Of(l1)});
  pair.right = *Record::Make(schema, {Value::Of(r0), Value::Of(r1)});
  return pair;
}

TEST(FeatureExtractorTest, NamesAndLayout) {
  FeatureExtractor fx(TwoAttrSchema());
  EXPECT_EQ(fx.num_features(), 2 * kNumAttributeFeatures);
  EXPECT_EQ(fx.feature_name(0), "name_jaccard");
  EXPECT_EQ(fx.feature_name(kNumAttributeFeatures), "price_jaccard");
  EXPECT_EQ(fx.attribute_of_feature(0), 0u);
  EXPECT_EQ(fx.attribute_of_feature(kNumAttributeFeatures + 1), 1u);
}

TEST(FeatureExtractorTest, IdenticalPairMaximizesTextFeatures) {
  FeatureExtractor fx(TwoAttrSchema());
  PairRecord pair = MakePair(TwoAttrSchema(), "sony camera", "99", "sony camera", "99");
  Vector f = fx.Extract(pair);
  // Jaccard of the name attribute is feature 0.
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  ASSERT_EQ(f.size(), fx.num_features());
  for (double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(FeatureExtractorTest, BatchMatchesSingle) {
  auto schema = TwoAttrSchema();
  EmDataset dataset("t", schema);
  ASSERT_TRUE(dataset.Append(MakePair(schema, "a b", "1", "a", "1")).ok());
  ASSERT_TRUE(dataset.Append(MakePair(schema, "x", "2", "y", "3")).ok());
  FeatureExtractor fx(schema);
  ThreadPool pool(2);
  Matrix batch = fx.ExtractBatch(dataset, {0, 1}, pool);
  for (size_t r = 0; r < 2; ++r) {
    Vector single = fx.Extract(dataset.pair(r));
    for (size_t c = 0; c < fx.num_features(); ++c) {
      EXPECT_DOUBLE_EQ(batch.at(r, c), single[c]);
    }
  }
}

TEST(LogRegEmModelTest, LearnsSyntheticBenchmark) {
  MagellanDatasetSpec spec = *FindMagellanSpec("S-FZ");
  EmDataset dataset = *GenerateMagellanDataset(spec);
  auto model = LogRegEmModel::Train(dataset);
  ASSERT_TRUE(model.ok());
  // The benchmark is learnable: F1 well above the random baseline.
  EXPECT_GT((*model)->report().f1, 0.6);
  EXPECT_GT((*model)->report().recall, 0.5);
}

TEST(LogRegEmModelTest, ProbabilitiesOrderedByObviousness) {
  MagellanDatasetSpec spec = *FindMagellanSpec("S-FZ");
  EmDataset dataset = *GenerateMagellanDataset(spec);
  auto model = std::move(LogRegEmModel::Train(dataset)).ValueOrDie();

  // An identical pair must score higher than a pair of unrelated entities.
  const auto& schema = dataset.entity_schema();
  PairRecord identical;
  identical.left = dataset.pair(0).left;
  identical.right = dataset.pair(0).left;
  double p_same = model->PredictProba(identical);

  PairRecord crossed;
  crossed.left = dataset.pair(0).left;
  crossed.right = dataset.pair(1).right;
  // Ensure the crossed pair differs.
  if (crossed.left == crossed.right) GTEST_SKIP();
  (void)schema;
  EXPECT_GT(p_same, 0.9);
}

TEST(LogRegEmModelTest, AttributeWeightsCoverSchema) {
  MagellanDatasetSpec spec = *FindMagellanSpec("S-BR");
  EmDataset dataset = *GenerateMagellanDataset(spec);
  auto model = std::move(LogRegEmModel::Train(dataset)).ValueOrDie();
  auto weights = model->AttributeWeights();
  ASSERT_TRUE(weights.ok());
  EXPECT_EQ(weights->size(), dataset.entity_schema()->num_attributes());
  double total = 0.0;
  for (double w : *weights) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_GT(total, 0.0);
}

TEST(LogRegEmModelTest, RejectsEmptyDataset) {
  EmDataset empty("e", TwoAttrSchema());
  EXPECT_FALSE(LogRegEmModel::Train(empty).ok());
}

TEST(JaccardEmModelTest, ScoresOverlapCorrectly) {
  JaccardEmModel model;
  auto schema = TwoAttrSchema();
  EXPECT_DOUBLE_EQ(
      model.PredictProba(MakePair(schema, "a b", "x", "a b", "x")), 1.0);
  EXPECT_DOUBLE_EQ(
      model.PredictProba(MakePair(schema, "a", "x", "b", "y")), 0.0);
  // Half-overlapping name, identical price -> (1/3 + 1) / 2.
  EXPECT_NEAR(model.PredictProba(MakePair(schema, "a b", "x", "b c", "x")),
              (1.0 / 3.0 + 1.0) / 2.0, 1e-12);
}

TEST(JaccardEmModelTest, RespectsAttributeWeights) {
  auto schema = TwoAttrSchema();
  JaccardEmModel name_only({1.0, 0.0});
  PairRecord pair = MakePair(schema, "a", "x", "a", "y");
  EXPECT_DOUBLE_EQ(name_only.PredictProba(pair), 1.0);
  JaccardEmModel price_only({0.0, 1.0});
  EXPECT_DOUBLE_EQ(price_only.PredictProba(pair), 0.0);
  auto weights = name_only.AttributeWeights();
  ASSERT_TRUE(weights.ok());
  EXPECT_EQ((*weights)[0], 1.0);
}

TEST(JaccardEmModelTest, NullAttributesScoreZero) {
  auto schema = TwoAttrSchema();
  JaccardEmModel model;
  PairRecord pair;
  pair.left = Record::Empty(schema);
  pair.right = Record::Empty(schema);
  EXPECT_DOUBLE_EQ(model.PredictProba(pair), 0.0);
}

TEST(EmModelTest, PredictThreshold) {
  JaccardEmModel model;
  auto schema = TwoAttrSchema();
  PairRecord same = MakePair(schema, "a", "x", "a", "x");
  PairRecord diff = MakePair(schema, "a", "x", "b", "y");
  EXPECT_EQ(model.Predict(same), MatchLabel::kMatch);
  EXPECT_EQ(model.Predict(diff), MatchLabel::kNonMatch);
  // A strict threshold flips borderline records.
  PairRecord half = MakePair(schema, "a", "x", "a", "y");  // p = 0.5
  EXPECT_EQ(model.Predict(half, 0.4), MatchLabel::kMatch);
  EXPECT_EQ(model.Predict(half, 0.6), MatchLabel::kNonMatch);
}

}  // namespace
}  // namespace landmark
