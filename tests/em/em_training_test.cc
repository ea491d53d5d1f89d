// Training runs its row-wise work (feature extraction, the held-out report)
// on a ThreadPool. These tests pin that every bundled feature model is
// bit-identical to a serial reference assembled from the public pieces:
// the same-seed Split, row-wise ExtractInto / Compose, the same fitters, and
// a per-pair report loop.

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/magellan.h"
#include "em/embedding_em_model.h"
#include "em/feature_extractor.h"
#include "em/forest_em_model.h"
#include "em/logreg_em_model.h"
#include "em/rule_em_model.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/scaler.h"
#include "util/thread_pool.h"

namespace landmark {
namespace {

/// Compares bit patterns, so -0.0 vs 0.0 or differently-signed NaNs count.
void ExpectBitIdentical(const std::vector<double>& actual,
                        const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(double)),
            0);
}

void ExpectBitIdentical(double actual, double expected) {
  ExpectBitIdentical(std::vector<double>{actual},
                     std::vector<double>{expected});
}

class EmTrainingTest : public ::testing::Test {
 protected:
  // S-FZ at scale 1: its train split (~570 rows) and test split (~190 rows)
  // give every chunk of a 4-way partition work.
  static void SetUpTestSuite() {
    dataset_ =
        new EmDataset(*GenerateMagellanDataset(*FindMagellanSpec("S-FZ")));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static EmDatasetSplit SplitFor(uint64_t seed, double valid, double test) {
    Rng rng(seed);
    return *dataset_->Split(valid, test, rng);
  }

  static std::vector<int> Labels(const std::vector<size_t>& indices) {
    std::vector<int> y;
    for (size_t i : indices) y.push_back(dataset_->pair(i).is_match() ? 1 : 0);
    return y;
  }

  /// The serial design matrix: one ExtractInto per row, in split order.
  static Matrix RowWiseFeatures(const FeatureExtractor& extractor,
                                const std::vector<size_t>& indices) {
    Matrix x(indices.size(), extractor.num_features());
    for (size_t r = 0; r < indices.size(); ++r) {
      extractor.ExtractInto(dataset_->pair(indices[r]), x.row(r));
    }
    return x;
  }

  /// The serial held-out report: one prediction per test pair, in order.
  template <typename Predict>
  static EmModelReport ReferenceReport(const std::vector<size_t>& test,
                                       Predict predict) {
    std::vector<int> y_pred;
    for (size_t i : test) {
      y_pred.push_back(predict(dataset_->pair(i)) >= 0.5 ? 1 : 0);
    }
    EmModelReport report;
    report.confusion = ComputeConfusion(Labels(test), y_pred);
    report.f1 = report.confusion.F1();
    report.precision = report.confusion.Precision();
    report.recall = report.confusion.Recall();
    report.accuracy = report.confusion.Accuracy();
    return report;
  }

  static void ExpectSameReport(const EmModelReport& actual,
                               const EmModelReport& expected) {
    EXPECT_EQ(actual.confusion.true_positive,
              expected.confusion.true_positive);
    EXPECT_EQ(actual.confusion.true_negative,
              expected.confusion.true_negative);
    EXPECT_EQ(actual.confusion.false_positive,
              expected.confusion.false_positive);
    EXPECT_EQ(actual.confusion.false_negative,
              expected.confusion.false_negative);
    ExpectBitIdentical(actual.f1, expected.f1);
    ExpectBitIdentical(actual.precision, expected.precision);
    ExpectBitIdentical(actual.recall, expected.recall);
    ExpectBitIdentical(actual.accuracy, expected.accuracy);
  }

  /// model.PredictProba against `reference` on the first 50 pairs.
  template <typename Predict>
  static void ExpectSamePredictions(const EmModel& model, Predict reference) {
    std::vector<double> actual, expected;
    for (size_t i = 0; i < 50; ++i) {
      actual.push_back(model.PredictProba(dataset_->pair(i)));
      expected.push_back(reference(dataset_->pair(i)));
    }
    ExpectBitIdentical(actual, expected);
  }

  static EmDataset* dataset_;
};

EmDataset* EmTrainingTest::dataset_ = nullptr;

TEST_F(EmTrainingTest, ExtractBatchIsBitIdenticalAcrossPoolSizes) {
  const EmDatasetSplit split = SplitFor(17, 0.2, 0.2);
  FeatureExtractor extractor(dataset_->entity_schema());
  ThreadPool serial(1);
  ThreadPool parallel(4);
  ASSERT_EQ(parallel.NumChunks(split.train.size()), 4u);
  const Matrix a = extractor.ExtractBatch(*dataset_, split.train, serial);
  const Matrix b = extractor.ExtractBatch(*dataset_, split.train, parallel);
  const Matrix reference = RowWiseFeatures(extractor, split.train);
  ASSERT_EQ(a.rows(), split.train.size());
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.cols(), a.cols());
  const size_t bytes = a.rows() * a.cols() * sizeof(double);
  EXPECT_EQ(std::memcmp(a.row(0), b.row(0), bytes), 0);
  EXPECT_EQ(std::memcmp(a.row(0), reference.row(0), bytes), 0);
}

TEST_F(EmTrainingTest, LogRegMatchesSerialReference) {
  const LogRegEmModelOptions options;
  auto model = std::move(LogRegEmModel::Train(*dataset_, options)).ValueOrDie();

  const EmDatasetSplit split = SplitFor(options.split_seed,
                                        options.valid_fraction,
                                        options.test_fraction);
  FeatureExtractor extractor(dataset_->entity_schema());
  Matrix x = RowWiseFeatures(extractor, split.train);
  StandardScaler scaler;
  ASSERT_TRUE(scaler.Fit(x).ok());
  ASSERT_TRUE(scaler.TransformInPlace(x).ok());
  LogisticRegression classifier;
  ASSERT_TRUE(classifier.Fit(x, Labels(split.train), options.logreg).ok());
  auto predict = [&](const PairRecord& pair) {
    Vector features = extractor.Extract(pair);
    EXPECT_TRUE(scaler.TransformInPlace(features).ok());
    return classifier.PredictProba(features);
  };

  ExpectBitIdentical(model->classifier().coefficients(),
                     classifier.coefficients());
  ExpectBitIdentical(model->classifier().intercept(), classifier.intercept());
  ExpectSameReport(model->report(), ReferenceReport(split.test, predict));
  ExpectSamePredictions(*model, predict);
}

TEST_F(EmTrainingTest, ForestMatchesSerialReference) {
  const ForestEmModelOptions options;
  auto model = std::move(ForestEmModel::Train(*dataset_, options)).ValueOrDie();

  const EmDatasetSplit split = SplitFor(options.split_seed,
                                        options.valid_fraction,
                                        options.test_fraction);
  FeatureExtractor extractor(dataset_->entity_schema());
  const Matrix x = RowWiseFeatures(extractor, split.train);
  const std::vector<int> y = Labels(split.train);
  const double n_total = static_cast<double>(y.size());
  const double n_pos =
      static_cast<double>(std::count(y.begin(), y.end(), 1));
  std::vector<double> sample_weight;
  for (int label : y) {
    sample_weight.push_back(label == 1 ? n_total / (2.0 * n_pos)
                                       : n_total / (2.0 * (n_total - n_pos)));
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y, options.forest, sample_weight).ok());
  auto predict = [&](const PairRecord& pair) {
    return forest.PredictProba(extractor.Extract(pair));
  };

  ExpectBitIdentical(model->forest().FeatureImportances(),
                     forest.FeatureImportances());
  ExpectSameReport(model->report(), ReferenceReport(split.test, predict));
  ExpectSamePredictions(*model, predict);
}

TEST_F(EmTrainingTest, RuleMatchesSerialReference) {
  const RuleEmModelOptions options;
  auto model = std::move(RuleEmModel::Train(*dataset_, options)).ValueOrDie();

  const EmDatasetSplit split = SplitFor(options.split_seed,
                                        options.valid_fraction,
                                        options.test_fraction);
  FeatureExtractor extractor(dataset_->entity_schema());
  const Matrix x = RowWiseFeatures(extractor, split.train);
  const std::vector<int> y = Labels(split.train);

  // Replay sequential covering over the serial matrix: each learned rule's
  // support and confidence must be what it covers among the still-active
  // rows, in learning order.
  std::vector<uint8_t> active(y.size(), 1);
  ASSERT_FALSE(model->rules().empty());
  for (const MatchRule& rule : model->rules()) {
    size_t positives = 0, negatives = 0;
    for (size_t r = 0; r < y.size(); ++r) {
      if (!active[r] || !rule.Fires(x.row(r))) continue;
      (y[r] == 1 ? positives : negatives) += 1;
    }
    EXPECT_EQ(rule.support, positives);
    ExpectBitIdentical(rule.confidence,
                       static_cast<double>(positives) /
                           static_cast<double>(positives + negatives));
    for (size_t r = 0; r < y.size(); ++r) {
      if (active[r] && y[r] == 1 && rule.Fires(x.row(r))) active[r] = 0;
    }
  }
  auto predict = [&](const PairRecord& pair) {
    const Vector features = extractor.Extract(pair);
    double best = options.default_probability;
    for (const MatchRule& rule : model->rules()) {
      if (rule.Fires(features)) best = std::max(best, rule.confidence);
    }
    return best;
  };

  ExpectSameReport(model->report(), ReferenceReport(split.test, predict));
  ExpectSamePredictions(*model, predict);
}

TEST_F(EmTrainingTest, EmbeddingMatchesSerialReference) {
  const EmbeddingEmModelOptions options;
  auto model =
      std::move(EmbeddingEmModel::Train(*dataset_, options)).ValueOrDie();

  const EmDatasetSplit split = SplitFor(options.split_seed,
                                        options.valid_fraction,
                                        options.test_fraction);
  Matrix x(split.train.size(), dataset_->entity_schema()->num_attributes() *
                                   2 * options.embedding_dim);
  for (size_t r = 0; r < split.train.size(); ++r) {
    const Vector features = model->Compose(dataset_->pair(split.train[r]));
    ASSERT_EQ(features.size(), x.cols());
    std::copy(features.begin(), features.end(), x.row(r));
  }
  Mlp mlp;
  ASSERT_TRUE(mlp.Fit(x, Labels(split.train), options.mlp).ok());
  auto predict = [&](const PairRecord& pair) {
    return mlp.PredictProba(model->Compose(pair));
  };

  EXPECT_EQ(model->num_parameters(), mlp.num_parameters());
  ExpectSameReport(model->report(), ReferenceReport(split.test, predict));
  ExpectSamePredictions(*model, predict);
}

TEST_F(EmTrainingTest, HeldOutReportIsTheSameAtAnyPoolSize) {
  auto model = std::move(LogRegEmModel::Train(*dataset_)).ValueOrDie();
  const EmDatasetSplit split = SplitFor(17, 0.2, 0.2);
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const EmModelReport a = HeldOutReport(*model, *dataset_, split.test, serial);
  const EmModelReport b =
      HeldOutReport(*model, *dataset_, split.test, parallel);
  ExpectSameReport(a, b);
  ExpectSameReport(a, model->report());

  // An empty test split leaves the report zeroed.
  const EmModelReport empty = HeldOutReport(*model, *dataset_, {}, parallel);
  EXPECT_EQ(empty.confusion.true_positive + empty.confusion.true_negative +
                empty.confusion.false_positive +
                empty.confusion.false_negative,
            0u);
  EXPECT_EQ(empty.f1, 0.0);
}

}  // namespace
}  // namespace landmark
