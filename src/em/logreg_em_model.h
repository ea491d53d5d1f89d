#ifndef LANDMARK_EM_LOGREG_EM_MODEL_H_
#define LANDMARK_EM_LOGREG_EM_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "data/em_dataset.h"
#include "em/em_model.h"
#include "em/feature_extractor.h"
#include "ml/logistic_regression.h"
#include "ml/scaler.h"
#include "util/result.h"
#include "util/rng.h"

namespace landmark {

/// \brief Training configuration for the logistic-regression EM model.
struct LogRegEmModelOptions {
  LogisticRegressionOptions logreg;
  double valid_fraction = 0.2;
  double test_fraction = 0.2;
  uint64_t split_seed = 17;
};

/// \brief The EM model the paper explains: Logistic Regression over
/// Magellan-style per-attribute similarity features.
///
/// The pipeline is FeatureExtractor -> StandardScaler -> LogisticRegression.
/// AttributeWeights() exposes the per-attribute importance the paper's
/// attribute-based evaluation ranks against the surrogate: the sum of the
/// absolute standardized coefficients of the attribute's features.
class LogRegEmModel : public EmModel {
 public:
  /// Trains on a stratified split of `dataset`; evaluates on the test part.
  static Result<std::unique_ptr<LogRegEmModel>> Train(
      const EmDataset& dataset, const LogRegEmModelOptions& options = {});

  double PredictProba(const PairRecord& pair) const override;
  void PredictProbaPrepared(const PreparedPairBatch& prepared, size_t begin,
                            size_t end, double* out) const override;
  std::string name() const override { return "logreg-em"; }
  Result<std::vector<double>> AttributeWeights() const override;

  /// Test-split quality report recorded at training time.
  const EmModelReport& report() const { return report_; }

  const FeatureExtractor& feature_extractor() const { return *extractor_; }
  const LogisticRegression& classifier() const { return classifier_; }

 private:
  explicit LogRegEmModel(std::shared_ptr<const Schema> schema)
      : extractor_(std::make_unique<FeatureExtractor>(std::move(schema))) {}

  std::unique_ptr<FeatureExtractor> extractor_;
  StandardScaler scaler_;
  LogisticRegression classifier_;
  EmModelReport report_;
};

}  // namespace landmark

#endif  // LANDMARK_EM_LOGREG_EM_MODEL_H_
