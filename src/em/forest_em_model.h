#ifndef LANDMARK_EM_FOREST_EM_MODEL_H_
#define LANDMARK_EM_FOREST_EM_MODEL_H_

#include <memory>
#include <string>

#include "data/em_dataset.h"
#include "em/em_model.h"
#include "em/feature_extractor.h"
#include "ml/decision_tree.h"

namespace landmark {

/// \brief Training configuration for the random-forest EM model.
struct ForestEmModelOptions {
  RandomForestOptions forest;
  double valid_fraction = 0.2;
  double test_fraction = 0.2;
  uint64_t split_seed = 17;
  /// Rebalance classes through per-sample weights (the benchmark is 9-24%
  /// matches).
  bool balanced_class_weights = true;
};

/// \brief A *nonlinear* EM model: random forest over the same Magellan-style
/// similarity features as LogRegEmModel.
///
/// The explainers treat it as a black box, which demonstrates the
/// model-agnosticism claim of the paper (§3: "other explanation systems can
/// be easily coupled"; the framework only needs PredictProba). Its
/// AttributeWeights come from impurity-decrease feature importances, so the
/// attribute-based evaluation also applies.
class ForestEmModel : public EmModel {
 public:
  static Result<std::unique_ptr<ForestEmModel>> Train(
      const EmDataset& dataset, const ForestEmModelOptions& options = {});

  double PredictProba(const PairRecord& pair) const override;
  void PredictProbaPrepared(const PreparedPairBatch& prepared, size_t begin,
                            size_t end, double* out) const override;
  std::string name() const override { return "forest-em"; }
  Result<std::vector<double>> AttributeWeights() const override;

  const EmModelReport& report() const { return report_; }
  const RandomForest& forest() const { return forest_; }

 private:
  explicit ForestEmModel(std::shared_ptr<const Schema> schema)
      : extractor_(std::make_unique<FeatureExtractor>(std::move(schema))) {}

  std::unique_ptr<FeatureExtractor> extractor_;
  RandomForest forest_;
  EmModelReport report_;
};

}  // namespace landmark

#endif  // LANDMARK_EM_FOREST_EM_MODEL_H_
