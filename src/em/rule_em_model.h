#ifndef LANDMARK_EM_RULE_EM_MODEL_H_
#define LANDMARK_EM_RULE_EM_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "data/em_dataset.h"
#include "em/em_model.h"
#include "em/feature_extractor.h"

namespace landmark {

/// \brief One conjunctive matching rule over similarity predicates:
/// "jaccard(name) >= 0.7 AND numeric(price) >= 0.9 => match".
struct MatchRule {
  struct Predicate {
    size_t feature = 0;     // index into the FeatureExtractor space
    double threshold = 0.0;  // fires when feature value >= threshold
  };
  std::vector<Predicate> predicates;
  /// Training precision of the rule (used as its confidence).
  double confidence = 0.0;
  /// Positives covered at learning time (diagnostic).
  size_t support = 0;

  bool Fires(const Vector& features) const;
  /// Pointer form for arena-backed rows.
  bool Fires(const double* features) const;
  std::string ToString(const FeatureExtractor& extractor) const;
};

/// \brief Options for the sequential-covering rule learner.
struct RuleEmModelOptions {
  /// Candidate similarity thresholds per feature.
  std::vector<double> thresholds = {0.5, 0.7, 0.85, 0.95};
  size_t max_rules = 10;
  size_t max_predicates_per_rule = 3;
  /// A rule must cover at least this many remaining positives.
  size_t min_support = 3;
  /// Stop growing a rule once its precision reaches this value.
  double target_precision = 0.95;
  /// Probability reported when no rule fires.
  double default_probability = 0.02;
  double valid_fraction = 0.2;
  double test_fraction = 0.2;
  uint64_t split_seed = 17;
};

/// \brief Rule-based EM (the intrinsically interpretable family of the
/// paper's related work — cf. Singh et al. 2017, Wang et al. 2011), learned
/// by sequential covering over the Magellan-style similarity features.
///
/// PredictProba returns the confidence of the strongest firing rule (the
/// learner's training precision), or `default_probability` when no rule
/// fires. Because the true decision logic is a known finite rule list, this
/// model doubles as ground truth for validating the explainers: a faithful
/// explanation of a RuleEmModel decision must place its weight on the
/// attributes of the firing rule.
class RuleEmModel : public EmModel {
 public:
  static Result<std::unique_ptr<RuleEmModel>> Train(
      const EmDataset& dataset, const RuleEmModelOptions& options = {});

  double PredictProba(const PairRecord& pair) const override;
  void PredictProbaPrepared(const PreparedPairBatch& prepared, size_t begin,
                            size_t end, double* out) const override;
  std::string name() const override { return "rule-em"; }
  Result<std::vector<double>> AttributeWeights() const override;

  const std::vector<MatchRule>& rules() const { return rules_; }
  const EmModelReport& report() const { return report_; }
  const FeatureExtractor& feature_extractor() const { return *extractor_; }

  /// Multi-line rendering of the learned rule list.
  std::string RulesToString() const;

 private:
  RuleEmModel(std::shared_ptr<const Schema> schema,
              const RuleEmModelOptions& options)
      : extractor_(std::make_unique<FeatureExtractor>(std::move(schema))),
        options_(options) {}

  std::unique_ptr<FeatureExtractor> extractor_;
  RuleEmModelOptions options_;
  std::vector<MatchRule> rules_;
  EmModelReport report_;
};

}  // namespace landmark

#endif  // LANDMARK_EM_RULE_EM_MODEL_H_
