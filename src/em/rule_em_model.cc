#include "em/rule_em_model.h"

#include <algorithm>
#include <sstream>

#include "util/arena.h"
#include "util/string_util.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/trace.h"
#include "util/timer.h"

namespace landmark {

bool MatchRule::Fires(const Vector& features) const {
  return Fires(features.data());
}

bool MatchRule::Fires(const double* features) const {
  for (const Predicate& p : predicates) {
    if (features[p.feature] < p.threshold) return false;
  }
  return !predicates.empty();
}

std::string MatchRule::ToString(const FeatureExtractor& extractor) const {
  std::ostringstream os;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) os << " AND ";
    os << extractor.feature_name(predicates[i].feature) << " >= "
       << FormatDouble(predicates[i].threshold, 2);
  }
  os << " => match (confidence " << FormatDouble(confidence, 3) << ", support "
     << support << ")";
  return os.str();
}

namespace {

struct RuleStats {
  size_t covered_positives = 0;
  size_t covered_negatives = 0;

  double Precision() const {
    const size_t total = covered_positives + covered_negatives;
    return total == 0
               ? 0.0
               : static_cast<double>(covered_positives) /
                     static_cast<double>(total);
  }
};

/// Coverage of `rule` over the still-active examples.
RuleStats Evaluate(const MatchRule& rule, const Matrix& x,
                   const std::vector<int>& y,
                   const std::vector<uint8_t>& active) {
  RuleStats stats;
  for (size_t i = 0; i < x.rows(); ++i) {
    if (!active[i]) continue;
    if (!rule.Fires(x.row(i))) continue;
    if (y[i] == 1) {
      ++stats.covered_positives;
    } else {
      ++stats.covered_negatives;
    }
  }
  return stats;
}

}  // namespace

Result<std::unique_ptr<RuleEmModel>> RuleEmModel::Train(
    const EmDataset& dataset, const RuleEmModelOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  if (options.thresholds.empty()) {
    return Status::InvalidArgument("need at least one candidate threshold");
  }
  auto model = std::unique_ptr<RuleEmModel>(
      new RuleEmModel(dataset.entity_schema(), options));

  Rng rng(options.split_seed);
  LANDMARK_ASSIGN_OR_RETURN(
      EmDatasetSplit split,
      dataset.Split(options.valid_fraction, options.test_fraction, rng));
  ThreadPool pool(DefaultThreadCount());

  Matrix x = model->extractor_->ExtractBatch(dataset, split.train, pool);
  std::vector<int> y;
  y.reserve(split.train.size());
  for (size_t i : split.train) {
    y.push_back(dataset.pair(i).is_match() ? 1 : 0);
  }

  // Sequential covering: learn one high-precision rule, deactivate the
  // positives it covers, repeat.
  std::vector<uint8_t> active(y.size(), 1);
  size_t remaining_positives = 0;
  for (int label : y) remaining_positives += static_cast<size_t>(label);

  while (model->rules_.size() < options.max_rules &&
         remaining_positives >= options.min_support) {
    MatchRule rule;
    RuleStats rule_stats;
    bool improved = true;
    while (improved &&
           rule.predicates.size() < options.max_predicates_per_rule &&
           rule_stats.Precision() < options.target_precision) {
      improved = false;
      MatchRule best = rule;
      RuleStats best_stats = rule_stats;
      for (size_t f = 0; f < model->extractor_->num_features(); ++f) {
        bool f_used = false;
        for (const auto& p : rule.predicates) f_used |= p.feature == f;
        if (f_used) continue;
        for (double threshold : options.thresholds) {
          MatchRule candidate = rule;
          candidate.predicates.push_back(MatchRule::Predicate{f, threshold});
          RuleStats stats = Evaluate(candidate, x, y, active);
          if (stats.covered_positives < options.min_support) continue;
          const bool better =
              stats.Precision() > best_stats.Precision() ||
              (stats.Precision() == best_stats.Precision() &&
               stats.covered_positives > best_stats.covered_positives);
          if (better && !best.predicates.empty()) {
            best = candidate;
            best_stats = stats;
            improved = true;
          } else if (best.predicates.empty()) {
            best = candidate;
            best_stats = stats;
            improved = true;
          }
        }
      }
      if (improved) {
        rule = best;
        rule_stats = best_stats;
      }
    }
    if (rule.predicates.empty() ||
        rule_stats.covered_positives < options.min_support ||
        rule_stats.Precision() < 0.5) {
      break;  // no acceptable rule left
    }
    rule.confidence = rule_stats.Precision();
    rule.support = rule_stats.covered_positives;
    // Deactivate covered positives (negatives stay to constrain later rules).
    for (size_t i = 0; i < y.size(); ++i) {
      if (!active[i] || y[i] != 1) continue;
      if (rule.Fires(x.row(i))) {
        active[i] = 0;
        --remaining_positives;
      }
    }
    model->rules_.push_back(std::move(rule));
  }

  if (model->rules_.empty()) {
    return Status::Internal("rule learner found no acceptable rule");
  }

  model->report_ = HeldOutReport(*model, dataset, split.test, pool);
  return model;
}

double RuleEmModel::PredictProba(const PairRecord& pair) const {
  Vector features = extractor_->Extract(pair);
  double best = options_.default_probability;
  for (const MatchRule& rule : rules_) {
    if (rule.Fires(features)) best = std::max(best, rule.confidence);
  }
  return best;
}

void RuleEmModel::PredictProbaPrepared(const PreparedPairBatch& prepared,
                                       size_t begin, size_t end,
                                       double* out) const {
  if (begin == end) return;
  LANDMARK_TRACE_SPAN("model/query");
  LANDMARK_ACTIVITY("model/query");
  Timer timer;
  ArenaFrame frame;
  double* features = frame.arena().AllocateDoubles(extractor_->num_features());
  for (size_t i = begin; i < end; ++i) {
    extractor_->ExtractPrepared(prepared, i, features);
    double best = options_.default_probability;
    for (const MatchRule& rule : rules_) {
      if (rule.Fires(features)) best = std::max(best, rule.confidence);
    }
    out[i - begin] = best;
  }
  ReportQueryTelemetry(end - begin, timer.ElapsedSeconds());
}

Result<std::vector<double>> RuleEmModel::AttributeWeights() const {
  if (rules_.empty()) {
    return Status::FailedPrecondition("model is not trained");
  }
  std::vector<double> weights(
      extractor_->entity_schema()->num_attributes(), 0.0);
  for (const MatchRule& rule : rules_) {
    for (const auto& predicate : rule.predicates) {
      weights[extractor_->attribute_of_feature(predicate.feature)] +=
          rule.confidence;
    }
  }
  return weights;
}

std::string RuleEmModel::RulesToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < rules_.size(); ++i) {
    os << "R" << i + 1 << ": " << rules_[i].ToString(*extractor_) << "\n";
  }
  return os.str();
}

}  // namespace landmark
