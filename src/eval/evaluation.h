#ifndef LANDMARK_EVAL_EVALUATION_H_
#define LANDMARK_EVAL_EVALUATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine/explainer_engine.h"
#include "core/explainer.h"
#include "data/em_dataset.h"
#include "em/em_model.h"
#include "util/result.h"
#include "util/rng.h"

namespace landmark {

/// \brief One explained record: the pair plus every explanation a technique
/// produced for it (two for landmark techniques, one for plain LIME).
struct ExplainedRecord {
  size_t pair_index = 0;
  std::vector<Explanation> explanations;
};

/// Explains each pair in `indices` through the ExplainerEngine.
/// Records whose explanation fails (e.g. all values null after the dirty
/// transform) are skipped with a warning counter rather than failing the
/// sweep; `num_skipped` reports how many.
struct ExplainBatchResult {
  std::vector<ExplainedRecord> records;
  size_t num_skipped = 0;
  /// Stage counters of the underlying engine batch.
  EngineStats stats;
};

/// Runs the batch on `engine` (thread count and prediction-memo behaviour
/// come from its EngineOptions).
ExplainBatchResult ExplainRecords(const EmModel& model,
                                  const PairExplainer& explainer,
                                  const EmDataset& dataset,
                                  const std::vector<size_t>& indices,
                                  const ExplainerEngine& engine);

/// Convenience overload on the shared serial engine.
ExplainBatchResult ExplainRecords(const EmModel& model,
                                  const PairExplainer& explainer,
                                  const EmDataset& dataset,
                                  const std::vector<size_t>& indices);

/// \brief Token-based evaluation (paper §4.2.1, Table 2).
///
/// For every explanation: remove `removal_fraction` of its interpretable
/// features at random, reconstruct the record, and compare the EM model's
/// probability with the surrogate estimate
///   p̂ = f(x) − Σ_{removed} wᵢ.
/// Accuracy is agreement of the two at `decision_threshold`; MAE is the
/// mean |p_model − p̂|.
struct TokenRemovalOptions {
  double removal_fraction = 0.25;
  size_t repetitions = 1;  // independent removals per explanation
  double decision_threshold = 0.5;
  uint64_t seed = 7;
};

struct TokenRemovalResult {
  double accuracy = 0.0;
  double mae = 0.0;
  size_t num_trials = 0;
};

Result<TokenRemovalResult> EvaluateTokenRemoval(
    const EmModel& model, const PairExplainer& explainer,
    const EmDataset& dataset, const std::vector<ExplainedRecord>& records,
    const TokenRemovalOptions& options);

/// \brief Attribute-based evaluation (paper §4.2.2, Table 3).
///
/// Correlates the EM model's internal attribute ranking (sum of absolute
/// feature coefficients per attribute) with the surrogate's (sum of
/// absolute token weights per attribute), using the weighted Kendall tau;
/// the result is the mean correlation over all explanations.
struct AttributeEvalResult {
  double mean_weighted_tau = 0.0;
  size_t num_explanations = 0;
};

Result<AttributeEvalResult> EvaluateAttributeCorrelation(
    const EmModel& model, const EmDataset& dataset,
    const std::vector<ExplainedRecord>& records);

/// \brief Interest evaluation (paper §4.3, Table 4).
///
/// For match-labeled records every positive-weight token is removed; for
/// non-match-labeled records every negative-weight token is removed.
/// Interest is the fraction of explanations whose reconstructed record flips
/// the model's predicted class.
struct InterestOptions {
  double decision_threshold = 0.5;
};

struct InterestResult {
  double interest = 0.0;
  size_t num_explanations = 0;
};

Result<InterestResult> EvaluateInterest(
    const EmModel& model, const PairExplainer& explainer,
    const EmDataset& dataset, const std::vector<ExplainedRecord>& records,
    MatchLabel label, const InterestOptions& options);

}  // namespace landmark

#endif  // LANDMARK_EVAL_EVALUATION_H_
