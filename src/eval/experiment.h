#ifndef LANDMARK_EVAL_EXPERIMENT_H_
#define LANDMARK_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/landmark_explainer.h"
#include "core/lime_explainer.h"
#include "core/mojito_copy_explainer.h"
#include "data/em_dataset.h"
#include "datagen/magellan.h"
#include "em/logreg_em_model.h"
#include "eval/evaluation.h"
#include "util/flags.h"
#include "util/result.h"

namespace landmark {

/// \brief Everything a paper experiment needs to run on one dataset:
/// generation, model training, and the paper's per-label record sampling.
struct ExperimentConfig {
  /// The paper samples 100 records per label ("all records are sampled when
  /// the dataset contains less").
  size_t records_per_label = 100;
  /// Scales the generated dataset sizes (1.0 = the sizes of Table 1).
  double size_scale = 1.0;
  ExplainerOptions explainer_options;
  /// Engine knobs (worker threads, prediction memo). The thread
  /// count never changes results — see the ExplainerEngine determinism
  /// contract.
  EngineOptions engine_options;
  TokenRemovalOptions token_removal;
  InterestOptions interest;
  MagellanGenOptions gen_options;
  LogRegEmModelOptions model_options;
  uint64_t sample_seed = 7;

  /// Reads overrides from command-line flags:
  ///   --records N --samples N --scale F --kernel-width F --lambda F
  ///   --threshold F --seed N --datasets S-BR,S-IA
  ///   --threads N (0 = hardware concurrency) --no-predict-cache
  ///   --stall-threshold SECONDS (flag nodes running longer than this in
  ///   the stall watchdog; 0 = disabled, never changes explanations)
  static ExperimentConfig FromFlags(const Flags& flags);

  /// Builds the engine configured by `engine_options`.
  ExplainerEngine MakeEngine() const { return ExplainerEngine(engine_options); }
};

/// Returns the dataset codes selected by --datasets (comma separated), or
/// all 12 when the flag is absent.
std::vector<MagellanDatasetSpec> SelectSpecs(const Flags& flags);

/// \brief A generated dataset, its trained EM model and the sampled record
/// indices for both labels.
class ExperimentContext {
 public:
  /// Generates the dataset of `spec` and trains the logistic-regression EM
  /// model on it.
  static Result<ExperimentContext> Create(const MagellanDatasetSpec& spec,
                                          const ExperimentConfig& config);

  const MagellanDatasetSpec& spec() const { return spec_; }
  const EmDataset& dataset() const { return dataset_; }
  const LogRegEmModel& model() const { return *model_; }

  /// The sampled pair indices for a label (the paper's "100 per label").
  const std::vector<size_t>& sample(MatchLabel label) const {
    return label == MatchLabel::kMatch ? match_sample_ : non_match_sample_;
  }

 private:
  ExperimentContext() = default;

  MagellanDatasetSpec spec_;
  EmDataset dataset_;
  std::unique_ptr<LogRegEmModel> model_;
  std::vector<size_t> match_sample_;
  std::vector<size_t> non_match_sample_;
};

/// \brief The four techniques of the paper's evaluation, in table order.
struct Technique {
  std::string label;  // column label: "Single", "Double", "LIME", "Mojito Copy"
  std::unique_ptr<PairExplainer> explainer;
  /// Mojito Copy is only evaluated on non-matching records in the paper.
  bool non_match_only = false;
};

/// Builds {Single, Double, LIME, Mojito Copy} with the given options.
std::vector<Technique> MakeTechniques(const ExplainerOptions& options);

}  // namespace landmark

#endif  // LANDMARK_EVAL_EXPERIMENT_H_
