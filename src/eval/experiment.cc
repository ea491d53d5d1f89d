#include "eval/experiment.h"

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace landmark {

ExperimentConfig ExperimentConfig::FromFlags(const Flags& flags) {
  ExperimentConfig config;
  config.records_per_label = static_cast<size_t>(
      flags.GetInt("records", static_cast<int64_t>(config.records_per_label)));
  config.size_scale = flags.GetDouble("scale", config.size_scale);
  config.explainer_options.num_samples = static_cast<size_t>(flags.GetInt(
      "samples", static_cast<int64_t>(config.explainer_options.num_samples)));
  config.explainer_options.kernel_width =
      flags.GetDouble("kernel-width", config.explainer_options.kernel_width);
  config.explainer_options.ridge_lambda =
      flags.GetDouble("lambda", config.explainer_options.ridge_lambda);
  config.explainer_options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(config.explainer_options.seed)));
  config.token_removal.decision_threshold =
      flags.GetDouble("threshold", config.token_removal.decision_threshold);
  config.interest.decision_threshold = config.token_removal.decision_threshold;
  config.token_removal.removal_fraction = flags.GetDouble(
      "removal-fraction", config.token_removal.removal_fraction);
  const std::string neighborhood = flags.GetString("neighborhood", "lime");
  if (neighborhood == "shap") {
    config.explainer_options.neighborhood = NeighborhoodKind::kShap;
  } else if (neighborhood != "lime") {
    LANDMARK_LOG(Warning) << "unknown --neighborhood '" << neighborhood
                          << "', using lime";
  }
  const int64_t threads = flags.GetInt(
      "threads", static_cast<int64_t>(config.engine_options.num_threads));
  if (threads < 0) {
    LANDMARK_LOG(Warning) << "--threads " << threads << " is negative, using 1";
    config.engine_options.num_threads = 1;
  } else {
    config.engine_options.num_threads = static_cast<size_t>(threads);
  }
  if (flags.GetBool("no-predict-cache", false)) {
    config.engine_options.cache_predictions = false;
  }
  config.engine_options.stall_threshold =
      flags.GetDouble("stall-threshold", config.engine_options.stall_threshold);
  return config;
}

std::vector<MagellanDatasetSpec> SelectSpecs(const Flags& flags) {
  const std::vector<MagellanDatasetSpec>& all = MagellanBenchmark();
  if (!flags.Has("datasets")) return all;
  std::vector<MagellanDatasetSpec> selected;
  for (const std::string& code : Split(flags.GetString("datasets", ""), ',')) {
    const std::string trimmed = Trim(code);
    if (trimmed.empty()) continue;
    Result<MagellanDatasetSpec> spec = FindMagellanSpec(trimmed);
    if (spec.ok()) {
      selected.push_back(*spec);
    } else {
      LANDMARK_LOG(Warning) << "unknown dataset code: " << trimmed;
    }
  }
  return selected;
}

Result<ExperimentContext> ExperimentContext::Create(
    const MagellanDatasetSpec& spec, const ExperimentConfig& config) {
  ExperimentContext context;
  context.spec_ = spec;

  Timer timer;
  MagellanGenOptions gen = config.gen_options;
  gen.size_scale = config.size_scale;
  LANDMARK_ASSIGN_OR_RETURN(context.dataset_,
                            GenerateMagellanDataset(spec, gen));
  const double gen_secs = timer.ElapsedSeconds();

  timer.Reset();
  LANDMARK_ASSIGN_OR_RETURN(
      context.model_,
      LogRegEmModel::Train(context.dataset_, config.model_options));
  LANDMARK_LOG(Info) << spec.code << ": generated "
                     << context.dataset_.size() << " pairs in "
                     << FormatDouble(gen_secs, 2) << "s, trained model in "
                     << FormatDouble(timer.ElapsedSeconds(), 2)
                     << "s (test F1=" << FormatDouble(context.model_->report().f1, 3)
                     << ")";

  Rng rng(config.sample_seed ^ spec.seed);
  context.match_sample_ = context.dataset_.SampleByLabel(
      MatchLabel::kMatch, config.records_per_label, rng);
  context.non_match_sample_ = context.dataset_.SampleByLabel(
      MatchLabel::kNonMatch, config.records_per_label, rng);
  return context;
}

std::vector<Technique> MakeTechniques(const ExplainerOptions& options) {
  std::vector<Technique> techniques;
  techniques.push_back(Technique{
      "Single",
      std::make_unique<LandmarkExplainer>(GenerationStrategy::kSingle, options),
      /*non_match_only=*/false});
  techniques.push_back(Technique{
      "Double",
      std::make_unique<LandmarkExplainer>(GenerationStrategy::kDouble, options),
      /*non_match_only=*/false});
  techniques.push_back(
      Technique{"LIME", std::make_unique<LimeExplainer>(options),
                /*non_match_only=*/false});
  techniques.push_back(Technique{
      "Mojito Copy", std::make_unique<MojitoCopyExplainer>(options),
      /*non_match_only=*/true});
  return techniques;
}

}  // namespace landmark
