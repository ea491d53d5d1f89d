// landmark_cli — command-line front end for the Landmark Explanation
// library.
//
// Subcommands:
//   generate        write a synthetic Magellan benchmark dataset as CSV
//   train-eval      train an EM model and print its quality report
//   explain         explain one record with a chosen technique
//   counterfactual  find the minimal token removal that flips a decision
//   summary         global explanation summary over a record sample
//   evaluate        run the paper's three protocols on one dataset
//   telemetry-demo  run a small explain batch and print the metrics table
//
// Every command also accepts --metrics-out=FILE (metrics-registry snapshot
// as JSON), --trace-out=FILE (Chrome/Perfetto trace of the run),
// --audit-out=FILE (per-explanation flight recorder), --profile-out=FILE
// (folded-stack sampling profile), --metrics-port=N (live Prometheus
// /metrics endpoint plus /statusz flight deck on 127.0.0.1),
// --timeline-out=FILE (windowed time-series JSONL) and --slo=SPEC
// (burn-rate SLO policies on /sloz).
//
// Examples:
//   landmark_cli generate --dataset S-AG --output sag.csv
//   landmark_cli explain --dataset S-BR --pair 7 --technique double
//   landmark_cli explain --input my_pairs.csv --pair 0 --model forest
//   landmark_cli evaluate --dataset S-IA --records 50
//   landmark_cli telemetry-demo --trace-out=t.json --metrics-out=m.json

#include <algorithm>
#include <iostream>

#include "core/counterfactual.h"
#include "core/engine/explainer_engine.h"
#include "core/landmark_explanation.h"
#include "core/summarizer.h"
#include "datagen/magellan.h"
#include "em/forest_em_model.h"
#include "eval/experiment.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/telemetry/telemetry.h"

namespace landmark_cli {

using namespace landmark;  // NOLINT: binary-local

constexpr char kUsage[] = R"(usage: landmark_cli <command> [flags]

commands:
  generate        --dataset CODE --output FILE [--scale F]
  train-eval      (--dataset CODE | --input FILE) [--model logreg|forest]
  explain         (--dataset CODE | --input FILE) --pair N
                  [--technique single|double|auto|lime|copy|anchor] [--top K]
                  [--model logreg|forest] [--samples N]
  counterfactual  (--dataset CODE | --input FILE) --pair N [--model ...]
  summary         (--dataset CODE | --input FILE) [--records N] [--top K]
  evaluate        --dataset CODE [--records N] [--samples N] [--scale F]
                  [--threads N] [--no-predict-cache] [--stall-threshold S]
                  [--engine-stats]
  telemetry-demo  [--dataset CODE] [--records N] [--threads N]
                  [--stall-threshold S]

every command also accepts:
  --metrics-out FILE   write the metrics-registry snapshot as JSON
  --trace-out FILE     record and write a Chrome/Perfetto trace
  --audit-out FILE     per-explanation flight-recorder JSON lines
                       (evaluate / telemetry-demo)
  --profile-out FILE   sample worker activity, write folded flamegraph
                       stacks ("engine/query;model/query COUNT")
  --metrics-port N     serve live /metrics, /healthz, /statusz,
                       /statusz?format=json, /profilez?seconds=N,
                       /timelinez, /sloz on 127.0.0.1:N (0 = ephemeral;
                       port printed on stdout)
  --metrics-linger S   keep the exporter up S seconds after the run
  --timeline-out FILE  windowed time-series deltas as JSON lines (arms the
                       1 s snapshot collector; see also /timelinez)
  --timeline-period S  collector period in seconds (default 1)
  --slo SPEC           register SLO policies, ';'-separated
                       NAME=METRIC,pQQ<THRESHOLD,window=SECONDS
                       [,objective=F] — burn rates on /sloz and slo/*

dataset codes: S-BR S-IA S-FZ S-DA S-DG S-AG S-WA T-AB D-IA D-DA D-DG D-WA
)";

/// Loads --input FILE or generates --dataset CODE.
Result<EmDataset> LoadDataset(const Flags& flags) {
  if (flags.Has("input")) {
    return ReadEmDataset(flags.GetString("input", ""), "user-data");
  }
  const std::string code = flags.GetString("dataset", "");
  if (code.empty()) {
    return Status::InvalidArgument("pass --dataset CODE or --input FILE");
  }
  LANDMARK_ASSIGN_OR_RETURN(MagellanDatasetSpec spec, FindMagellanSpec(code));
  MagellanGenOptions gen;
  gen.size_scale = flags.GetDouble("scale", 1.0);
  return GenerateMagellanDataset(spec, gen);
}

/// Trains the model selected by --model (default logreg).
Result<std::unique_ptr<EmModel>> TrainModel(const Flags& flags,
                                            const EmDataset& dataset,
                                            EmModelReport* report) {
  const std::string kind = flags.GetString("model", "logreg");
  if (kind == "logreg") {
    LANDMARK_ASSIGN_OR_RETURN(std::unique_ptr<LogRegEmModel> model,
                              LogRegEmModel::Train(dataset));
    if (report != nullptr) *report = model->report();
    return std::unique_ptr<EmModel>(std::move(model));
  }
  if (kind == "forest") {
    LANDMARK_ASSIGN_OR_RETURN(std::unique_ptr<ForestEmModel> model,
                              ForestEmModel::Train(dataset));
    if (report != nullptr) *report = model->report();
    return std::unique_ptr<EmModel>(std::move(model));
  }
  return Status::InvalidArgument("unknown --model: " + kind +
                                 " (use logreg or forest)");
}

Result<std::unique_ptr<PairExplainer>> MakeExplainer(const Flags& flags) {
  ExplainerOptions options;
  options.num_samples =
      static_cast<size_t>(flags.GetInt("samples", 384));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string technique = flags.GetString("technique", "auto");
  if (technique == "single") {
    return std::unique_ptr<PairExplainer>(
        new LandmarkExplainer(GenerationStrategy::kSingle, options));
  }
  if (technique == "double") {
    return std::unique_ptr<PairExplainer>(
        new LandmarkExplainer(GenerationStrategy::kDouble, options));
  }
  if (technique == "auto") {
    return std::unique_ptr<PairExplainer>(
        new LandmarkExplainer(GenerationStrategy::kAuto, options));
  }
  if (technique == "lime") {
    return std::unique_ptr<PairExplainer>(new LimeExplainer(options));
  }
  if (technique == "copy") {
    return std::unique_ptr<PairExplainer>(new MojitoCopyExplainer(options));
  }
  return Status::InvalidArgument("unknown --technique: " + technique);
}

int CmdGenerate(const Flags& flags) {
  const std::string output = flags.GetString("output", "");
  if (output.empty()) {
    std::cerr << "generate: pass --output FILE\n";
    return 1;
  }
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  Status st = WriteEmDataset(*dataset, output);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  EmDatasetStats stats = dataset->Stats();
  std::cout << "wrote " << stats.size << " pairs ("
            << FormatDouble(stats.match_percent, 2) << "% match) to "
            << output << "\n";
  return 0;
}

int CmdTrainEval(const Flags& flags) {
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  EmModelReport report;
  auto model = TrainModel(flags, *dataset, &report);
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  std::cout << "model: " << (*model)->name() << "\n"
            << "test accuracy:  " << FormatDouble(report.accuracy, 3) << "\n"
            << "test precision: " << FormatDouble(report.precision, 3) << "\n"
            << "test recall:    " << FormatDouble(report.recall, 3) << "\n"
            << "test F1:        " << FormatDouble(report.f1, 3) << "\n";
  auto weights = (*model)->AttributeWeights();
  if (weights.ok()) {
    std::cout << "attribute weights (model-internal):\n";
    const Schema& schema = *dataset->entity_schema();
    for (size_t a = 0; a < weights->size(); ++a) {
      std::cout << "  " << schema.attribute_name(a) << ": "
                << FormatDouble((*weights)[a], 4) << "\n";
    }
  }
  return 0;
}

int CmdExplain(const Flags& flags) {
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  const size_t pair_index = static_cast<size_t>(flags.GetInt("pair", 0));
  if (pair_index >= dataset->size()) {
    std::cerr << "--pair out of range (dataset has " << dataset->size()
              << " pairs)\n";
    return 1;
  }
  auto model = TrainModel(flags, *dataset, nullptr);
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  const PairRecord& pair = dataset->pair(pair_index);
  std::cout << pair.ToString() << "\n"
            << "model p(match) = "
            << FormatDouble((*model)->PredictProba(pair), 4) << "\n\n";
  if (flags.GetString("technique", "auto") == "anchor") {
    AnchorExplainer anchors;
    auto rules = anchors.Explain(**model, pair);
    if (!rules.ok()) {
      std::cerr << rules.status().ToString() << "\n";
      return 1;
    }
    for (const AnchorRule& rule : *rules) {
      std::cout << rule.ToString(*dataset->entity_schema()) << "\n";
    }
    return 0;
  }
  auto explainer = MakeExplainer(flags);
  if (!explainer.ok()) {
    std::cerr << explainer.status().ToString() << "\n";
    return 1;
  }
  auto explanations =
      ExplainerEngine::Serial().ExplainOne(**model, pair, **explainer);
  if (!explanations.ok()) {
    std::cerr << explanations.status().ToString() << "\n";
    return 1;
  }
  const size_t top = static_cast<size_t>(flags.GetInt("top", 10));
  for (const Explanation& exp : *explanations) {
    std::cout << exp.ToString(*dataset->entity_schema(), top) << "\n";
  }
  return 0;
}

int CmdCounterfactual(const Flags& flags) {
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  const size_t pair_index = static_cast<size_t>(flags.GetInt("pair", 0));
  if (pair_index >= dataset->size()) {
    std::cerr << "--pair out of range\n";
    return 1;
  }
  auto model = TrainModel(flags, *dataset, nullptr);
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  auto explainer = MakeExplainer(flags);
  if (!explainer.ok()) {
    std::cerr << explainer.status().ToString() << "\n";
    return 1;
  }
  const PairRecord& pair = dataset->pair(pair_index);
  auto explanations =
      ExplainerEngine::Serial().ExplainOne(**model, pair, **explainer);
  if (!explanations.ok()) {
    std::cerr << explanations.status().ToString() << "\n";
    return 1;
  }
  std::cout << pair.ToString() << "\n\n";
  const Schema& schema = *dataset->entity_schema();
  for (const Explanation& exp : *explanations) {
    auto cf = FindCounterfactual(**model, **explainer, exp, pair);
    if (!cf.ok()) {
      std::cerr << cf.status().ToString() << "\n";
      continue;
    }
    std::cout << exp.explainer_name;
    if (exp.landmark) std::cout << " (landmark=" << EntitySideName(*exp.landmark) << ")";
    std::cout << ": p " << FormatDouble(cf->probability_before, 3) << " -> "
              << FormatDouble(cf->probability_after, 3)
              << (cf->flipped ? "  FLIPPED by removing:" : "  could not flip")
              << "\n";
    if (cf->flipped) {
      for (size_t idx : cf->removed_features) {
        std::cout << "    " << exp.token_weights[idx].token.PrefixedName(schema)
                  << "\n";
      }
    }
  }
  return 0;
}

int CmdSummary(const Flags& flags) {
  auto dataset = LoadDataset(flags);
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }
  auto model = TrainModel(flags, *dataset, nullptr);
  if (!model.ok()) {
    std::cerr << model.status().ToString() << "\n";
    return 1;
  }
  auto explainer = MakeExplainer(flags);
  if (!explainer.ok()) {
    std::cerr << explainer.status().ToString() << "\n";
    return 1;
  }
  const size_t records = static_cast<size_t>(flags.GetInt("records", 40));
  Rng rng(7);
  std::vector<Explanation> all;
  for (MatchLabel label : {MatchLabel::kMatch, MatchLabel::kNonMatch}) {
    for (size_t idx : dataset->SampleByLabel(label, records / 2, rng)) {
      auto explanations = (*explainer)->Explain(**model, dataset->pair(idx));
      if (!explanations.ok()) continue;
      for (auto& e : *explanations) all.push_back(std::move(e));
    }
  }
  ExplanationSummary summary = SummarizeExplanations(
      all, dataset->entity_schema()->num_attributes());
  std::cout << summary.ToString(*dataset->entity_schema(),
                                static_cast<size_t>(flags.GetInt("top", 15)));
  return 0;
}

int CmdEvaluate(const Flags& flags, TelemetryScope& telemetry) {
  if (!flags.Has("dataset")) {
    std::cerr << "evaluate: pass --dataset CODE\n";
    return 1;
  }
  ExperimentConfig config = ExperimentConfig::FromFlags(flags);
  config.engine_options.audit_sink = telemetry.audit_sink();
  auto spec = FindMagellanSpec(flags.GetString("dataset", ""));
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  auto context = ExperimentContext::Create(*spec, config);
  if (!context.ok()) {
    std::cerr << context.status().ToString() << "\n";
    return 1;
  }
  std::vector<Technique> techniques = MakeTechniques(config.explainer_options);
  ExplainerEngine engine = config.MakeEngine();
  const bool print_stats = flags.GetBool("engine-stats", false);
  for (MatchLabel label : {MatchLabel::kMatch, MatchLabel::kNonMatch}) {
    std::cout << "\n--- "
              << (label == MatchLabel::kMatch ? "matching" : "non-matching")
              << " records ---\n";
    TablePrinter table({"technique", "token Acc", "token MAE", "w-Kendall",
                        "interest"});
    for (const Technique& technique : techniques) {
      if (technique.non_match_only && label == MatchLabel::kMatch) continue;
      ExplainBatchResult batch =
          ExplainRecords(context->model(), *technique.explainer,
                         context->dataset(), context->sample(label), engine);
      if (print_stats) {
        std::cerr << "[engine] " << technique.label << ": "
                  << batch.stats.ToString() << "\n";
      }
      auto token = EvaluateTokenRemoval(context->model(), *technique.explainer,
                                        context->dataset(), batch.records,
                                        config.token_removal);
      auto attr = EvaluateAttributeCorrelation(
          context->model(), context->dataset(), batch.records);
      auto interest = EvaluateInterest(context->model(), *technique.explainer,
                                       context->dataset(), batch.records,
                                       label, config.interest);
      if (!token.ok() || !attr.ok() || !interest.ok()) {
        std::cerr << "evaluation failed for " << technique.label << "\n";
        return 1;
      }
      table.AddRow(technique.label, {token->accuracy, token->mae,
                                     attr->mean_weighted_tau,
                                     interest->interest});
    }
    table.Print(std::cout);
  }
  if (print_stats) {
    std::cerr << "\n[telemetry] process-lifetime metrics registry:\n";
    TableSink sink(std::cerr);
    sink.Emit(MetricsRegistry::Global().Snapshot());
  }
  return 0;
}

/// Exercises the full pipeline on a small synthetic dataset, then dumps the
/// entire metrics registry as a human table — a one-command tour of every
/// metric the library publishes (and a quick way to produce example
/// --trace-out / --metrics-out files).
int CmdTelemetryDemo(const Flags& flags, TelemetryScope& telemetry) {
  auto spec = FindMagellanSpec(flags.GetString("dataset", "S-FZ"));
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  ExperimentConfig config = ExperimentConfig::FromFlags(flags);
  config.engine_options.audit_sink = telemetry.audit_sink();
  auto context = ExperimentContext::Create(*spec, config);
  if (!context.ok()) {
    std::cerr << context.status().ToString() << "\n";
    return 1;
  }
  const size_t records = static_cast<size_t>(flags.GetInt("records", 16));
  std::vector<size_t> indices;
  for (size_t i = 0; i < std::min(records, context->dataset().size()); ++i) {
    indices.push_back(i);
  }
  LandmarkExplainer explainer(GenerationStrategy::kDouble,
                              config.explainer_options);
  ExplainerEngine engine = config.MakeEngine();
  ExplainBatchResult batch = ExplainRecords(
      context->model(), explainer, context->dataset(), indices, engine);
  std::cout << "explained " << batch.records.size() << " of "
            << indices.size() << " pairs ("
            << batch.stats.ToString() << ")\n\n"
            << "metrics registry after the run:\n";
  TableSink sink(std::cout);
  sink.Emit(MetricsRegistry::Global().Snapshot());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 1;
  }
  const std::string command = argv[1];
  auto flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return 1;
  }
  // Started before the command runs so traces cover the whole run; the
  // destructor writes --metrics-out / --trace-out on every exit path.
  TelemetryScope telemetry = TelemetryScope::FromFlags(*flags);
  if (command == "generate") return CmdGenerate(*flags);
  if (command == "train-eval") return CmdTrainEval(*flags);
  if (command == "explain") return CmdExplain(*flags);
  if (command == "counterfactual") return CmdCounterfactual(*flags);
  if (command == "summary") return CmdSummary(*flags);
  if (command == "evaluate") return CmdEvaluate(*flags, telemetry);
  if (command == "telemetry-demo") return CmdTelemetryDemo(*flags, telemetry);
  std::cerr << "unknown command: " << command << "\n" << kUsage;
  return 1;
}

}  // namespace landmark_cli

int main(int argc, char** argv) { return landmark_cli::Main(argc, argv); }
