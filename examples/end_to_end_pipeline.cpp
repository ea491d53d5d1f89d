// The full EM pipeline the paper's introduction situates itself in:
//
//   two entity collections  ->  blocking  ->  matching model  ->  matches
//                                                 |
//                                                 v
//                                     Landmark Explanation per decision
//
// This example builds two overlapping product catalogs, blocks them with the
// token blocker, scores candidates with a trained EM model, and explains the
// most confident match and the most borderline candidate.
//
// Run:  ./end_to_end_pipeline [--catalog-size 300] [--threads N]
//                             [--show-metrics]
//                             [--metrics-out FILE] [--trace-out FILE]

#include <algorithm>
#include <iostream>

#include "core/landmark_explanation.h"
#include "datagen/corruptions.h"
#include "datagen/domains.h"
#include "datagen/magellan.h"
#include "em/blocking.h"
#include "util/flags.h"
#include "util/string_util.h"
#include "util/telemetry/telemetry.h"

namespace {

using namespace landmark;  // NOLINT: example code

int Run(const Flags& flags) {
  const size_t catalog_size =
      static_cast<size_t>(flags.GetInt("catalog-size", 300));

  // --- Build two overlapping catalogs (the "Walmart" and "Amazon" sides).
  auto generator = MakeEntityGenerator(MagellanDomain::kProductWalmartAmazon);
  Rng rng(2024);
  CorruptionOptions corruption;  // the second source describes items noisily
  std::vector<Record> left_catalog, right_catalog;
  size_t true_overlaps = 0;
  for (size_t i = 0; i < catalog_size; ++i) {
    Record product = generator->Generate(rng);
    left_catalog.push_back(product);
    if (rng.NextBernoulli(0.3)) {  // ~30% of products exist in both catalogs
      right_catalog.push_back(CorruptEntity(product, corruption, rng));
      ++true_overlaps;
    }
    if (rng.NextBernoulli(0.7)) {  // plus right-only products
      right_catalog.push_back(generator->Generate(rng));
    }
  }
  std::cout << "left catalog: " << left_catalog.size()
            << " products, right catalog: " << right_catalog.size() << " ("
            << true_overlaps << " true overlaps)\n";

  // --- Stage 1: blocking.
  TokenBlocker blocker;
  auto candidates = blocker.Block(left_catalog, right_catalog).ValueOrDie();
  const double reduction =
      1.0 - static_cast<double>(candidates.size()) /
                (static_cast<double>(left_catalog.size()) *
                 static_cast<double>(right_catalog.size()));
  std::cout << "blocking: " << candidates.size() << " candidate pairs ("
            << FormatDouble(100.0 * reduction, 1)
            << "% of the cross product pruned)\n";

  // --- Stage 2: matching model (trained on the corresponding benchmark).
  EmDataset train =
      GenerateMagellanDataset(FindMagellanSpec("S-WA").ValueOrDie())
          .ValueOrDie();
  auto model = LogRegEmModel::Train(train).ValueOrDie();
  std::cout << "matcher F1 on its benchmark test split: "
            << FormatDouble(model->report().f1, 3) << "\n\n";

  struct Scored {
    PairRecord pair;
    double probability;
  };
  std::vector<Scored> scored;
  for (const CandidatePair& c : candidates) {
    PairRecord pair;
    pair.id = static_cast<int64_t>(scored.size());
    pair.left = left_catalog[c.left_index];
    pair.right = right_catalog[c.right_index];
    const double p = model->PredictProba(pair);
    pair.label = p >= 0.5 ? MatchLabel::kMatch : MatchLabel::kNonMatch;
    scored.push_back({pair, p});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.probability > b.probability;
  });
  size_t matches = 0;
  for (const auto& s : scored) matches += s.probability >= 0.5;
  std::cout << "matching: " << matches << " predicted matches\n\n";

  // --- Stage 3: explain the decisions that matter, through the engine:
  // both records go out as ONE batch, so their units share the call's
  // token cache and (with --threads > 1) the worker pool.
  const Schema& schema = *generator->schema();
  LandmarkExplainer explainer(GenerationStrategy::kAuto);
  EngineOptions engine_options;
  engine_options.num_threads =
      static_cast<size_t>(flags.GetInt("threads", 1));
  ExplainerEngine engine(engine_options);

  // The most borderline candidate is where a human reviewer needs help.
  auto borderline = std::min_element(
      scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
        return std::abs(a.probability - 0.5) < std::abs(b.probability - 0.5);
      });

  std::vector<const PairRecord*> to_explain;
  if (!scored.empty()) to_explain.push_back(&scored.front().pair);
  if (borderline != scored.end()) to_explain.push_back(&borderline->pair);
  EngineBatchResult batch = engine.ExplainBatch(*model, to_explain, explainer);

  size_t slot = 0;
  if (!scored.empty()) {
    std::cout << "=== most confident match (p = "
              << FormatDouble(scored.front().probability, 3) << ") ===\n"
              << scored.front().pair.ToString() << "\n";
    const auto& explanations = batch.results[slot++];
    if (explanations.ok()) {
      std::cout << (*explanations)[0].ToString(schema, 5) << "\n";
    }
  }

  if (borderline != scored.end()) {
    std::cout << "=== most borderline candidate (p = "
              << FormatDouble(borderline->probability, 3) << ") ===\n"
              << borderline->pair.ToString() << "\n";
    const auto& explanations = batch.results[slot++];
    if (explanations.ok()) {
      for (const auto& exp : *explanations) {
        std::cout << exp.ToString(schema, 5) << "\n";
      }
    }
  }
  std::cout << "engine: " << batch.stats.ToString() << "\n";

  if (flags.GetBool("show-metrics", false)) {
    std::cout << "\nmetrics registry after the run:\n";
    TableSink sink(std::cout);
    sink.Emit(MetricsRegistry::Global().Snapshot());
  }
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
