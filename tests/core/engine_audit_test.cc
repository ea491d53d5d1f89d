// Observation must not change behaviour: ExplainBatch with the audit sink
// attached (and with the HTTP exporter scraping concurrently) must be
// bit-identical to a bare run, across thread counts — the same contract
// engine_fast_path_test pins for the query fast path. The audit stream
// itself is checked for the append-order determinism promise: unit lines
// are byte-identical across thread counts, ordinals are monotone, and
// every planned unit produced exactly one line. Histogram exemplars must
// point back into that stream: each OpenMetrics `ordinal="N"` names the
// `"unit":N` line of the batch that recorded it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/engine/explainer_engine.h"
#include "core/engine/quality.h"
#include "core/landmark_explainer.h"
#include "datagen/magellan.h"
#include "em/heuristic_model.h"
#include "util/telemetry/audit.h"
#include "util/telemetry/http_exporter.h"
#include "util/telemetry/metrics.h"

namespace landmark {
namespace {

const EmDataset& TestDataset() {
  static const EmDataset* dataset = [] {
    MagellanGenOptions gen;
    gen.size_scale = 0.25;
    return new EmDataset(
        *GenerateMagellanDataset(*FindMagellanSpec("S-AG"), gen));
  }();
  return *dataset;
}

void ExpectIdenticalResults(const EngineBatchResult& a,
                            const EngineBatchResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].ok(), b.results[i].ok())
        << label << " record " << i;
    if (!a.results[i].ok()) continue;
    const std::vector<Explanation>& ea = *a.results[i];
    const std::vector<Explanation>& eb = *b.results[i];
    ASSERT_EQ(ea.size(), eb.size()) << label << " record " << i;
    for (size_t e = 0; e < ea.size(); ++e) {
      EXPECT_EQ(ea[e].model_prediction, eb[e].model_prediction)
          << label << " record " << i << " explanation " << e;
      EXPECT_EQ(ea[e].surrogate_intercept, eb[e].surrogate_intercept)
          << label << " record " << i << " explanation " << e;
      EXPECT_EQ(ea[e].surrogate_r2, eb[e].surrogate_r2)
          << label << " record " << i << " explanation " << e;
      ASSERT_EQ(ea[e].token_weights.size(), eb[e].token_weights.size());
      for (size_t t = 0; t < ea[e].token_weights.size(); ++t) {
        EXPECT_EQ(ea[e].token_weights[t].weight, eb[e].token_weights[t].weight)
            << label << " record " << i << " explanation " << e << " token "
            << t;
      }
    }
  }
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The unit lines only — the batch trailer carries wall-clock stage
/// latencies, which legitimately differ between runs.
std::vector<std::string> UnitLines(const std::vector<std::string>& lines) {
  std::vector<std::string> units;
  for (const std::string& line : lines) {
    if (line.rfind("{\"type\":\"unit\"", 0) == 0) units.push_back(line);
  }
  return units;
}

/// Every audit ordinal referenced from an OpenMetrics exemplar annotation.
std::vector<uint64_t> ExemplarOrdinals(const std::string& body) {
  std::vector<uint64_t> ordinals;
  const std::string needle = "# {ordinal=\"";
  for (size_t pos = body.find(needle); pos != std::string::npos;
       pos = body.find(needle, pos + needle.size())) {
    const size_t start = pos + needle.size();
    const size_t end = body.find('"', start);
    if (end == std::string::npos) break;
    ordinals.push_back(std::stoull(body.substr(start, end - start)));
  }
  return ordinals;
}

TEST(EngineAuditTest, AuditAndExporterDoNotChangeExplanations) {
  const JaccardEmModel model;
  const EmDataset& dataset = TestDataset();
  std::vector<const PairRecord*> pairs;
  for (size_t i = 0; i < 4 && i < dataset.size(); ++i) {
    pairs.push_back(&dataset.pair(i));
  }
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, explainer_options);

  // Baseline: no observation.
  EngineBatchResult baseline =
      ExplainerEngine(EngineOptions{}).ExplainBatch(model, pairs, explainer);

  auto exporter = HttpExporter::Start({});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();

  std::vector<std::string> unit_lines_by_threads;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const std::string path = ::testing::TempDir() + "/engine_audit_" +
                             std::to_string(threads) + ".jsonl";
    auto sink = AuditSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();

    EngineOptions options;
    options.num_threads = threads;
    options.audit_sink = sink->get();
    EngineBatchResult audited =
        ExplainerEngine(options).ExplainBatch(model, pairs, explainer);

    // Scrape mid-test so the exporter thread provably ran concurrently.
    int status = 0;
    auto scrape = HttpGetLoopback((*exporter)->port(), "/metrics", &status);
    ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
    EXPECT_EQ(status, 200);
    EXPECT_NE(scrape->find("landmark_explain_quality_r2_count"),
              std::string::npos);

    const std::string label = "threads=" + std::to_string(threads);
    ExpectIdenticalResults(baseline, audited, label);

    sink->reset();  // flush before reading
    const std::vector<std::string> lines = ReadLines(path);
    const std::vector<std::string> units = UnitLines(lines);
    EXPECT_EQ(units.size(), audited.stats.num_units) << label;
    EXPECT_EQ(lines.back().rfind("{\"type\":\"batch\"", 0), 0u) << label;
    for (size_t u = 0; u < units.size(); ++u) {
      const std::string prefix =
          "{\"type\":\"unit\",\"unit\":" + std::to_string(u) + ",";
      EXPECT_EQ(units[u].rfind(prefix, 0), 0u)
          << label << " line " << u << ": " << units[u];
      EXPECT_NE(units[u].find("\"explainer\":\"landmark-double\""),
                std::string::npos)
          << label;
      EXPECT_NE(units[u].find("\"top_tokens\":["), std::string::npos)
          << label;
    }
    unit_lines_by_threads.push_back(
        [&units] {
          std::string joined;
          for (const std::string& line : units) joined += line + "\n";
          return joined;
        }());
  }
  // The determinism contract extends to the audit stream: unit lines are
  // byte-identical regardless of thread count.
  ASSERT_EQ(unit_lines_by_threads.size(), 2u);
  EXPECT_EQ(unit_lines_by_threads[0], unit_lines_by_threads[1]);
}

TEST(EngineAuditTest, SingleRecordPathWritesOneUnitPerExplanation) {
  const JaccardEmModel model;
  const EmDataset& dataset = TestDataset();
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 32;
  LandmarkExplainer explainer(GenerationStrategy::kSingle, explainer_options);

  const std::string path = ::testing::TempDir() + "/engine_audit_one.jsonl";
  auto sink = AuditSink::Open(path);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();

  EngineOptions options;
  options.audit_sink = sink->get();
  ExplainerEngine engine(options);
  auto direct = engine.ExplainOne(model, dataset.pair(0), explainer);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  sink->reset();
  const std::vector<std::string> units = UnitLines(ReadLines(path));
  ASSERT_EQ(units.size(), direct->size());
  EXPECT_NE(units[0].find("\"record_index\":0"), std::string::npos);
}

TEST(EngineAuditTest, ExemplarOrdinalsResolveToAuditUnitLines) {
  const JaccardEmModel model;
  const EmDataset& dataset = TestDataset();
  std::vector<const PairRecord*> pairs;
  for (size_t i = 0; i < 4 && i < dataset.size(); ++i) {
    pairs.push_back(&dataset.pair(i));
  }
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, explainer_options);

  // Exemplars outlive a batch; drop the ones earlier tests in this binary
  // left behind, so every remaining ordinal belongs to the sink below.
  MetricsRegistry::Global().Reset();
  const std::string path =
      ::testing::TempDir() + "/engine_audit_exemplars.jsonl";
  auto sink = AuditSink::Open(path);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  EngineOptions options;
  options.num_threads = 4;
  options.audit_sink = sink->get();
  ExplainerEngine(options).ExplainBatch(model, pairs, explainer);
  sink->reset();  // flush before reading
  const std::vector<std::string> units = UnitLines(ReadLines(path));
  ASSERT_FALSE(units.empty());

  const std::string body =
      ToOpenMetricsText(MetricsRegistry::Global().Snapshot());
  EXPECT_NE(body.find("# EOF"), std::string::npos);
  const std::vector<uint64_t> ordinals = ExemplarOrdinals(body);
  ASSERT_FALSE(ordinals.empty());
  for (uint64_t ordinal : ordinals) {
    ASSERT_LT(ordinal, units.size());
    const std::string prefix =
        "{\"type\":\"unit\",\"unit\":" + std::to_string(ordinal) + ",";
    EXPECT_EQ(units[ordinal].rfind(prefix, 0), 0u) << units[ordinal];
  }
}

TEST(ExplanationQualityTest, SignalsMatchHandComputation) {
  Explanation explanation;
  explanation.explainer_name = "landmark-single";
  explanation.model_prediction = 0.8;  // match verdict
  explanation.surrogate_r2 = 0.9;
  explanation.surrogate_intercept = 0.4;
  // Two tokens push towards match, one against (the interesting one under
  // a match verdict), one is ridge dust below epsilon.
  for (double weight : {0.6, 0.3, -0.2, 1e-15}) {
    TokenWeight tw;
    tw.token.text = "t";
    tw.weight = weight;
    explanation.token_weights.push_back(tw);
  }
  const std::vector<double> predictions = {0.8, 0.6, 0.3, 0.9};

  const ExplanationQuality quality =
      ComputeExplanationQuality(explanation, predictions);
  EXPECT_EQ(quality.weighted_r2, 0.9);
  EXPECT_EQ(quality.intercept, 0.4);
  EXPECT_EQ(quality.match_fraction, 0.75);  // 3 of 4 at or above 0.5
  EXPECT_EQ(quality.interesting_tokens, 1u);
  EXPECT_FALSE(quality.low_r2);
  EXPECT_FALSE(quality.degenerate_neighborhood);
  // All four tokens fit in top_k=5, so the share is the full mass.
  EXPECT_EQ(quality.top_weight_share, 1.0);
}

TEST(ExplanationQualityTest, DegenerateAndLowR2Flags) {
  Explanation explanation;
  explanation.model_prediction = 0.1;  // non-match verdict
  explanation.surrogate_r2 = std::nan("");
  TokenWeight tw;
  tw.weight = 0.5;  // pushes towards match: interesting under non-match
  explanation.token_weights.push_back(tw);

  // Neighbourhood never reaches the match class.
  const ExplanationQuality quality =
      ComputeExplanationQuality(explanation, {0.1, 0.2, 0.3});
  EXPECT_TRUE(std::isnan(quality.weighted_r2));
  EXPECT_TRUE(quality.low_r2);
  EXPECT_EQ(quality.match_fraction, 0.0);
  EXPECT_TRUE(quality.degenerate_neighborhood);
  EXPECT_EQ(quality.interesting_tokens, 1u);
}

}  // namespace
}  // namespace landmark
