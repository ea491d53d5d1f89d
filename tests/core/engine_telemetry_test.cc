// Telemetry contract of the engine: registry counters advance in
// lockstep with the per-batch EngineStats, stage histograms fill, and
// turning tracing on never changes explanation output (bit-identical).

#include <gtest/gtest.h>

#include "core/engine/explainer_engine.h"
#include "core/landmark_explainer.h"
#include "data/em_dataset.h"
#include "em/heuristic_model.h"
#include "util/telemetry/metrics.h"
#include "util/telemetry/trace.h"

namespace landmark {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  return *Schema::Make({"name", "price"});
}

EmDataset SmallDataset() {
  auto schema = TestSchema();
  EmDataset dataset("engine-telemetry-test", schema);
  auto add = [&](const std::string& l0, const std::string& l1,
                 const std::string& r0, const std::string& r1,
                 MatchLabel label) {
    PairRecord p;
    p.id = static_cast<int64_t>(dataset.size());
    p.left = *Record::Make(schema, {Value::Of(l0), Value::Of(l1)});
    p.right = *Record::Make(schema, {Value::Of(r0), Value::Of(r1)});
    p.label = label;
    ASSERT_TRUE(dataset.Append(std::move(p)).ok());
  };
  add("alpha beta gamma", "10", "alpha beta delta", "10", MatchLabel::kMatch);
  add("epsilon zeta eta", "20", "epsilon zeta eta", "20", MatchLabel::kMatch);
  add("one two three", "30", "nine eight seven", "99", MatchLabel::kNonMatch);
  return dataset;
}

std::vector<const PairRecord*> AllPairs(const EmDataset& dataset) {
  std::vector<const PairRecord*> pairs;
  for (size_t i = 0; i < dataset.size(); ++i) {
    pairs.push_back(&dataset.pair(i));
  }
  return pairs;
}

ExplainerOptions FastOptions() {
  ExplainerOptions options;
  options.num_samples = 96;
  return options;
}

/// Bit-identical comparison — the determinism contract promises exact
/// equality whether or not telemetry is recording.
void ExpectIdenticalResults(const EngineBatchResult& a,
                            const EngineBatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].ok(), b.results[i].ok()) << "record " << i;
    if (!a.results[i].ok()) continue;
    const std::vector<Explanation>& ea = *a.results[i];
    const std::vector<Explanation>& eb = *b.results[i];
    ASSERT_EQ(ea.size(), eb.size()) << "record " << i;
    for (size_t e = 0; e < ea.size(); ++e) {
      EXPECT_EQ(ea[e].explainer_name, eb[e].explainer_name);
      EXPECT_EQ(ea[e].landmark, eb[e].landmark);
      EXPECT_EQ(ea[e].model_prediction, eb[e].model_prediction);
      EXPECT_EQ(ea[e].surrogate_intercept, eb[e].surrogate_intercept);
      EXPECT_EQ(ea[e].surrogate_r2, eb[e].surrogate_r2);
      ASSERT_EQ(ea[e].token_weights.size(), eb[e].token_weights.size());
      for (size_t t = 0; t < ea[e].token_weights.size(); ++t) {
        EXPECT_EQ(ea[e].token_weights[t].weight,
                  eb[e].token_weights[t].weight)
            << "record " << i << " explanation " << e << " token " << t;
      }
    }
  }
}

TEST(EngineTelemetryTest, RegistryCountersAdvanceWithEngineStats) {
  EmDataset dataset = SmallDataset();
  JaccardEmModel model;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, FastOptions());
  ExplainerEngine engine;

  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  EngineBatchResult batch =
      engine.ExplainBatch(model, AllPairs(dataset), explainer);
  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  // The registry carries process-lifetime totals; the delta across one
  // batch must equal that batch's EngineStats.
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("engine/batches"), 1u);
  EXPECT_EQ(delta("engine/records"), batch.stats.num_records);
  EXPECT_EQ(delta("engine/records_failed"), batch.stats.num_failed_records);
  EXPECT_EQ(delta("engine/units"), batch.stats.num_units);
  EXPECT_EQ(delta("engine/masks"), batch.stats.num_masks);
  EXPECT_EQ(delta("engine/model_queries"), batch.stats.num_model_queries);
  EXPECT_EQ(delta("engine/cache_hits"), batch.stats.cache_hits);
  EXPECT_GT(batch.stats.num_units, 0u);
}

TEST(EngineTelemetryTest, StageHistogramsFill) {
  EmDataset dataset = SmallDataset();
  JaccardEmModel model;
  LandmarkExplainer explainer(GenerationStrategy::kSingle, FastOptions());
  ExplainerEngine engine;

  const uint64_t before =
      MetricsRegistry::Global().GetHistogram("engine/batch_seconds").Count();
  engine.ExplainBatch(model, AllPairs(dataset), explainer);
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();

  for (const char* name :
       {"engine/plan_seconds", "engine/reconstruct_seconds",
        "engine/query_seconds", "engine/fit_seconds",
        "engine/batch_seconds", "model/query_latency"}) {
    const HistogramSnapshot* h = snapshot.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
    EXPECT_LE(h->p50, h->p99) << name;
  }
  EXPECT_EQ(snapshot.FindHistogram("engine/batch_seconds")->count,
            before + 1);
}

TEST(EngineTelemetryTest, TracingOnIsBitIdenticalToTracingOff) {
  EmDataset dataset = SmallDataset();
  JaccardEmModel model;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, FastOptions());
  std::vector<const PairRecord*> pairs = AllPairs(dataset);

  EngineOptions options;
  options.num_threads = 4;  // exercise the pool spans too
  ExplainerEngine engine(options);

  TraceRecorder::Global().Stop();
  TraceRecorder::Global().Clear();
  EngineBatchResult off = engine.ExplainBatch(model, pairs, explainer);

  TraceRecorder::Global().Start();
  EngineBatchResult on = engine.ExplainBatch(model, pairs, explainer);
  TraceRecorder::Global().Stop();

  EXPECT_GT(TraceRecorder::Global().num_events(), 0u);
  ExpectIdenticalResults(off, on);
  TraceRecorder::Global().Clear();
}

TEST(EngineTelemetryTest, TraceContainsAllFourStageSpans) {
  EmDataset dataset = SmallDataset();
  JaccardEmModel model;
  LandmarkExplainer explainer(GenerationStrategy::kSingle, FastOptions());
  ExplainerEngine engine;

  TraceRecorder::Global().Start();
  engine.ExplainBatch(model, AllPairs(dataset), explainer);
  TraceRecorder::Global().Stop();
  const std::string batch_json = TraceRecorder::Global().ToChromeTraceJson();
  TraceRecorder::Global().Clear();
  // A one-record call runs the same graph, so it opens the same spans.
  TraceRecorder::Global().Start();
  ASSERT_TRUE(engine.ExplainOne(model, dataset.pair(0), explainer).ok());
  TraceRecorder::Global().Stop();
  const std::string one_json = TraceRecorder::Global().ToChromeTraceJson();
  TraceRecorder::Global().Clear();
  for (const std::string* json : {&batch_json, &one_json}) {
    for (const char* span :
         {"engine/batch", "engine/plan", "engine/reconstruct", "engine/query",
          "engine/fit", "model/query"}) {
      EXPECT_NE(json->find(std::string("\"") + span + "\""),
                std::string::npos)
          << span;
    }
  }
}

}  // namespace
}  // namespace landmark
