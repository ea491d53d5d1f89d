// Invariants of the engine's one executor, the per-unit task graph
// (docs/architecture.md, "Scheduling"), for every bundled model type and
// explainer:
//   - explanations and work counters are bit-identical across thread
//     counts {1, 4, 8}, with the prediction memo on or off;
//   - ExplainBatch agrees with per-record ExplainOne, and the side APIs
//     (ExplainWithLandmark, ExplainDirection) with the matching batch unit;
//   - the audit unit lines are byte-identical across thread counts;
//   - a failing record fails alone, with the same status at every thread
//     count and on the one-record path.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "util/telemetry/audit.h"

namespace landmark {
namespace {

using engine_test::AuditUnitLines;
using engine_test::ExpectIdenticalCounters;
using engine_test::ExpectIdenticalExplanations;
using engine_test::ExpectIdenticalRecord;
using engine_test::ExpectIdenticalResults;
using engine_test::ExplainerKinds;
using engine_test::MakeExplainer;
using engine_test::ModelParamName;
using engine_test::TestModel;
using engine_test::TestPairs;

class EngineSchedulerTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineSchedulerTest, BitIdenticalAnyRun) {
  const EmModel& model = TestModel(GetParam());
  const std::vector<const PairRecord*> pairs = TestPairs(3);
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;

  for (const char* explainer_kind : ExplainerKinds()) {
    std::unique_ptr<PairExplainer> explainer =
        MakeExplainer(explainer_kind, explainer_options);
    const std::string kind_label =
        std::string(GetParam()) + "/" + explainer_kind;
    const EngineBatchResult reference =
        ExplainerEngine().ExplainBatch(model, pairs, *explainer);
    ASSERT_EQ(reference.stats.num_failed_records, 0u) << kind_label;
    for (bool memo : {true, false}) {
      EngineOptions options;
      options.cache_predictions = memo;
      const std::string memo_label = kind_label + (memo ? "/memo" : "/nomemo");
      const EngineBatchResult serial =
          ExplainerEngine(options).ExplainBatch(model, pairs, *explainer);
      // The memo only saves queries; the explanations never change.
      ExpectIdenticalResults(serial, reference, memo_label);
      if (!memo) {
        EXPECT_EQ(serial.stats.num_model_queries, serial.stats.num_masks)
            << memo_label;
        EXPECT_EQ(serial.stats.cache_hits, 0u) << memo_label;
      }
      for (size_t threads : {size_t{4}, size_t{8}}) {
        options.num_threads = threads;
        const std::string label =
            memo_label + "/threads=" + std::to_string(threads);
        const EngineBatchResult parallel =
            ExplainerEngine(options).ExplainBatch(model, pairs, *explainer);
        ExpectIdenticalResults(parallel, serial, label);
        ExpectIdenticalCounters(parallel.stats, serial.stats, label);
        EXPECT_GT(parallel.stats.wall_seconds, 0.0) << label;
        EXPECT_GT(parallel.stats.critical_path_seconds, 0.0) << label;
      }
      // Batch = per-record: a one-record call reproduces its batch record.
      options.num_threads = 4;
      const ExplainerEngine engine(options);
      for (size_t i = 0; i < pairs.size(); ++i) {
        ExpectIdenticalRecord(engine.ExplainOne(model, *pairs[i], *explainer),
                              serial.results[i],
                              memo_label + "/ExplainOne record " +
                                  std::to_string(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBundledModels, EngineSchedulerTest,
                         ::testing::Values("jaccard-em", "logreg-em",
                                           "forest-em", "rule-em",
                                           "embedding-em"),
                         ModelParamName);

TEST(EngineOneRecordTest, SideApisMatchBatchUnits) {
  // ExplainWithLandmark and ExplainDirection run one pre-planned unit; each
  // must equal the unit of the same side in a batch explanation.
  const EmModel& model = TestModel("logreg-em");
  const std::vector<const PairRecord*> pairs = TestPairs(3);
  ExplainerOptions options;
  options.num_samples = 64;
  const LandmarkExplainer single(GenerationStrategy::kSingle, options);
  const LandmarkExplainer dbl(GenerationStrategy::kDouble, options);
  const MojitoCopyExplainer copy(options);
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  const ExplainerEngine engine(engine_options);

  for (const LandmarkExplainer* explainer : {&single, &dbl}) {
    const EngineBatchResult batch =
        engine.ExplainBatch(model, pairs, *explainer);
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_TRUE(batch.results[i].ok());
      ASSERT_EQ(batch.results[i]->size(), 2u);
      for (size_t u = 0; u < 2; ++u) {
        const EntitySide side = u == 0 ? EntitySide::kLeft : EntitySide::kRight;
        auto one = explainer->ExplainWithLandmark(model, *pairs[i], side);
        ASSERT_TRUE(one.ok()) << one.status().ToString();
        ExpectIdenticalExplanations(
            {*one}, {(*batch.results[i])[u]},
            explainer->name() + " record " + std::to_string(i) + " unit " +
                std::to_string(u));
      }
    }
  }

  const EngineBatchResult batch = engine.ExplainBatch(model, pairs, copy);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_TRUE(batch.results[i].ok());
    for (const Explanation& unit : *batch.results[i]) {
      // A copy unit's landmark is its source side.
      ASSERT_TRUE(unit.landmark.has_value());
      auto one = copy.ExplainDirection(model, *pairs[i], *unit.landmark);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      ExpectIdenticalExplanations({*one}, {unit},
                                  "mojito-copy record " + std::to_string(i));
    }
  }
}

TEST(EngineSchedulerAuditTest, AuditUnitStreamByteIdenticalAcrossThreadCounts) {
  const EmModel& model = TestModel("logreg-em");
  const std::vector<const PairRecord*> pairs = TestPairs(4);
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, explainer_options);

  auto run = [&](size_t threads) {
    const std::string path = ::testing::TempDir() + "/scheduler_audit_" +
                             std::to_string(threads) + ".jsonl";
    size_t num_units = 0;
    {
      auto sink = AuditSink::Open(path);
      EXPECT_TRUE(sink.ok()) << path;
      EngineOptions options;
      options.num_threads = threads;
      options.audit_sink = sink->get();
      num_units = ExplainerEngine(options)
                      .ExplainBatch(model, pairs, explainer)
                      .stats.num_units;
    }
    std::vector<std::string> units = AuditUnitLines(path);
    EXPECT_EQ(units.size(), num_units) << "threads=" << threads;
    std::remove(path.c_str());
    return units;
  };

  const std::vector<std::string> serial = run(1);
  ASSERT_FALSE(serial.empty());
  for (size_t threads : {size_t{4}, size_t{8}}) {
    const std::vector<std::string> parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "threads=" << threads << " line "
                                        << i;
    }
  }
}

TEST(EngineSchedulerFailureTest, FailedRecordsIdenticalAcrossThreadCounts) {
  // A mixed batch — explainable records around one with no tokens at all —
  // must fail that record alone, with the same status and the same work
  // counters at every thread count, and ExplainOne must fail it too.
  auto schema = *Schema::Make({"name", "price"});
  EmDataset dataset("scheduler-mixed", schema);
  auto add = [&](const std::string& l0, const std::string& r0) {
    PairRecord p;
    p.id = static_cast<int64_t>(dataset.size());
    p.left = *Record::Make(schema, {Value::Of(l0), Value::Of("10")});
    p.right = *Record::Make(schema, {Value::Of(r0), Value::Of("10")});
    p.label = MatchLabel::kMatch;
    ASSERT_TRUE(dataset.Append(std::move(p)).ok());
  };
  add("alpha beta gamma", "alpha beta delta");
  PairRecord empty;  // no tokens on either side: unexplainable
  empty.id = 1;
  empty.left = Record::Empty(schema);
  empty.right = Record::Empty(schema);
  ASSERT_TRUE(dataset.Append(std::move(empty)).ok());
  add("one two three", "one two four");

  std::vector<const PairRecord*> pairs;
  for (size_t i = 0; i < dataset.size(); ++i) pairs.push_back(&dataset.pair(i));

  JaccardEmModel model;
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, explainer_options);

  const EngineBatchResult serial =
      ExplainerEngine().ExplainBatch(model, pairs, explainer);
  EXPECT_EQ(serial.stats.num_failed_records, 1u);
  ASSERT_EQ(serial.results.size(), 3u);
  EXPECT_TRUE(serial.results[0].ok());
  EXPECT_FALSE(serial.results[1].ok());
  EXPECT_TRUE(serial.results[2].ok());
  for (size_t threads : {size_t{4}, size_t{8}}) {
    EngineOptions options;
    options.num_threads = threads;
    const EngineBatchResult parallel =
        ExplainerEngine(options).ExplainBatch(model, pairs, explainer);
    const std::string label = "threads=" + std::to_string(threads);
    ExpectIdenticalResults(parallel, serial, label);
    ExpectIdenticalCounters(parallel.stats, serial.stats, label);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    ExpectIdenticalRecord(
        ExplainerEngine::Serial().ExplainOne(model, *pairs[i], explainer),
        serial.results[i], "ExplainOne record " + std::to_string(i));
  }
}

}  // namespace
}  // namespace landmark
