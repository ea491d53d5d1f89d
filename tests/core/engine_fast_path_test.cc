// The engine's prepared query path against the string path: for every
// bundled model type and explainer, ExplainBatch must be bit-identical to
// the same batch scored through StringPathModel, a test-only wrapper with
// no PredictProbaPrepared override (EmModel's fallback scores the raw
// reconstructed pairs), across thread counts and with the prediction memo
// on or off (docs/architecture.md, "Query fast path").

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine_test_util.h"

namespace landmark {
namespace {

using engine_test::ExplainerKinds;
using engine_test::ExpectIdenticalResults;
using engine_test::MakeExplainer;
using engine_test::ModelParamName;
using engine_test::StringPathModel;
using engine_test::TestModel;
using engine_test::TestPairs;

class EngineFastPathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineFastPathTest, FastPathBitIdenticalToStringPath) {
  const EmModel& model = TestModel(GetParam());
  const StringPathModel string_path(model);
  const std::vector<const PairRecord*> pairs = TestPairs(3);
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;

  for (const char* explainer_kind : ExplainerKinds()) {
    std::unique_ptr<PairExplainer> explainer =
        MakeExplainer(explainer_kind, explainer_options);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (bool memo : {true, false}) {
        EngineOptions options;
        options.num_threads = threads;
        options.cache_predictions = memo;
        const ExplainerEngine engine(options);

        const std::string label = std::string(GetParam()) + "/" +
                                  explainer_kind + "/threads=" +
                                  std::to_string(threads) +
                                  (memo ? "/memo" : "/nomemo");
        EngineBatchResult fast = engine.ExplainBatch(model, pairs, *explainer);
        EngineBatchResult slow =
            engine.ExplainBatch(string_path, pairs, *explainer);
        ExpectIdenticalResults(fast, slow, label);
        // The token cache engaged: strings recur across perturbations.
        EXPECT_GT(fast.stats.token_cache_misses, 0u) << label;
        EXPECT_GT(fast.stats.token_cache_hits, 0u) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBundledModels, EngineFastPathTest,
                         ::testing::Values("jaccard-em", "logreg-em",
                                           "forest-em", "rule-em",
                                           "embedding-em"),
                         ModelParamName);

}  // namespace
}  // namespace landmark
