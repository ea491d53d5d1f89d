// Shared fixtures of the engine invariant suites (engine_fast_path_test,
// engine_scheduler_test): one generated dataset, the five bundled models
// trained on it, the four explainers, a string-path model wrapper, and
// exact comparison of engine outputs.

#ifndef LANDMARK_TESTS_CORE_ENGINE_TEST_UTIL_H_
#define LANDMARK_TESTS_CORE_ENGINE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine/explainer_engine.h"
#include "core/landmark_explainer.h"
#include "core/lime_explainer.h"
#include "core/mojito_copy_explainer.h"
#include "datagen/magellan.h"
#include "em/embedding_em_model.h"
#include "em/forest_em_model.h"
#include "em/heuristic_model.h"
#include "em/logreg_em_model.h"
#include "em/rule_em_model.h"

namespace landmark::engine_test {

/// One realistic generated dataset shared by every model (training real
/// models needs more rows than a hand-rolled fixture provides).
inline const EmDataset& TestDataset() {
  static const EmDataset* dataset = [] {
    MagellanGenOptions gen;
    gen.size_scale = 0.25;
    return new EmDataset(
        *GenerateMagellanDataset(*FindMagellanSpec("S-AG"), gen));
  }();
  return *dataset;
}

/// Trained once per model type, shared across all parameter combinations.
inline const EmModel& TestModel(const std::string& kind) {
  static auto* models = new std::map<std::string, std::unique_ptr<EmModel>>();
  auto it = models->find(kind);
  if (it != models->end()) return *it->second;
  std::unique_ptr<EmModel> model;
  if (kind == "jaccard-em") {
    model = std::make_unique<JaccardEmModel>();
  } else if (kind == "logreg-em") {
    model = std::move(LogRegEmModel::Train(TestDataset())).ValueOrDie();
  } else if (kind == "forest-em") {
    model = std::move(ForestEmModel::Train(TestDataset())).ValueOrDie();
  } else if (kind == "rule-em") {
    model = std::move(RuleEmModel::Train(TestDataset())).ValueOrDie();
  } else {
    EmbeddingEmModelOptions options;
    options.mlp.hidden = {16};
    options.mlp.epochs = 3;  // equivalence needs a scorer, not a good one
    model = std::move(EmbeddingEmModel::Train(TestDataset(), options))
                .ValueOrDie();
  }
  return *models->emplace(kind, std::move(model)).first->second;
}

/// gtest parameter names for the bundled model kinds ("logreg-em" ->
/// "logreg_em").
inline std::string ModelParamName(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

inline const std::vector<const char*>& ExplainerKinds() {
  static const std::vector<const char*> kinds = {
      "landmark-single", "landmark-double", "lime", "mojito-copy"};
  return kinds;
}

inline std::unique_ptr<PairExplainer> MakeExplainer(
    const std::string& kind, const ExplainerOptions& options) {
  if (kind == "landmark-single") {
    return std::make_unique<LandmarkExplainer>(GenerationStrategy::kSingle,
                                               options);
  }
  if (kind == "landmark-double") {
    return std::make_unique<LandmarkExplainer>(GenerationStrategy::kDouble,
                                               options);
  }
  if (kind == "lime") return std::make_unique<LimeExplainer>(options);
  return std::make_unique<MojitoCopyExplainer>(options);
}

/// The first `count` pairs of the test dataset.
inline std::vector<const PairRecord*> TestPairs(size_t count) {
  std::vector<const PairRecord*> pairs;
  for (size_t i = 0; i < count && i < TestDataset().size(); ++i) {
    pairs.push_back(&TestDataset().pair(i));
  }
  return pairs;
}

/// The string path as a test-only reference: forwards PredictProba to the
/// wrapped model and overrides nothing else, so the engine's prepared query
/// lands in EmModel's fallback, which scores the raw reconstructed pairs
/// one PredictProba at a time.
class StringPathModel : public EmModel {
 public:
  explicit StringPathModel(const EmModel& inner) : inner_(inner) {}
  double PredictProba(const PairRecord& pair) const override {
    return inner_.PredictProba(pair);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const EmModel& inner_;
};

/// Bit-identical comparison of two explanation lists — the contract is
/// exact equality of every double, not approximate agreement.
inline void ExpectIdenticalExplanations(const std::vector<Explanation>& a,
                                        const std::vector<Explanation>& b,
                                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].explainer_name, b[e].explainer_name) << label;
    EXPECT_EQ(a[e].landmark, b[e].landmark) << label;
    EXPECT_EQ(a[e].model_prediction, b[e].model_prediction)
        << label << " explanation " << e;
    EXPECT_EQ(a[e].surrogate_intercept, b[e].surrogate_intercept)
        << label << " explanation " << e;
    EXPECT_EQ(a[e].surrogate_r2, b[e].surrogate_r2)
        << label << " explanation " << e;
    ASSERT_EQ(a[e].token_weights.size(), b[e].token_weights.size()) << label;
    for (size_t t = 0; t < a[e].token_weights.size(); ++t) {
      EXPECT_EQ(a[e].token_weights[t].token.text,
                b[e].token_weights[t].token.text)
          << label << " explanation " << e << " token " << t;
      EXPECT_EQ(a[e].token_weights[t].weight, b[e].token_weights[t].weight)
          << label << " explanation " << e << " token " << t;
    }
  }
}

/// Same outcome per record: both ok with identical explanations, or both
/// failed with the same status code.
inline void ExpectIdenticalRecord(
    const Result<std::vector<Explanation>>& a,
    const Result<std::vector<Explanation>>& b, const std::string& label) {
  ASSERT_EQ(a.ok(), b.ok()) << label;
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << label;
    return;
  }
  ExpectIdenticalExplanations(*a, *b, label);
}

inline void ExpectIdenticalResults(const EngineBatchResult& a,
                                   const EngineBatchResult& b,
                                   const std::string& label) {
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    ExpectIdenticalRecord(a.results[i], b.results[i],
                          label + " record " + std::to_string(i));
  }
}

/// The work-accounting counters: equal work regardless of how the graph was
/// scheduled.
inline void ExpectIdenticalCounters(const EngineStats& a, const EngineStats& b,
                                    const std::string& label) {
  EXPECT_EQ(a.num_records, b.num_records) << label;
  EXPECT_EQ(a.num_failed_records, b.num_failed_records) << label;
  EXPECT_EQ(a.num_units, b.num_units) << label;
  EXPECT_EQ(a.num_masks, b.num_masks) << label;
  EXPECT_EQ(a.num_model_queries, b.num_model_queries) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.token_cache_hits, b.token_cache_hits) << label;
  EXPECT_EQ(a.token_cache_misses, b.token_cache_misses) << label;
}

/// The unit lines of an audit stream — the trailer carries wall-clock stage
/// latencies, which legitimately differ between runs.
inline std::vector<std::string> AuditUnitLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> units;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"type\":\"unit\"", 0) == 0) units.push_back(line);
  }
  return units;
}

}  // namespace landmark::engine_test

#endif  // LANDMARK_TESTS_CORE_ENGINE_TEST_UTIL_H_
