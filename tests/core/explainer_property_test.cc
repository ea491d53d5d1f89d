// Property sweep: invariants that must hold for EVERY explainer technique on
// EVERY benchmark domain (parameterized gtest over the cross product).

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/landmark_explainer.h"
#include "core/lime_explainer.h"
#include "core/mojito_copy_explainer.h"
#include "datagen/magellan.h"
#include "em/heuristic_model.h"

namespace landmark {
namespace {

enum class TechniqueKind { kSingle, kDouble, kAuto, kLime, kCopy };

struct PropertyCase {
  TechniqueKind technique;
  std::string dataset_code;
};

std::unique_ptr<PairExplainer> MakeExplainer(TechniqueKind kind) {
  ExplainerOptions options;
  options.num_samples = 96;  // enough for invariants, fast in a sweep
  switch (kind) {
    case TechniqueKind::kSingle:
      return std::make_unique<LandmarkExplainer>(GenerationStrategy::kSingle,
                                                 options);
    case TechniqueKind::kDouble:
      return std::make_unique<LandmarkExplainer>(GenerationStrategy::kDouble,
                                                 options);
    case TechniqueKind::kAuto:
      return std::make_unique<LandmarkExplainer>(GenerationStrategy::kAuto,
                                                 options);
    case TechniqueKind::kLime:
      return std::make_unique<LimeExplainer>(options);
    case TechniqueKind::kCopy:
      return std::make_unique<MojitoCopyExplainer>(options);
  }
  return nullptr;
}

class ExplainerPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static EmDataset MakeDataset(const std::string& code) {
    MagellanDatasetSpec spec = *FindMagellanSpec(code);
    MagellanGenOptions gen;
    gen.size_scale = spec.size > 1000 ? 0.05 : 1.0;
    return *GenerateMagellanDataset(spec, gen);
  }
};

TEST_P(ExplainerPropertyTest, InvariantsHoldOnSampledRecords) {
  const PropertyCase& param = GetParam();
  EmDataset dataset = MakeDataset(param.dataset_code);
  JaccardEmModel model;  // transparent, fast, exercises token sensitivity
  std::unique_ptr<PairExplainer> explainer = MakeExplainer(param.technique);

  Rng rng(11);
  std::vector<size_t> sample;
  for (MatchLabel label : {MatchLabel::kMatch, MatchLabel::kNonMatch}) {
    for (size_t idx : dataset.SampleByLabel(label, 3, rng)) {
      sample.push_back(idx);
    }
  }
  ASSERT_FALSE(sample.empty());

  for (size_t idx : sample) {
    const PairRecord& pair = dataset.pair(idx);
    auto explanations = explainer->Explain(model, pair);
    if (!explanations.ok()) continue;  // dirty records may be all-null
    for (const Explanation& exp : *explanations) {
      SCOPED_TRACE("dataset " + param.dataset_code + " pair " +
                   std::to_string(idx) + " technique " + exp.explainer_name);

      // (1) Every weight and diagnostic is finite.
      for (const TokenWeight& tw : exp.token_weights) {
        EXPECT_TRUE(std::isfinite(tw.weight));
      }
      EXPECT_TRUE(std::isfinite(exp.surrogate_intercept));
      EXPECT_TRUE(std::isfinite(exp.surrogate_r2));

      // (2) model_prediction is the model on the all-active reconstruction.
      PairRecord all_active =
          explainer->Reconstruct(exp, pair, {}).ValueOrDie();
      EXPECT_NEAR(exp.model_prediction, model.PredictProba(all_active),
                  1e-12);

      // (3) model_prediction is a probability.
      EXPECT_GE(exp.model_prediction, 0.0);
      EXPECT_LE(exp.model_prediction, 1.0);

      // (4) Landmark techniques: the non-varying entity is reconstructed
      // bit-identically, whatever the mask.
      if (exp.landmark.has_value()) {
        std::vector<uint8_t> half(exp.size(), 1);
        for (size_t i = 0; i < half.size(); i += 2) half[i] = 0;
        PairRecord rec = explainer->Reconstruct(exp, pair, half).ValueOrDie();
        const EntitySide fixed = *exp.landmark;
        EXPECT_EQ(rec.entity(fixed), pair.entity(fixed));
      }

      // (5) Token provenance is valid: attributes in range, occurrences
      // unique per (side, attribute).
      std::set<std::tuple<int, size_t, size_t>> seen;
      for (const TokenWeight& tw : exp.token_weights) {
        EXPECT_LT(tw.token.attribute,
                  dataset.entity_schema()->num_attributes());
        EXPECT_TRUE(seen.insert({static_cast<int>(tw.token.side),
                                 tw.token.attribute, tw.token.occurrence})
                        .second);
      }

      // (6) The surrogate's all-active prediction is a sane probability
      // estimate (within a generous band around [0,1]).
      const double p_hat = exp.SurrogatePrediction();
      EXPECT_GT(p_hat, -0.6);
      EXPECT_LT(p_hat, 1.6);
    }
  }
}

std::string TechniqueName(TechniqueKind kind) {
  switch (kind) {
    case TechniqueKind::kSingle: return "Single";
    case TechniqueKind::kDouble: return "Double";
    case TechniqueKind::kAuto: return "Auto";
    case TechniqueKind::kLime: return "Lime";
    case TechniqueKind::kCopy: return "Copy";
  }
  return "?";
}

// Without it gtest prints the struct as raw bytes (std::string's heap
// pointer included), and gtest_discover_tests bakes that into every ctest
// name, so each build would list different test names.
void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << TechniqueName(c.technique) << " on " << c.dataset_code;
}

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string code = info.param.dataset_code;
  for (char& c : code) {
    if (c == '-') c = '_';
  }
  return TechniqueName(info.param.technique) + "_" + code;
}

std::vector<PropertyCase> AllCases() {
  std::vector<PropertyCase> cases;
  for (TechniqueKind technique :
       {TechniqueKind::kSingle, TechniqueKind::kDouble, TechniqueKind::kAuto,
        TechniqueKind::kLime, TechniqueKind::kCopy}) {
    for (const char* code : {"S-BR", "S-FZ", "S-AG", "T-AB", "D-IA", "D-WA"}) {
      cases.push_back(PropertyCase{technique, code});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTechniquesAndDomains, ExplainerPropertyTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace landmark
