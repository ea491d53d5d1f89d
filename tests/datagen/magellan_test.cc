#include "datagen/magellan.h"

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_io.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace landmark {
namespace {

TEST(MagellanBenchmarkTest, HasAllTwelveDatasetsOfTable1) {
  const auto& specs = MagellanBenchmark();
  ASSERT_EQ(specs.size(), 12u);
  // Spot-check the published sizes and match rates.
  auto br = *FindMagellanSpec("S-BR");
  EXPECT_EQ(br.size, 450u);
  EXPECT_DOUBLE_EQ(br.match_percent, 15.11);
  auto dg = *FindMagellanSpec("S-DG");
  EXPECT_EQ(dg.size, 28707u);
  EXPECT_DOUBLE_EQ(dg.match_percent, 18.63);
  auto wa = *FindMagellanSpec("D-WA");
  EXPECT_TRUE(wa.dirty);
  EXPECT_EQ(wa.size, 10242u);
  EXPECT_FALSE(FindMagellanSpec("X-YZ").ok());
}

TEST(MagellanBenchmarkTest, CodesAreUnique) {
  std::set<std::string> codes;
  for (const auto& spec : MagellanBenchmark()) {
    EXPECT_TRUE(codes.insert(spec.code).second) << spec.code;
  }
}

std::vector<std::string> MagellanCodes() {
  std::vector<std::string> codes;
  for (const auto& spec : MagellanBenchmark()) codes.push_back(spec.code);
  return codes;
}

/// Parameterised by the Table 1 code rather than the spec struct: gtest
/// prints a struct without operator<< as its raw bytes, heap pointers
/// included, so the test names would change from one process to the next.
class GenerateDatasetTest : public ::testing::TestWithParam<std::string> {
 protected:
  MagellanDatasetSpec Spec() const { return *FindMagellanSpec(GetParam()); }
};

TEST_P(GenerateDatasetTest, SizeAndMatchRateFollowTable1) {
  MagellanDatasetSpec spec = Spec();
  MagellanGenOptions options;
  options.size_scale = spec.size > 2000 ? 0.1 : 1.0;  // keep tests fast
  EmDataset dataset = *GenerateMagellanDataset(spec, options);
  EmDatasetStats stats = dataset.Stats();
  const size_t expected_size = static_cast<size_t>(
      std::lround(spec.size * options.size_scale));
  EXPECT_NEAR(static_cast<double>(stats.size),
              static_cast<double>(expected_size), 2.0);
  EXPECT_NEAR(stats.match_percent, spec.match_percent, 1.5);
}

TEST_P(GenerateDatasetTest, MatchesOverlapMoreThanNonMatches) {
  MagellanDatasetSpec spec = Spec();
  MagellanGenOptions options;
  options.size_scale = spec.size > 2000 ? 0.05 : 1.0;
  EmDataset dataset = *GenerateMagellanDataset(spec, options);

  auto mean_jaccard = [&](MatchLabel label) {
    double total = 0.0;
    size_t n = 0;
    for (size_t i : dataset.IndicesWithLabel(label)) {
      const PairRecord& p = dataset.pair(i);
      for (size_t a = 0; a < p.left.num_attributes(); ++a) {
        if (p.left.value(a).is_null() || p.right.value(a).is_null()) continue;
        total += JaccardSimilarity(NormalizedTokens(p.left.value(a).text()),
                                   NormalizedTokens(p.right.value(a).text()));
        ++n;
      }
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  EXPECT_GT(mean_jaccard(MatchLabel::kMatch),
            mean_jaccard(MatchLabel::kNonMatch) + 0.15);
}

TEST_P(GenerateDatasetTest, DeterministicInSeed) {
  MagellanDatasetSpec spec = Spec();
  MagellanGenOptions options;
  options.size_scale = spec.size > 2000 ? 0.02 : 0.5;
  EmDataset a = *GenerateMagellanDataset(spec, options);
  EmDataset b = *GenerateMagellanDataset(spec, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.pair(i).left, b.pair(i).left);
    EXPECT_EQ(a.pair(i).right, b.pair(i).right);
    EXPECT_EQ(a.pair(i).label, b.pair(i).label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, GenerateDatasetTest, ::testing::ValuesIn(MagellanCodes()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(GenerateDatasetTest, DirtyDatasetsHaveValuesInPrimaryAttribute) {
  // The dirty transform moves non-primary values into attribute 0 and leaves
  // nulls behind; structured variants have (almost) no nulls beyond the
  // corruption noise.
  MagellanDatasetSpec clean = *FindMagellanSpec("S-IA");
  MagellanDatasetSpec dirty = *FindMagellanSpec("D-IA");
  EmDataset clean_ds = *GenerateMagellanDataset(clean);
  EmDataset dirty_ds = *GenerateMagellanDataset(dirty);

  auto null_fraction = [](const EmDataset& d) {
    size_t nulls = 0, cells = 0;
    for (const auto& p : d.pairs()) {
      for (size_t a = 1; a < p.left.num_attributes(); ++a) {
        nulls += p.left.value(a).is_null();
        nulls += p.right.value(a).is_null();
        cells += 2;
      }
    }
    return static_cast<double>(nulls) / static_cast<double>(cells);
  };
  EXPECT_LT(null_fraction(clean_ds), 0.1);
  EXPECT_GT(null_fraction(dirty_ds), 0.35);  // ~50% move probability
}

TEST(GenerateDatasetTest, DistinctSeedsGiveDistinctData) {
  MagellanDatasetSpec spec = *FindMagellanSpec("S-BR");
  MagellanDatasetSpec other = spec;
  other.seed = spec.seed + 1;
  EmDataset a = *GenerateMagellanDataset(spec);
  EmDataset b = *GenerateMagellanDataset(other);
  size_t differing = 0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    differing += !(a.pair(i).left == b.pair(i).left);
  }
  EXPECT_GT(differing, a.size() / 2);
}

TEST(GenerateDatasetTest, RejectsBadScale) {
  MagellanGenOptions options;
  options.size_scale = 0.0;
  EXPECT_FALSE(
      GenerateMagellanDataset(*FindMagellanSpec("S-BR"), options).ok());
}

TEST(GenerateDatasetTest, RejectsNonFiniteAndOversizedScale) {
  const MagellanDatasetSpec spec = *FindMagellanSpec("S-BR");
  MagellanGenOptions options;
  // `--scale nan` / `inf` reach here through strtod; 1e300 would overflow
  // std::lround. Each must be a clean InvalidArgument, not a throw.
  for (double scale : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300}) {
    options.size_scale = scale;
    Result<EmDataset> dataset = GenerateMagellanDataset(spec, options);
    ASSERT_FALSE(dataset.ok()) << "scale " << scale;
    EXPECT_TRUE(dataset.status().IsInvalidArgument()) << "scale " << scale;
  }
  options.size_scale = 0.5;
  Result<EmDataset> half = GenerateMagellanDataset(spec, options);
  ASSERT_TRUE(half.ok()) << half.status().ToString();
  EXPECT_EQ(half->size(), static_cast<size_t>(std::lround(spec.size * 0.5)));
}

TEST(GenerateDatasetTest, RoundTripsThroughCsv) {
  MagellanDatasetSpec spec = *FindMagellanSpec("S-BR");
  EmDataset dataset = *GenerateMagellanDataset(spec);
  auto loaded = EmDatasetFromCsv(EmDatasetToCsv(dataset), spec.code);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_EQ(loaded->pair(i).left, dataset.pair(i).left);
    EXPECT_EQ(loaded->pair(i).label, dataset.pair(i).label);
  }
}

}  // namespace
}  // namespace landmark
