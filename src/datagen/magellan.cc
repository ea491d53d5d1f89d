#include "datagen/magellan.h"

#include <algorithm>
#include <cmath>

#include "datagen/corruptions.h"

namespace landmark {

const std::vector<MagellanDatasetSpec>& MagellanBenchmark() {
  static const auto& specs = *new std::vector<MagellanDatasetSpec>{
      {"S-BR", "BeerAdvo-RateBeer", "Structured", MagellanDomain::kBeer, 450,
       15.11, false, 101},
      {"S-IA", "iTunes-Amazon", "Structured", MagellanDomain::kMusic, 539,
       24.49, false, 102},
      {"S-FZ", "Fodors-Zagats", "Structured", MagellanDomain::kRestaurant, 946,
       11.63, false, 103},
      {"S-DA", "DBLP-ACM", "Structured", MagellanDomain::kCitationClean, 12363,
       17.96, false, 104},
      {"S-DG", "DBLP-GoogleScholar", "Structured",
       MagellanDomain::kCitationNoisy, 28707, 18.63, false, 105},
      {"S-AG", "Amazon-Google", "Structured",
       MagellanDomain::kProductAmazonGoogle, 11460, 10.18, false, 106},
      {"S-WA", "Walmart-Amazon", "Structured",
       MagellanDomain::kProductWalmartAmazon, 10242, 9.39, false, 107},
      {"T-AB", "Abt-Buy", "Textual", MagellanDomain::kProductAbtBuy, 9575,
       10.74, false, 108},
      {"D-IA", "iTunes-Amazon", "Dirty", MagellanDomain::kMusic, 539, 24.49,
       true, 109},
      {"D-DA", "DBLP-ACM", "Dirty", MagellanDomain::kCitationClean, 12363,
       17.96, true, 110},
      {"D-DG", "DBLP-GoogleScholar", "Dirty", MagellanDomain::kCitationNoisy,
       28707, 18.63, true, 111},
      {"D-WA", "Walmart-Amazon", "Dirty", MagellanDomain::kProductWalmartAmazon,
       10242, 9.39, true, 112},
  };
  return specs;
}

Result<MagellanDatasetSpec> FindMagellanSpec(const std::string& code) {
  for (const auto& spec : MagellanBenchmark()) {
    if (spec.code == code) return spec;
  }
  return Status::NotFound("no Magellan dataset with code: " + code);
}

namespace {

/// The "cleaner" source's corruption (left entities): mild.
CorruptionOptions LeftCorruption() {
  CorruptionOptions opts;
  opts.typo_prob = 0.01;
  opts.drop_prob = 0.03;
  opts.abbreviate_prob = 0.01;
  opts.swap_prob = 0.02;
  opts.numeric_jitter_prob = 0.05;
  opts.null_prob = 0.01;
  return opts;
}

/// The "messier" source's corruption (right entities): the defaults.
CorruptionOptions RightCorruption() { return CorruptionOptions{}; }

}  // namespace

Result<EmDataset> GenerateMagellanDataset(const MagellanDatasetSpec& spec,
                                          const MagellanGenOptions& options) {
  if (!std::isfinite(options.size_scale) || options.size_scale <= 0.0) {
    return Status::InvalidArgument("size_scale must be finite and > 0");
  }
  if (static_cast<double>(spec.size) * options.size_scale >
      kMaxScaledDatasetSize) {
    return Status::InvalidArgument(
        "size_scale too large: the scaled dataset would exceed " +
        std::to_string(static_cast<size_t>(kMaxScaledDatasetSize)) + " pairs");
  }
  const size_t size = std::max<size_t>(
      4, static_cast<size_t>(std::lround(spec.size * options.size_scale)));
  const size_t num_match = std::max<size_t>(
      2,
      static_cast<size_t>(std::lround(size * spec.match_percent / 100.0)));
  if (num_match >= size) {
    return Status::InvalidArgument("match percent leaves no non-matches");
  }
  const size_t num_non_match = size - num_match;

  Rng rng(spec.seed);
  std::unique_ptr<EntityGenerator> gen = MakeEntityGenerator(spec.domain);
  EmDataset dataset(spec.code, gen->schema());

  const CorruptionOptions left_corruption = LeftCorruption();
  const CorruptionOptions right_corruption = RightCorruption();
  std::vector<PairRecord> pairs;
  pairs.reserve(size);

  // Matching pairs: two independently corrupted descriptions of one entity.
  for (size_t i = 0; i < num_match; ++i) {
    Record base = gen->Generate(rng);
    PairRecord pair;
    pair.left = CorruptEntity(base, left_corruption, rng);
    pair.right = CorruptEntity(base, right_corruption, rng);
    pair.label = MatchLabel::kMatch;
    pairs.push_back(std::move(pair));
  }

  // Non-matching pairs: hard negatives (siblings) and random negatives.
  for (size_t i = 0; i < num_non_match; ++i) {
    Record base = gen->Generate(rng);
    Record other = rng.NextBernoulli(options.hard_negative_fraction)
                       ? gen->GenerateSibling(base, rng)
                       : gen->Generate(rng);
    PairRecord pair;
    pair.left = CorruptEntity(base, left_corruption, rng);
    pair.right = CorruptEntity(other, right_corruption, rng);
    pair.label = MatchLabel::kNonMatch;
    pairs.push_back(std::move(pair));
  }

  if (spec.dirty) {
    for (auto& pair : pairs) {
      MakeDirtyPair(pair, options.dirty_move_prob, /*target_attr=*/0, rng);
    }
  }

  rng.Shuffle(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    pairs[i].id = static_cast<int64_t>(i);
    LANDMARK_RETURN_NOT_OK(dataset.Append(std::move(pairs[i])));
  }
  return dataset;
}

}  // namespace landmark
