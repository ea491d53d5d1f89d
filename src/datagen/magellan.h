#ifndef LANDMARK_DATAGEN_MAGELLAN_H_
#define LANDMARK_DATAGEN_MAGELLAN_H_

#include <string>
#include <vector>

#include "data/em_dataset.h"
#include "datagen/domains.h"
#include "util/result.h"

namespace landmark {

/// \brief One row of the paper's Table 1: a benchmark dataset to generate.
struct MagellanDatasetSpec {
  std::string code;         // "S-BR", "D-WA", ...
  std::string source_name;  // "BeerAdvo-RateBeer"
  std::string type;         // "Structured" | "Textual" | "Dirty"
  MagellanDomain domain;
  size_t size;              // number of pairs
  double match_percent;     // 100 * matches / size
  bool dirty;               // apply the Magellan dirty transformation
  uint64_t seed;            // generation seed (deterministic output)
};

/// The 12 datasets of the paper's Table 1 with the published sizes and
/// match rates.
const std::vector<MagellanDatasetSpec>& MagellanBenchmark();

/// Looks a spec up by its code ("S-DA"); NotFound when absent.
Result<MagellanDatasetSpec> FindMagellanSpec(const std::string& code);

/// Largest dataset GenerateMagellanDataset builds: `spec.size * size_scale`
/// above this is InvalidArgument. It is 100x the largest Table 1 dataset
/// (S-DG, 28,707 pairs) rounded up, and keeps the size far from where
/// std::lround overflows.
inline constexpr double kMaxScaledDatasetSize = 3e6;

/// \brief Options controlling the synthetic pair construction.
struct MagellanGenOptions {
  /// Multiplies the spec size (0.1 generates a 10% subsample-scale dataset
  /// for fast tests; match rate is preserved). Must be finite and > 0, and
  /// the scaled size must not exceed kMaxScaledDatasetSize.
  double size_scale = 1.0;
  /// Fraction of non-matching pairs built from domain siblings (hard
  /// negatives); the remainder pairs two unrelated entities.
  double hard_negative_fraction = 0.9;
  /// Probability that the dirty transform moves an attribute value into the
  /// primary attribute (per attribute, per side).
  double dirty_move_prob = 0.5;
};

/// Generates the dataset described by `spec`. Deterministic in spec.seed.
Result<EmDataset> GenerateMagellanDataset(const MagellanDatasetSpec& spec,
                                          const MagellanGenOptions& options = {});

}  // namespace landmark

#endif  // LANDMARK_DATAGEN_MAGELLAN_H_
