#ifndef LANDMARK_EM_FEATURE_EXTRACTOR_H_
#define LANDMARK_EM_FEATURE_EXTRACTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "data/em_dataset.h"
#include "data/pair_record.h"
#include "data/schema.h"
#include "em/features.h"
#include "em/prepared_batch.h"
#include "ml/linalg.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace landmark {

/// \brief Maps a PairRecord to a dense feature vector: for every attribute
/// of the entity schema, kNumAttributeFeatures similarity scores between the
/// left and right value.
///
/// Feature order: attribute-major, i.e. all features of attribute 0, then
/// attribute 1, ... This layout lets the EM model aggregate per-attribute
/// weights (needed by the paper's attribute-based evaluation).
class FeatureExtractor {
 public:
  explicit FeatureExtractor(std::shared_ptr<const Schema> entity_schema);

  const std::shared_ptr<const Schema>& entity_schema() const {
    return schema_;
  }

  size_t num_features() const {
    return schema_->num_attributes() * kNumAttributeFeatures;
  }

  /// "<attr>_<feature>" for feature index `i`.
  const std::string& feature_name(size_t i) const { return names_.at(i); }
  const std::vector<std::string>& feature_names() const { return names_; }

  /// Index of the attribute that feature `i` derives from.
  size_t attribute_of_feature(size_t i) const {
    return i / kNumAttributeFeatures;
  }

  /// Extracts the feature vector for one pair.
  Vector Extract(const PairRecord& pair) const;

  /// Extracts one pair into out[0, num_features()), tokenizing each value
  /// once (no per-row Vector allocation).
  void ExtractInto(const PairRecord& pair, double* out) const;

  /// Prepared fast path: extracts pair `pair_index` of `prepared` into
  /// out[0, num_features()) from its resolved token profiles, without
  /// tokenizing, and Monge-Elkan from the batch's Jaro-Winkler tables.
  /// Bit-identical to ExtractInto on the same pair.
  void ExtractPrepared(const PreparedPairBatch& prepared, size_t pair_index,
                       double* out) const;

  /// Extracts a design matrix for the given pair indices of `dataset`, one
  /// ExtractInto per row on `pool`; the same matrix at any pool size.
  Matrix ExtractBatch(const EmDataset& dataset,
                      const std::vector<size_t>& indices,
                      ThreadPool& pool) const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<std::string> names_;
};

}  // namespace landmark

#endif  // LANDMARK_EM_FEATURE_EXTRACTOR_H_
