#include "em/feature_extractor.h"

#include "util/check.h"

namespace landmark {

FeatureExtractor::FeatureExtractor(std::shared_ptr<const Schema> entity_schema)
    : schema_(std::move(entity_schema)) {
  LANDMARK_CHECK(schema_ != nullptr);
  names_.reserve(num_features());
  for (const auto& attr : schema_->attribute_names()) {
    for (size_t k = 0; k < kNumAttributeFeatures; ++k) {
      names_.push_back(
          attr + "_" +
          std::string(AttributeFeatureKindName(
              static_cast<AttributeFeatureKind>(k))));
    }
  }
}

Vector FeatureExtractor::Extract(const PairRecord& pair) const {
  Vector features(num_features());
  ExtractInto(pair, features.data());
  return features;
}

void FeatureExtractor::ExtractInto(const PairRecord& pair, double* out) const {
  LANDMARK_CHECK(pair.left.schema() != nullptr &&
                 pair.left.schema()->Equals(*schema_));
  LANDMARK_CHECK(pair.right.schema() != nullptr &&
                 pair.right.schema()->Equals(*schema_));
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    ComputeAllAttributeFeatures(pair.left.value(a), pair.right.value(a),
                                out + a * kNumAttributeFeatures);
  }
}

void FeatureExtractor::ExtractPrepared(const PreparedPairBatch& prepared,
                                       size_t pair_index, double* out) const {
  LANDMARK_CHECK(prepared.num_attributes() == schema_->num_attributes());
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const PreparedValue left = prepared.value(pair_index, a, EntitySide::kLeft);
    const PreparedValue right =
        prepared.value(pair_index, a, EntitySide::kRight);
    double* row = out + a * kNumAttributeFeatures;
    for (size_t k = 0; k < kNumAttributeFeatures; ++k) {
      const auto kind = static_cast<AttributeFeatureKind>(k);
      // Monge-Elkan reads the batch's Jaro-Winkler tables.
      row[k] = kind == AttributeFeatureKind::kMongeElkan
                   ? prepared.MongeElkan(pair_index, a)
                   : ComputeAttributeFeature(kind, left, right);
    }
  }
}

Matrix FeatureExtractor::ExtractBatch(const EmDataset& dataset,
                                      const std::vector<size_t>& indices,
                                      ThreadPool& pool) const {
  Matrix x(indices.size(), num_features());
  pool.ParallelFor(indices.size(), [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      ExtractInto(dataset.pair(indices[r]), x.row(r));
    }
  });
  return x;
}

}  // namespace landmark
