#ifndef LANDMARK_EM_EMBEDDING_EM_MODEL_H_
#define LANDMARK_EM_EMBEDDING_EM_MODEL_H_

#include <memory>
#include <string>

#include "data/em_dataset.h"
#include "em/em_model.h"
#include "ml/mlp.h"

namespace landmark {

/// \brief Options for the neural EM model.
struct EmbeddingEmModelOptions {
  /// Token embedding dimensionality (hashed random projections).
  size_t embedding_dim = 16;
  MlpOptions mlp;
  double valid_fraction = 0.2;
  double test_fraction = 0.2;
  uint64_t split_seed = 17;
  uint64_t hash_seed = 0x5bd1e995;
};

/// \brief A miniature DeepER: distributed tuple representations + a neural
/// classifier, built entirely from scratch.
///
/// Each token is mapped to a deterministic pseudo-random unit vector
/// (feature hashing — the offline stand-in for pretrained word embeddings,
/// which this environment does not have). An attribute embeds as the mean
/// of its token vectors; each attribute pair contributes the element-wise
/// |l - r| and l ⊙ r composition vectors (DeepER's similarity composition);
/// the concatenation feeds a ReLU MLP.
///
/// For the explainers this is just another opaque EmModel — and a genuinely
/// nonlinear, sub-symbolic one, closing the loop on the paper's motivation
/// (explaining deep EM models).
class EmbeddingEmModel : public EmModel {
 public:
  static Result<std::unique_ptr<EmbeddingEmModel>> Train(
      const EmDataset& dataset, const EmbeddingEmModelOptions& options = {});

  double PredictProba(const PairRecord& pair) const override;
  void PredictProbaPrepared(const PreparedPairBatch& prepared, size_t begin,
                            size_t end, double* out) const override;
  std::string name() const override { return "embedding-em"; }

  const EmModelReport& report() const { return report_; }
  size_t num_parameters() const { return mlp_.num_parameters(); }

  /// Deterministic unit embedding of one token (exposed for tests).
  Vector EmbedToken(const std::string& token) const;

  /// The pair's composed feature vector (exposed for tests).
  Vector Compose(const PairRecord& pair) const;

 private:
  EmbeddingEmModel(std::shared_ptr<const Schema> schema,
                   const EmbeddingEmModelOptions& options)
      : schema_(std::move(schema)), options_(options) {}

  /// Mean token embedding of one attribute value (zero vector when null).
  Vector EmbedValue(const Value& value) const;

  /// Mean token embedding of an already-tokenized value (zero when empty).
  Vector EmbedTokens(const std::vector<std::string>& tokens) const;

  /// Compose() from resolved token profiles instead of raw values.
  Vector ComposePrepared(const PreparedPairBatch& prepared,
                         size_t pair_index) const;

  std::shared_ptr<const Schema> schema_;
  EmbeddingEmModelOptions options_;
  Mlp mlp_;
  EmModelReport report_;
};

}  // namespace landmark

#endif  // LANDMARK_EM_EMBEDDING_EM_MODEL_H_
