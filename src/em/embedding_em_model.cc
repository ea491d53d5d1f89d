#include "em/embedding_em_model.h"

#include <cmath>

#include "text/tokenize.h"
#include "util/check.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/trace.h"
#include "util/timer.h"

namespace landmark {

namespace {

uint64_t HashToken(const std::string& token, uint64_t seed) {
  // FNV-1a, mixed with the model's hash seed.
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (char c : token) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Vector EmbeddingEmModel::EmbedToken(const std::string& token) const {
  Rng rng(HashToken(token, options_.hash_seed));
  Vector v(options_.embedding_dim);
  double norm_sq = 0.0;
  for (double& x : v) {
    x = rng.NextGaussian();
    norm_sq += x * x;
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (double& x : v) x *= inv;
  }
  return v;
}

Vector EmbeddingEmModel::EmbedTokens(
    const std::vector<std::string>& tokens) const {
  Vector v(options_.embedding_dim, 0.0);
  if (tokens.empty()) return v;
  for (const auto& token : tokens) {
    Vector e = EmbedToken(token);
    for (size_t i = 0; i < v.size(); ++i) v[i] += e[i];
  }
  const double inv = 1.0 / static_cast<double>(tokens.size());
  for (double& x : v) x *= inv;
  return v;
}

Vector EmbeddingEmModel::EmbedValue(const Value& value) const {
  if (value.is_null()) return Vector(options_.embedding_dim, 0.0);
  return EmbedTokens(NormalizedTokens(value.text()));
}

Vector EmbeddingEmModel::Compose(const PairRecord& pair) const {
  LANDMARK_CHECK(pair.left.schema()->Equals(*schema_));
  const size_t k = options_.embedding_dim;
  Vector features;
  features.reserve(schema_->num_attributes() * 2 * k);
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    Vector l = EmbedValue(pair.left.value(a));
    Vector r = EmbedValue(pair.right.value(a));
    for (size_t i = 0; i < k; ++i) features.push_back(std::abs(l[i] - r[i]));
    for (size_t i = 0; i < k; ++i) features.push_back(l[i] * r[i]);
  }
  return features;
}

Result<std::unique_ptr<EmbeddingEmModel>> EmbeddingEmModel::Train(
    const EmDataset& dataset, const EmbeddingEmModelOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  if (options.embedding_dim == 0) {
    return Status::InvalidArgument("embedding_dim must be > 0");
  }
  auto model = std::unique_ptr<EmbeddingEmModel>(
      new EmbeddingEmModel(dataset.entity_schema(), options));

  Rng rng(options.split_seed);
  LANDMARK_ASSIGN_OR_RETURN(
      EmDatasetSplit split,
      dataset.Split(options.valid_fraction, options.test_fraction, rng));
  ThreadPool pool(DefaultThreadCount());

  Matrix x_train(split.train.size(),
                 dataset.entity_schema()->num_attributes() * 2 *
                     options.embedding_dim);
  pool.ParallelFor(split.train.size(), [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      Vector features = model->Compose(dataset.pair(split.train[r]));
      std::copy(features.begin(), features.end(), x_train.row(r));
    }
  });
  std::vector<int> y_train;
  y_train.reserve(split.train.size());
  for (size_t i : split.train) {
    y_train.push_back(dataset.pair(i).is_match() ? 1 : 0);
  }

  LANDMARK_RETURN_NOT_OK(model->mlp_.Fit(x_train, y_train, options.mlp));

  model->report_ = HeldOutReport(*model, dataset, split.test, pool);
  return model;
}

Vector EmbeddingEmModel::ComposePrepared(const PreparedPairBatch& prepared,
                                         size_t pair_index) const {
  const size_t k = options_.embedding_dim;
  Vector features;
  features.reserve(schema_->num_attributes() * 2 * k);
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const PreparedValue& pl =
        prepared.value(pair_index, a, EntitySide::kLeft);
    const PreparedValue& pr =
        prepared.value(pair_index, a, EntitySide::kRight);
    Vector l = pl.is_null() ? Vector(k, 0.0) : EmbedTokens(pl.tokens->tokens);
    Vector r = pr.is_null() ? Vector(k, 0.0) : EmbedTokens(pr.tokens->tokens);
    for (size_t i = 0; i < k; ++i) features.push_back(std::abs(l[i] - r[i]));
    for (size_t i = 0; i < k; ++i) features.push_back(l[i] * r[i]);
  }
  return features;
}

double EmbeddingEmModel::PredictProba(const PairRecord& pair) const {
  return mlp_.PredictProba(Compose(pair));
}

void EmbeddingEmModel::PredictProbaPrepared(const PreparedPairBatch& prepared,
                                            size_t begin, size_t end,
                                            double* out) const {
  if (begin == end) return;
  LANDMARK_TRACE_SPAN("model/query");
  LANDMARK_ACTIVITY("model/query");
  Timer timer;
  for (size_t i = begin; i < end; ++i) {
    out[i - begin] = mlp_.PredictProba(ComposePrepared(prepared, i));
  }
  ReportQueryTelemetry(end - begin, timer.ElapsedSeconds());
}

}  // namespace landmark
