#include "em/logreg_em_model.h"

#include <cmath>

#include "util/arena.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/trace.h"
#include "util/timer.h"

namespace landmark {

Result<std::unique_ptr<LogRegEmModel>> LogRegEmModel::Train(
    const EmDataset& dataset, const LogRegEmModelOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  auto model = std::unique_ptr<LogRegEmModel>(
      new LogRegEmModel(dataset.entity_schema()));

  Rng rng(options.split_seed);
  LANDMARK_ASSIGN_OR_RETURN(
      EmDatasetSplit split,
      dataset.Split(options.valid_fraction, options.test_fraction, rng));
  ThreadPool pool(DefaultThreadCount());

  Matrix x_train =
      model->extractor_->ExtractBatch(dataset, split.train, pool);
  std::vector<int> y_train;
  y_train.reserve(split.train.size());
  for (size_t i : split.train) {
    y_train.push_back(dataset.pair(i).is_match() ? 1 : 0);
  }

  LANDMARK_RETURN_NOT_OK(model->scaler_.Fit(x_train));
  LANDMARK_RETURN_NOT_OK(model->scaler_.TransformInPlace(x_train));
  LANDMARK_RETURN_NOT_OK(
      model->classifier_.Fit(x_train, y_train, options.logreg));

  model->report_ = HeldOutReport(*model, dataset, split.test, pool);
  return model;
}

double LogRegEmModel::PredictProba(const PairRecord& pair) const {
  Vector features = extractor_->Extract(pair);
  Status st = scaler_.TransformInPlace(features);
  LANDMARK_CHECK_MSG(st.ok(), st.ToString().c_str());
  return classifier_.PredictProba(features);
}

void LogRegEmModel::PredictProbaPrepared(const PreparedPairBatch& prepared,
                                         size_t begin, size_t end,
                                         double* out) const {
  if (begin == end) return;
  LANDMARK_TRACE_SPAN("model/query");
  LANDMARK_ACTIVITY("model/query");
  Timer timer;
  // Arena-backed scratch row: no heap traffic per range call (the engine
  // issues one of these per unit).
  ArenaFrame frame;
  const size_t width = extractor_->num_features();
  double* features = frame.arena().AllocateDoubles(width);
  for (size_t i = begin; i < end; ++i) {
    extractor_->ExtractPrepared(prepared, i, features);
    Status st = scaler_.TransformInPlace(features, width);
    LANDMARK_CHECK_MSG(st.ok(), st.ToString().c_str());
    out[i - begin] = classifier_.PredictProba(features, width);
  }
  ReportQueryTelemetry(end - begin, timer.ElapsedSeconds());
}

Result<std::vector<double>> LogRegEmModel::AttributeWeights() const {
  if (!classifier_.is_fitted()) {
    return Status::FailedPrecondition("model is not trained");
  }
  const size_t num_attrs = extractor_->entity_schema()->num_attributes();
  std::vector<double> weights(num_attrs, 0.0);
  const Vector& coef = classifier_.coefficients();
  for (size_t f = 0; f < coef.size(); ++f) {
    weights[extractor_->attribute_of_feature(f)] += std::abs(coef[f]);
  }
  return weights;
}

}  // namespace landmark
