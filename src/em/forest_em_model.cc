#include "em/forest_em_model.h"

#include "util/arena.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/trace.h"
#include "util/timer.h"

namespace landmark {

Result<std::unique_ptr<ForestEmModel>> ForestEmModel::Train(
    const EmDataset& dataset, const ForestEmModelOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  auto model = std::unique_ptr<ForestEmModel>(
      new ForestEmModel(dataset.entity_schema()));

  Rng rng(options.split_seed);
  LANDMARK_ASSIGN_OR_RETURN(
      EmDatasetSplit split,
      dataset.Split(options.valid_fraction, options.test_fraction, rng));
  ThreadPool pool(DefaultThreadCount());

  Matrix x_train = model->extractor_->ExtractBatch(dataset, split.train, pool);
  std::vector<int> y_train;
  y_train.reserve(split.train.size());
  size_t n_pos = 0;
  for (size_t i : split.train) {
    const int label = dataset.pair(i).is_match() ? 1 : 0;
    y_train.push_back(label);
    n_pos += static_cast<size_t>(label);
  }
  if (n_pos == 0 || n_pos == y_train.size()) {
    return Status::InvalidArgument("training split has a single class");
  }

  std::vector<double> sample_weight;
  if (options.balanced_class_weights) {
    const double n_total = static_cast<double>(y_train.size());
    const double w_pos = n_total / (2.0 * static_cast<double>(n_pos));
    const double w_neg =
        n_total / (2.0 * static_cast<double>(y_train.size() - n_pos));
    sample_weight.reserve(y_train.size());
    for (int label : y_train) {
      sample_weight.push_back(label == 1 ? w_pos : w_neg);
    }
  }
  LANDMARK_RETURN_NOT_OK(model->forest_.Fit(x_train, y_train, options.forest,
                                            sample_weight));

  model->report_ = HeldOutReport(*model, dataset, split.test, pool);
  return model;
}

double ForestEmModel::PredictProba(const PairRecord& pair) const {
  return forest_.PredictProba(extractor_->Extract(pair));
}

void ForestEmModel::PredictProbaPrepared(const PreparedPairBatch& prepared,
                                         size_t begin, size_t end,
                                         double* out) const {
  if (begin == end) return;
  LANDMARK_TRACE_SPAN("model/query");
  LANDMARK_ACTIVITY("model/query");
  Timer timer;
  ArenaFrame frame;
  const size_t width = extractor_->num_features();
  double* features = frame.arena().AllocateDoubles(width);
  for (size_t i = begin; i < end; ++i) {
    extractor_->ExtractPrepared(prepared, i, features);
    out[i - begin] = forest_.PredictProba(features, width);
  }
  ReportQueryTelemetry(end - begin, timer.ElapsedSeconds());
}

Result<std::vector<double>> ForestEmModel::AttributeWeights() const {
  if (!forest_.is_fitted()) {
    return Status::FailedPrecondition("model is not trained");
  }
  std::vector<double> feature_importances = forest_.FeatureImportances();
  const size_t num_attrs = extractor_->entity_schema()->num_attributes();
  std::vector<double> weights(num_attrs, 0.0);
  for (size_t f = 0; f < feature_importances.size(); ++f) {
    weights[extractor_->attribute_of_feature(f)] += feature_importances[f];
  }
  return weights;
}

}  // namespace landmark
