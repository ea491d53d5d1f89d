#include "em/em_model.h"

#include "util/check.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/metrics.h"
#include "util/telemetry/trace.h"
#include "util/timer.h"

namespace landmark {

std::vector<double> EmModel::PredictProbaBatch(
    const std::vector<PairRecord>& pairs) const {
  std::vector<double> out(pairs.size());
  PredictProbaRange(pairs, 0, pairs.size(), out.data());
  return out;
}

void EmModel::PredictProbaRange(const std::vector<PairRecord>& pairs,
                                size_t begin, size_t end, double* out) const {
  LANDMARK_CHECK(begin <= end && end <= pairs.size());
  if (begin == end) return;
  LANDMARK_TRACE_SPAN("model/query");
  LANDMARK_ACTIVITY("model/query");
  Timer timer;
  for (size_t i = begin; i < end; ++i) {
    out[i - begin] = PredictProba(pairs[i]);
  }
  ReportQueryTelemetry(end - begin, timer.ElapsedSeconds());
}

void EmModel::PredictProbaPrepared(const PreparedPairBatch& prepared,
                                   size_t begin, size_t end,
                                   double* out) const {
  // Fallback for models without a prepared path: score from the raw pairs.
  PredictProbaRange(prepared.pairs(), begin, end, out);
}

namespace {

/// Global-registry handles for the query metrics, resolved once so every
/// scored range updates them lock-free.
struct ModelMetrics {
  Counter& queries;
  Histogram& query_latency;
  Histogram& query_batch_seconds;

  static const ModelMetrics& Get() {
    static const ModelMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new ModelMetrics{r.GetCounter("model/queries"),
                              r.GetHistogram("model/query_latency"),
                              r.GetHistogram("model/query_batch_seconds")};
    }();
    return *metrics;
  }
};

}  // namespace

void EmModel::ReportQueryTelemetry(size_t num_pairs, double seconds) const {
  if (num_pairs == 0) return;
  const ModelMetrics& metrics = ModelMetrics::Get();
  metrics.queries.Add(num_pairs);
  metrics.query_latency.Record(seconds / static_cast<double>(num_pairs));
  metrics.query_batch_seconds.Record(seconds);
}

EmModelReport HeldOutReport(const EmModel& model, const EmDataset& dataset,
                            const std::vector<size_t>& test,
                            ThreadPool& pool) {
  EmModelReport report;
  if (test.empty()) return report;
  std::vector<int> y_test(test.size()), y_pred(test.size());
  pool.ParallelFor(test.size(), [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      y_pred[r] = model.PredictProba(dataset.pair(test[r])) >= 0.5 ? 1 : 0;
    }
  });
  for (size_t r = 0; r < test.size(); ++r) {
    y_test[r] = dataset.pair(test[r]).is_match() ? 1 : 0;
  }
  report.confusion = ComputeConfusion(y_test, y_pred);
  report.f1 = report.confusion.F1();
  report.precision = report.confusion.Precision();
  report.recall = report.confusion.Recall();
  report.accuracy = report.confusion.Accuracy();
  return report;
}

}  // namespace landmark
