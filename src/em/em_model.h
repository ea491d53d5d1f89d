#ifndef LANDMARK_EM_EM_MODEL_H_
#define LANDMARK_EM_EM_MODEL_H_

#include <string>
#include <vector>

#include "data/em_dataset.h"
#include "data/pair_record.h"
#include "em/prepared_batch.h"
#include "ml/metrics.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace landmark {

/// \brief The black-box interface the explainers see.
///
/// An EM model maps a pair of entities to the probability that they refer to
/// the same real-world entity. Explainers only ever call PredictProba /
/// PredictProbaBatch — they never look inside — which is what makes
/// Landmark Explanation model-agnostic (paper §3).
///
/// **Thread-safety contract.** The ExplainerEngine shards its deduplicated
/// query batch across worker threads, so every PredictProba* method must be
/// safe to call concurrently from multiple threads: implementations are
/// const and must not mutate any state (no lazy caches, no shared buffers)
/// once training has finished. All bundled models (logreg, forest, MLP,
/// embedding, rule, heuristic) are immutable after Train and satisfy this;
/// custom models plugged into the engine must as well.
class EmModel {
 public:
  virtual ~EmModel() = default;

  /// Probability in [0, 1] that the pair is a match.
  virtual double PredictProba(const PairRecord& pair) const = 0;

  /// Batch version; default delegates to PredictProbaRange over the whole
  /// vector.
  virtual std::vector<double> PredictProbaBatch(
      const std::vector<PairRecord>& pairs) const;

  /// Scores pairs[begin, end) into out[0, end-begin). The engine's query
  /// stage calls this concurrently on disjoint ranges of one batch; default
  /// loops over PredictProba. Models with an internally vectorized batch
  /// path can override it once and serve both entry points.
  ///
  /// The default implementation reports the query telemetry
  /// (`model/query_latency`, `model/queries` — see docs/architecture.md
  /// "Telemetry"); overrides that bypass it should record the same metrics
  /// to keep stage breakdowns comparable.
  virtual void PredictProbaRange(const std::vector<PairRecord>& pairs,
                                 size_t begin, size_t end, double* out) const;

  /// Scores prepared.pairs()[begin, end) into out[0, end-begin), the
  /// engine's query fast path: rows carry resolved token profiles, so
  /// feature-based models skip tokenization entirely. Must be bit-identical
  /// to PredictProbaRange on the same rows — the engine's determinism
  /// contract extends to toggling the fast path on and off.
  ///
  /// The default falls back to PredictProbaRange on the raw pairs, so
  /// custom models keep working unchanged (they just don't get the
  /// speedup). Overrides should call ReportQueryTelemetry once per range to
  /// keep the query metrics comparable with the string path.
  virtual void PredictProbaPrepared(const PreparedPairBatch& prepared,
                                    size_t begin, size_t end,
                                    double* out) const;

  /// Hard label at the given decision threshold (the paper uses 0.5 and
  /// discusses 0.4 as an alternative).
  MatchLabel Predict(const PairRecord& pair, double threshold = 0.5) const {
    return PredictProba(pair) >= threshold ? MatchLabel::kMatch
                                           : MatchLabel::kNonMatch;
  }

  /// Human-readable model name for reports.
  virtual std::string name() const = 0;

  /// Per-attribute importance as seen from *inside* the model (for the
  /// attribute-based evaluation, Table 3). Models that cannot report it
  /// return NotImplemented.
  virtual Result<std::vector<double>> AttributeWeights() const {
    return Status::NotImplemented(name() + " has no attribute weights");
  }

 protected:
  /// Records the query metrics (`model/queries`, `model/query_latency`,
  /// `model/query_batch_seconds`) for one scored range. Shared by the
  /// PredictProbaRange default and the PredictProbaPrepared overrides; call
  /// once per range, never per pair.
  void ReportQueryTelemetry(size_t num_pairs, double seconds) const;
};

/// \brief Quality of a trained EM model on its held-out test split.
struct EmModelReport {
  ConfusionMatrix confusion;
  double f1 = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double accuracy = 0.0;
};

/// Thresholds model.PredictProba at 0.5 for each pair of `test` on `pool`,
/// one pre-sized slot per pair, then builds the confusion matrix serially
/// in `test` order, so the report is the same at any pool size. An empty
/// `test` gives a zero report.
EmModelReport HeldOutReport(const EmModel& model, const EmDataset& dataset,
                            const std::vector<size_t>& test, ThreadPool& pool);

}  // namespace landmark

#endif  // LANDMARK_EM_EM_MODEL_H_
