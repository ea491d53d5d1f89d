#ifndef LANDMARK_CORE_ENGINE_EXPLAINER_ENGINE_H_
#define LANDMARK_CORE_ENGINE_EXPLAINER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/explainer.h"
#include "data/pair_record.h"
#include "em/em_model.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace landmark {

class AuditSink;
class StallWatchdog;

/// \brief Knobs of the explanation pipeline.
struct EngineOptions {
  /// Worker threads the batch's unit graph runs on. 1 runs everything
  /// inline on the calling thread; 0 uses the hardware concurrency. The
  /// thread count never changes the produced explanations (see the
  /// determinism contract on ExplainerEngine).
  size_t num_threads = 1;
  /// Deduplicate identical perturbation masks within a unit before querying
  /// the model. Small token spaces draw many duplicate masks (a dim-d space
  /// has only 2^d distinct ones), and the model query is the dominant cost
  /// of the whole pipeline, so the memo is a large saving exactly where
  /// records are cheap to explain badly. Never changes results: duplicate
  /// masks reconstruct identical pairs, hence identical predictions.
  bool cache_predictions = true;
  /// Stall-watchdog threshold in seconds (`--stall-threshold`): when > 0,
  /// the engine runs a monitor that flags any pipeline node (plan /
  /// reconstruct / query / fit, per unit) still running after this long,
  /// emitting a structured report to the log, the `engine/stalls_total`
  /// counter, and the audit batch trailer — without cancelling the work.
  /// Elapsed time is measured on the flight-deck clock
  /// (util/telemetry/flight_deck.h), so tests can drive it virtually.
  /// 0 disables the watchdog entirely (no monitor thread is created).
  /// Detection never changes the produced explanations.
  double stall_threshold = 0.0;
  /// Optional flight recorder (`--audit-out`): when non-null, the engine
  /// appends one JSON line per ExplainUnit — identity, quality signals,
  /// per-unit cache counts, top-k token weights — plus a trailer per call.
  /// Records are written from the epilogue in input order, never from
  /// worker threads, so the stream is deterministic and the produced
  /// explanations are bit-identical with the sink attached or not.
  /// Non-owning; must outlive every Explain* call on the engine.
  AuditSink* audit_sink = nullptr;
};

/// \brief Per-stage counters of one engine call.
///
/// **CPU-seconds vs wall-clock.** The four per-stage `*_seconds` fields are
/// *summed CPU-seconds*: each graph node accumulates the time its own body
/// ran, across all workers. Under a multi-threaded run their sum therefore
/// exceeds the batch's elapsed time (stages overlap and workers run
/// concurrently) — they answer "where did the compute go", not "how long
/// did I wait". `wall_seconds` is the batch's elapsed time and
/// `critical_path_seconds` the longest dependency chain of node durations
/// (the floor no amount of parallelism can beat); both answer the latency
/// question (docs/architecture.md, "Scheduling").
struct EngineStats {
  size_t num_records = 0;         // records submitted
  size_t num_failed_records = 0;  // records whose Result is an error
  size_t num_units = 0;           // explain units planned
  size_t num_masks = 0;           // raw perturbation masks sampled
  size_t num_model_queries = 0;   // deduplicated pairs actually scored
  size_t cache_hits = 0;          // num_masks - num_model_queries
  size_t token_cache_hits = 0;    // token-profile lookups served from cache
  size_t token_cache_misses = 0;  // distinct strings tokenized
  double plan_seconds = 0.0;        // summed CPU-seconds (see above)
  double reconstruct_seconds = 0.0; // summed CPU-seconds
  double query_seconds = 0.0;       // summed CPU-seconds
  double fit_seconds = 0.0;         // summed CPU-seconds
  /// Elapsed wall-clock of the whole call (graph + epilogue).
  double wall_seconds = 0.0;
  /// Longest dependency chain of node durations through the unit graph.
  double critical_path_seconds = 0.0;

  /// One-line human-readable rendering for logs and CLI reports.
  std::string ToString() const;
};

/// \brief Result of one batch: per-input-record explanation lists (aligned
/// with the input order; a record that could not be explained holds its
/// error status) plus the stage counters.
struct EngineBatchResult {
  std::vector<Result<std::vector<Explanation>>> results;
  EngineStats stats;
};

/// \brief The explanation pipeline — the generic explanation system of the
/// paper's Figure 2. Every call runs the same per-unit dependency graph
/// (util/thread_pool.h's TaskGraph; docs/architecture.md, "Scheduling"):
///
///   plan        per record: token-space construction + RNG stream
///               (PairExplainer::Plan), then per unit: mask and
///               kernel-weight sampling
///   reconstruct per unique mask: materialize the perturbed PairRecord
///               (PairExplainer::ReconstructUnit)
///   query       the unit's deduplicated pairs, tokenized through the
///               call's TokenCache and scored via
///               EmModel::PredictProbaPrepared
///   fit         per unit: weighted ridge surrogate + coefficient mapping
///               (FitSurrogate + PairExplainer::ApplyFit)
///
/// There is no barrier between stages, so a cheap record's units fit while
/// an expensive record is still reconstructing. ExplainBatch drains the
/// graph on the engine's pool; the one-record calls (ExplainOne,
/// ExplainPlanned) drain it inline on the calling thread. All of them share
/// the single-threaded epilogue that assembles results, audit lines and
/// telemetry in input order.
///
/// **Determinism contract.** Every unit owns an RNG stream derived only from
/// (options.seed, record id, unit side); node bodies write only to
/// pre-assigned slots. Runs with different `num_threads` (and with the
/// prediction memo on or off) therefore produce bit-identical explanations,
/// and `ExplainBatch` agrees bit-for-bit with per-record `ExplainOne`.
class ExplainerEngine {
 public:
  explicit ExplainerEngine(EngineOptions options = {});
  ~ExplainerEngine();

  ExplainerEngine(const ExplainerEngine&) = delete;
  ExplainerEngine& operator=(const ExplainerEngine&) = delete;

  const EngineOptions& options() const { return options_; }
  /// Resolved worker count (>= 1; num_threads == 0 resolves to the hardware
  /// concurrency at construction).
  size_t num_threads() const { return num_threads_; }

  /// Explains every pair of the batch. `pairs` entries must outlive the
  /// call. Results are aligned with the input; per-record failures (e.g. a
  /// record whose attributes are all null) are reported in place, not
  /// thrown across the batch.
  EngineBatchResult ExplainBatch(const EmModel& model,
                                 const std::vector<const PairRecord*>& pairs,
                                 const PairExplainer& explainer) const;

  /// Convenience overload over an owning vector.
  EngineBatchResult ExplainBatch(const EmModel& model,
                                 const std::vector<PairRecord>& pairs,
                                 const PairExplainer& explainer) const;

  /// Single-record entry point (what PairExplainer::Explain routes to): a
  /// one-record graph drained on the calling thread.
  Result<std::vector<Explanation>> ExplainOne(
      const EmModel& model, const PairRecord& pair,
      const PairExplainer& explainer) const;

  /// Explains one already-planned unit of `pair` as a one-record graph
  /// seeded with that unit (the side-specific public APIs such as
  /// ExplainWithLandmark).
  Result<Explanation> ExplainPlanned(const EmModel& model,
                                     const PairRecord& pair,
                                     const PairExplainer& explainer,
                                     ExplainUnit unit) const;

  /// Shared process-wide serial engine (num_threads = 1, memo on) backing
  /// the single-record convenience APIs.
  static const ExplainerEngine& Serial();

 private:
  EngineOptions options_;
  size_t num_threads_ = 1;
  // The pool is an execution resource, not logical state: ExplainBatch is
  // const (and itself thread-safe for distinct engines).
  mutable std::unique_ptr<ThreadPool> pool_;
  // Created when options_.stall_threshold > 0; scans the flight deck's
  // activity registry in the background (util/telemetry/flight_deck.h).
  std::unique_ptr<StallWatchdog> watchdog_;
};

}  // namespace landmark

#endif  // LANDMARK_CORE_ENGINE_EXPLAINER_ENGINE_H_
