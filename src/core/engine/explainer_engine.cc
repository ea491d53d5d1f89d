#include "core/engine/explainer_engine.h"

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/engine/quality.h"
#include "core/surrogate.h"
#include "em/prepared_batch.h"
#include "text/token_cache.h"
#include "util/string_util.h"
#include "util/telemetry/audit.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/metrics.h"
#include "util/telemetry/trace.h"
#include "util/timer.h"

namespace landmark {

namespace {

/// Maps every mask to the index of its first occurrence's slot in the
/// deduplicated list, and records which mask indices are the unique
/// representatives (in first-occurrence order, so slot 0 is always the
/// all-active mask). With dedup disabled the mapping is the identity.
std::vector<uint32_t> DeduplicateMasks(const MaskMatrix& masks, bool enabled,
                                       std::vector<uint32_t>* unique_index) {
  std::vector<uint32_t> mask_to_unique(masks.rows());
  unique_index->clear();
  if (!enabled) {
    unique_index->reserve(masks.rows());
    for (uint32_t m = 0; m < masks.rows(); ++m) {
      mask_to_unique[m] = m;
      unique_index->push_back(m);
    }
    return mask_to_unique;
  }
  std::unordered_map<std::string, uint32_t> memo;
  memo.reserve(masks.rows());
  // Keyed on the packed words (8x smaller than the byte keys it replaced);
  // well-defined because the samplers keep padding bits zeroed.
  const size_t key_bytes = masks.words_per_row() * sizeof(uint64_t);
  for (uint32_t m = 0; m < masks.rows(); ++m) {
    std::string key(reinterpret_cast<const char*>(masks.row_words(m)),
                    key_bytes);
    auto [it, inserted] =
        memo.emplace(std::move(key), static_cast<uint32_t>(unique_index->size()));
    if (inserted) unique_index->push_back(m);
    mask_to_unique[m] = it->second;
  }
  return mask_to_unique;
}

SurrogateOptions MakeSurrogateOptions(const ExplainerOptions& options) {
  SurrogateOptions surrogate;
  surrogate.ridge_lambda = options.ridge_lambda;
  surrogate.max_features = options.max_features;
  return surrogate;
}

/// One unit flowing through the graph. Every field is written by exactly
/// one node of the unit's own chain, which is what makes the nodes
/// race-free without per-unit locks.
struct UnitWork {
  size_t record_index = 0;
  ExplainUnit unit;
  Status status = Status::OK();

  // Plan stage outputs. Masks are bit-packed (core/sampling.h).
  MaskMatrix masks;
  std::vector<double> kernel_weights;
  std::vector<uint32_t> mask_to_unique;
  std::vector<uint32_t> unique_index;  // indices into `masks`

  // Reconstruct stage output: one pair per unique mask.
  std::vector<PairRecord> reconstructed;
  bool queried = false;

  // Query stage output: one prediction per unique mask, aligned with
  // `unique_index`.
  std::vector<double> predictions;

  // Fit stage outputs, consumed by the epilogue.
  ExplanationQuality quality;
  bool fit_ok = false;

  // Per-stage CPU-seconds of this unit's nodes.
  double plan_seconds = 0.0;
  double reconstruct_seconds = 0.0;
  double query_seconds = 0.0;
  double fit_seconds = 0.0;
};

/// Global-registry handles for the engine's stable metric names (the
/// contract is documented in docs/architecture.md, "Telemetry"). Resolved
/// once; Add/Record on the handles is lock-free.
struct EngineMetrics {
  Counter& batches;
  Counter& records;
  Counter& records_failed;
  Counter& units;
  Counter& masks;
  Counter& model_queries;
  Counter& cache_hits;
  Counter& cache_misses;
  Counter& cache_evictions;
  Histogram& plan_seconds;
  Histogram& reconstruct_seconds;
  Histogram& query_seconds;
  Histogram& fit_seconds;
  Histogram& batch_seconds;
  // Per-unit stage latencies, recorded with exemplars from the epilogue so
  // an outlier bucket can name its ExplainUnit.
  Histogram& unit_query_seconds;
  Histogram& unit_fit_seconds;
  Histogram& unit_critical_path_seconds;
  Gauge& inflight_plan;
  Gauge& inflight_reconstruct;
  Gauge& inflight_query;
  Gauge& inflight_fit;

  static const EngineMetrics& Get() {
    static const EngineMetrics* metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new EngineMetrics{r.GetCounter("engine/batches"),
                               r.GetCounter("engine/records"),
                               r.GetCounter("engine/records_failed"),
                               r.GetCounter("engine/units"),
                               r.GetCounter("engine/masks"),
                               r.GetCounter("engine/model_queries"),
                               r.GetCounter("engine/cache_hits"),
                               r.GetCounter("engine/cache_misses"),
                               r.GetCounter("engine/cache_evictions"),
                               r.GetHistogram("engine/plan_seconds"),
                               r.GetHistogram("engine/reconstruct_seconds"),
                               r.GetHistogram("engine/query_seconds"),
                               r.GetHistogram("engine/fit_seconds"),
                               r.GetHistogram("engine/batch_seconds"),
                               r.GetHistogram("engine/unit/query_seconds"),
                               r.GetHistogram("engine/unit/fit_seconds"),
                               r.GetHistogram(
                                   "engine/unit_critical_path_seconds"),
                               r.GetGauge("engine/inflight/plan"),
                               r.GetGauge("engine/inflight/reconstruct"),
                               r.GetGauge("engine/inflight/query"),
                               r.GetGauge("engine/inflight/fit")};
    }();
    return *metrics;
  }
};

/// Holds a stage's in-flight gauge up for the lifetime of one node body.
class InflightScope {
 public:
  explicit InflightScope(Gauge& gauge) : gauge_(gauge) { gauge_.Add(1.0); }
  ~InflightScope() { gauge_.Add(-1.0); }
  InflightScope(const InflightScope&) = delete;
  InflightScope& operator=(const InflightScope&) = delete;

 private:
  Gauge& gauge_;
};

/// Coefficients kept per audit line; matches Explanation::ToString's
/// default report depth.
constexpr size_t kAuditTopK = 10;

/// Fills the post-fit fields of an audit record from the unit's shell and
/// quality signals. `schema` resolves attribute indices to names (may be
/// null for schema-less records).
void FillAuditSuccess(const Explanation& shell,
                      const ExplanationQuality& quality, const Schema* schema,
                      AuditUnitRecord* record) {
  record->model_prediction = shell.model_prediction;
  record->weighted_r2 = quality.weighted_r2;
  record->intercept = quality.intercept;
  record->match_fraction = quality.match_fraction;
  record->top_weight_share = quality.top_weight_share;
  record->interesting_tokens = quality.interesting_tokens;
  record->low_r2 = quality.low_r2;
  record->degenerate_neighborhood = quality.degenerate_neighborhood;
  record->top_tokens.clear();
  for (size_t index : shell.TopFeatures(kAuditTopK)) {
    const TokenWeight& tw = shell.token_weights[index];
    AuditTokenWeight token;
    token.attribute = schema != nullptr &&
                              tw.token.attribute < schema->num_attributes()
                          ? schema->attribute_name(tw.token.attribute)
                          : std::to_string(tw.token.attribute);
    token.occurrence = static_cast<int>(tw.token.occurrence);
    token.text = tw.token.text;
    token.side = std::string(EntitySideName(tw.token.side));
    token.injected = tw.token.injected;
    token.weight = tw.weight;
    record->top_tokens.push_back(std::move(token));
  }
}

AuditBatchStats MakeAuditBatchStats(const EngineStats& stats,
                                    BatchProgress* progress) {
  AuditBatchStats out;
  if (progress != nullptr) {
    // Drain first, then read the monotone total: a stall landing between
    // the two is counted (num_stalls) even though its details missed the
    // trailer.
    for (StallReport& stall : progress->TakeStalls()) {
      AuditStall entry;
      entry.stage = stall.stage;
      entry.record_index = stall.record_index;
      entry.unit_index = stall.unit_index;
      entry.elapsed_seconds = stall.elapsed_seconds;
      entry.worker = std::move(stall.worker);
      out.stalls.push_back(std::move(entry));
    }
    out.num_stalls = progress->num_stalls();
  }
  out.num_records = stats.num_records;
  out.num_failed_records = stats.num_failed_records;
  out.num_units = stats.num_units;
  out.num_masks = stats.num_masks;
  out.num_model_queries = stats.num_model_queries;
  out.cache_hits = stats.cache_hits;
  out.token_cache_hits = stats.token_cache_hits;
  out.token_cache_misses = stats.token_cache_misses;
  out.plan_seconds = stats.plan_seconds;
  out.reconstruct_seconds = stats.reconstruct_seconds;
  out.query_seconds = stats.query_seconds;
  out.fit_seconds = stats.fit_seconds;
  return out;
}

/// EngineStats stays the per-batch snapshot callers consume; the registry
/// carries the same numbers as process-lifetime aggregates. Publishing once
/// per batch keeps the pipeline hot path free of registry traffic.
void PublishBatchStats(const EngineStats& stats, size_t cache_evictions) {
  const EngineMetrics& m = EngineMetrics::Get();
  m.batches.Add(1);
  m.records.Add(stats.num_records);
  m.records_failed.Add(stats.num_failed_records);
  m.units.Add(stats.num_units);
  m.masks.Add(stats.num_masks);
  m.model_queries.Add(stats.num_model_queries);
  m.cache_hits.Add(stats.cache_hits);
  m.cache_misses.Add(stats.num_model_queries);
  m.cache_evictions.Add(cache_evictions);
  m.plan_seconds.Record(stats.plan_seconds);
  m.reconstruct_seconds.Record(stats.reconstruct_seconds);
  m.query_seconds.Record(stats.query_seconds);
  m.fit_seconds.Record(stats.fit_seconds);
  m.batch_seconds.Record(stats.wall_seconds);
}

/// Single-threaded tail of every call: propagate unit failures to their
/// record (first failing unit in unit order wins), publish quality signals
/// and capture audit lines, assemble per-record results in input order, and
/// flush telemetry. Runs in unit index order — the audit stream's
/// byte-for-byte equality across thread counts hangs on this loop, so no
/// graph node may write audit lines itself.
/// `works` is the flat record-major unit list; units of record i occupy
/// works[unit_begin[i], unit_begin[i + 1]).
void FinalizeBatch(const EngineOptions& options,
                   const std::vector<const PairRecord*>& pairs,
                   const std::vector<UnitWork*>& works,
                   const std::vector<size_t>& unit_begin,
                   std::vector<Status>& record_status, size_t cache_evictions,
                   const Timer& batch_timer, BatchProgress* progress,
                   EngineBatchResult* out) {
  const size_t n = pairs.size();
  for (UnitWork* work : works) {
    if (!work->status.ok() && record_status[work->record_index].ok()) {
      record_status[work->record_index] = work->status;
    }
  }

  // Audit epilogue, first half: capture the audit lines while the shells
  // are still alive (assembly moves them into the results). Writing — and
  // quality publication — happens in the telemetry loop below, where the
  // write can hand back the line's ordinal for exemplar capture.
  std::vector<AuditUnitRecord> audit_records;
  if (options.audit_sink != nullptr) audit_records.resize(works.size());
  for (size_t w = 0; w < works.size(); ++w) {
    const UnitWork& work = *works[w];
    if (options.audit_sink == nullptr) continue;
    AuditUnitRecord& record = audit_records[w];
    record.record_id = pairs[work.record_index]->id;
    record.record_index = work.record_index;
    record.explainer = work.unit.shell.explainer_name;
    if (work.unit.shell.landmark.has_value()) {
      record.landmark_side =
          std::string(EntitySideName(*work.unit.shell.landmark));
    }
    record.num_masks = work.masks.rows();
    if (work.queried) {
      record.num_model_queries = work.unique_index.size();
      record.cache_hits = work.masks.rows() - work.unique_index.size();
    }
    if (work.fit_ok) {
      FillAuditSuccess(work.unit.shell, work.quality,
                       pairs[work.record_index]->left.schema().get(), &record);
    } else {
      const Status& status = !work.status.ok()
                                 ? work.status
                                 : record_status[work.record_index];
      record.error = status.ok() ? "unit not completed" : status.ToString();
    }
  }

  // Assemble, preserving input order and per-record unit order.
  out->results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!record_status[i].ok()) {
      out->results.emplace_back(record_status[i]);
      ++out->stats.num_failed_records;
      continue;
    }
    std::vector<Explanation> explanations;
    explanations.reserve(unit_begin[i + 1] - unit_begin[i]);
    for (size_t w = unit_begin[i]; w < unit_begin[i + 1]; ++w) {
      explanations.push_back(std::move(works[w]->unit.shell));
    }
    out->results.emplace_back(std::move(explanations));
  }
  // Telemetry loop, still in unit order: write each audit line (the sink
  // assigns its monotone ordinal), then publish quality signals and the
  // per-unit stage latencies with exemplar context pointing back at that
  // exact line. Metrics-only writes — explanations and audit bytes are
  // unchanged by exemplar capture.
  const EngineMetrics& metrics = EngineMetrics::Get();
  for (size_t w = 0; w < works.size(); ++w) {
    const UnitWork& work = *works[w];
    ExemplarContext context;
    context.record_id = pairs[work.record_index]->id;
    context.record_index = static_cast<uint32_t>(work.record_index);
    context.unit_index =
        static_cast<uint32_t>(w - unit_begin[work.record_index]);
    if (options.audit_sink != nullptr) {
      context.audit_ordinal = options.audit_sink->WriteUnit(audit_records[w]);
      context.has_audit_ordinal = true;
    }
    if (work.fit_ok) PublishExplanationQuality(work.quality, context);
    if (work.queried && work.query_seconds > 0.0) {
      LANDMARK_OBSERVE_WITH_EXEMPLAR(metrics.unit_query_seconds,
                                     work.query_seconds, context);
    }
    if (work.fit_ok && work.fit_seconds > 0.0) {
      LANDMARK_OBSERVE_WITH_EXEMPLAR(metrics.unit_fit_seconds,
                                     work.fit_seconds, context);
    }
  }
  if (options.audit_sink != nullptr) {
    options.audit_sink->WriteBatch(MakeAuditBatchStats(out->stats, progress));
  }
  out->stats.wall_seconds = batch_timer.ElapsedSeconds();
  PublishBatchStats(out->stats, cache_evictions);
}

/// Plans record i of a call (PairExplainer::Plan, or a pre-planned unit).
using PlanFn = std::function<Result<std::vector<ExplainUnit>>(size_t)>;

/// Runs the unit graph over `pairs` on `pool` (null: inline on the calling
/// thread) — the engine's only executor.
EngineBatchResult RunGraph(const EngineOptions& options, const EmModel& model,
                           const std::vector<const PairRecord*>& pairs,
                           const PairExplainer& explainer, ThreadPool* pool,
                           const PlanFn& plan) {
  const size_t n = pairs.size();
  const Status valid = ValidateExplainerOptions(explainer.options());
  if (!valid.ok()) {
    EngineBatchResult out;
    out.stats.num_records = n;
    out.results.assign(n, Result<std::vector<Explanation>>(valid));
    out.stats.num_failed_records = n;
    // Rejected calls never reach the graph; count them without polluting
    // the stage-latency histograms with zero-length timings.
    EngineMetrics::Get().records.Add(n);
    EngineMetrics::Get().records_failed.Add(n);
    return out;
  }

  LANDMARK_TRACE_SPAN("engine/batch");
  Timer batch_timer;
  EngineBatchResult out;
  out.stats.num_records = n;

  /// State of one record in the unit graph. `units` is built by the record's
  /// plan node and never resized afterwards, so unit nodes hold stable
  /// references into it; each downstream field of each UnitWork is written
  /// by exactly one node.
  struct RecordWork {
    std::vector<UnitWork> units;
    double plan_seconds = 0.0;
  };
  std::vector<RecordWork> records(n);
  std::vector<Status> record_status(n, Status::OK());
  const SurrogateOptions surrogate_options =
      MakeSurrogateOptions(explainer.options());
  const EngineMetrics& metrics = EngineMetrics::Get();
  // One concurrent cache for the whole call: units interleave their query
  // stages against it from different workers (see text/token_cache.h);
  // every distinct string is profiled exactly once whatever the
  // interleaving, so the hit/miss totals do not depend on scheduling.
  TokenCache token_cache;

  TaskGraph graph(pool);

  // Register on the flight deck (/statusz graph progress, stall watchdog).
  // Declared after the graph and cache so its destructor — which detaches
  // both pointers — runs before either of them dies.
  BatchProgressScope deck(n, options.stall_threshold);
  deck.progress().SetGraph(&graph);
  deck.progress().SetTokenCacheProbe(
      [&token_cache] { return token_cache.ShardSizes(); });
  const uint64_t deck_id = deck.progress().id();
  // The calling thread carries a call-wide frame so the sampling profiler
  // sees a non-empty stack for the whole call, not just while a worker
  // happens to be inside a node.
  LANDMARK_ACTIVITY("engine/batch");

  // Per-unit stage bodies. Everything is captured by reference; the graph
  // is drained by Wait() before any of it leaves scope.
  auto reconstruct_body = [&](size_t i, size_t w) {
    UnitWork& work = records[i].units[w];
    NodeTagScope node_tag(deck_id, "engine/reconstruct",
                          static_cast<uint32_t>(i), static_cast<uint32_t>(w));
    {
      // Neighborhood sampling is plan-stage work that happens to live in
      // the unit's first node (it needs only the unit itself, and splitting
      // it off would double the node count for no extra parallelism).
      InflightScope inflight(metrics.inflight_plan);
      TraceSpan span("engine/plan");
      Timer timer;
      explainer.SampleNeighborhood(work.unit.dim, work.unit.rng, &work.masks,
                                   &work.kernel_weights);
      work.mask_to_unique = DeduplicateMasks(
          work.masks, options.cache_predictions, &work.unique_index);
      work.plan_seconds = timer.ElapsedSeconds();
    }
    InflightScope inflight(metrics.inflight_reconstruct);
    TraceSpan span("engine/reconstruct");
    Timer timer;
    work.reconstructed.reserve(work.unique_index.size());
    for (uint32_t mask_index : work.unique_index) {
      Result<PairRecord> rec = explainer.ReconstructUnit(
          work.unit, *pairs[i], work.masks.row(mask_index));
      if (!rec.ok()) {
        work.status = rec.status();
        work.reconstructed.clear();
        break;
      }
      work.reconstructed.push_back(std::move(rec).ValueOrDie());
    }
    work.reconstruct_seconds = timer.ElapsedSeconds();
  };

  // The per-record join: one unit's reconstruct failure excludes ALL of the
  // record's units from the query stage (first failing unit in unit order
  // wins), so which units query — and hence every audit line and cache
  // counter — is independent of node scheduling.
  auto join_body = [&](size_t i) {
    RecordWork& rec = records[i];
    for (const UnitWork& work : rec.units) {
      if (!work.status.ok() && record_status[i].ok()) {
        record_status[i] = work.status;
      }
    }
    if (!record_status[i].ok()) return;  // units stay un-queried
    for (UnitWork& work : rec.units) work.queried = true;
  };

  auto query_body = [&](size_t i, size_t w) {
    UnitWork& work = records[i].units[w];
    if (!work.queried) return;
    NodeTagScope node_tag(deck_id, "engine/query", static_cast<uint32_t>(i),
                          static_cast<uint32_t>(w));
    InflightScope inflight(metrics.inflight_query);
    TraceSpan span("engine/query");
    Timer timer;
    work.predictions.resize(work.reconstructed.size());
    // Per-unit prepared batch over the shared cache: the frozen landmark
    // side resolves once per unit, every other string through the
    // concurrent cache. reconstructed[0] is the all-active mask's pair.
    PreparedPairBatch prepared(work.reconstructed, &token_cache);
    const LandmarkFeatureContext context = MakeLandmarkFeatureContext(
        work.reconstructed.front(), explainer.FrozenSide(work.unit),
        token_cache);
    prepared.PrepareRange(0, work.reconstructed.size(), context);
    model.PredictProbaPrepared(prepared, 0, work.reconstructed.size(),
                               work.predictions.data());
    work.query_seconds = timer.ElapsedSeconds();
  };

  auto fit_body = [&](size_t i, size_t w) {
    UnitWork& work = records[i].units[w];
    if (!work.queried) return;
    NodeTagScope node_tag(deck_id, "engine/fit", static_cast<uint32_t>(i),
                          static_cast<uint32_t>(w));
    InflightScope inflight(metrics.inflight_fit);
    TraceSpan span("engine/fit");
    Timer timer;
    std::vector<double> unit_predictions(work.masks.rows());
    for (size_t m = 0; m < work.masks.rows(); ++m) {
      unit_predictions[m] = work.predictions[work.mask_to_unique[m]];
    }
    Result<SurrogateFit> fit =
        FitSurrogate(work.masks, unit_predictions, work.kernel_weights,
                     surrogate_options);
    if (!fit.ok()) {
      work.status = fit.status();
      work.fit_seconds = timer.ElapsedSeconds();
      return;
    }
    // Slot 0 of the dedup list is the all-active mask (asserted by
    // SampleNeighborhood), so this is f(all-active).
    work.unit.shell.model_prediction = unit_predictions[0];
    explainer.ApplyFit(*fit, &work.unit);
    work.quality = ComputeExplanationQuality(work.unit.shell, unit_predictions);
    work.fit_ok = true;
    work.fit_seconds = timer.ElapsedSeconds();
  };

  // Seed one plan node per record; each grows its own unit chains
  // (reconstruct → join → query → fit) from inside the running graph, so a
  // record's units start reconstructing while later records still plan.
  for (size_t i = 0; i < n; ++i) {
    graph.AddNode([&, i] {
      RecordWork& rec = records[i];
      NodeTagScope node_tag(deck_id, "engine/plan", static_cast<uint32_t>(i),
                            kActivityNoIndex);
      {
        InflightScope inflight(metrics.inflight_plan);
        TraceSpan span("engine/plan");
        Timer timer;
        Result<std::vector<ExplainUnit>> units = plan(i);
        if (!units.ok()) {
          record_status[i] = units.status();
          rec.plan_seconds = timer.ElapsedSeconds();
          return;
        }
        rec.units.reserve(units->size());
        for (ExplainUnit& unit : *units) {
          UnitWork work;
          work.record_index = i;
          work.unit = std::move(unit);
          rec.units.push_back(std::move(work));
        }
        rec.plan_seconds = timer.ElapsedSeconds();
      }
      std::vector<TaskGraph::NodeId> reconstructs;
      reconstructs.reserve(rec.units.size());
      for (size_t w = 0; w < rec.units.size(); ++w) {
        reconstructs.push_back(graph.AddNode(
            [&, i, w] { reconstruct_body(i, w); }, {}, "engine/reconstruct"));
      }
      const TaskGraph::NodeId join = graph.AddNode(
          [&, i] { join_body(i); }, reconstructs, "engine/join");
      for (size_t w = 0; w < rec.units.size(); ++w) {
        const TaskGraph::NodeId query = graph.AddNode(
            [&, i, w] { query_body(i, w); }, {join}, "engine/query");
        graph.AddNode([&, i, w] { fit_body(i, w); }, {query}, "engine/fit");
      }
    }, {}, "engine/plan");
  }
  graph.Run();
  graph.Wait();

  // Flatten in input order and fold up the stats. Every loop below reads
  // state that only the drained graph wrote.
  std::vector<UnitWork*> works;
  std::vector<size_t> unit_begin(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    unit_begin[i] = works.size();
    for (UnitWork& work : records[i].units) works.push_back(&work);
  }
  unit_begin[n] = works.size();
  out.stats.num_units = works.size();

  size_t cache_evictions = 0;
  size_t live_masks = 0;
  for (const UnitWork* work : works) {
    out.stats.num_masks += work->masks.rows();
    if (!work->queried) {
      // Unique masks planned for units whose record failed pre-query: their
      // memo entries were built and then discarded.
      cache_evictions += work->unique_index.size();
      continue;
    }
    live_masks += work->masks.rows();
    out.stats.num_model_queries += work->unique_index.size();
  }
  out.stats.cache_hits = live_masks - out.stats.num_model_queries;

  // Stage CPU-seconds (summed across nodes) and the critical path: the
  // longest chain of node durations ending at each unit's fit — record plan,
  // then the slowest sibling's sample+reconstruct (the join waits for it),
  // then the unit's own query and fit.
  for (size_t i = 0; i < n; ++i) {
    const RecordWork& rec = records[i];
    out.stats.plan_seconds += rec.plan_seconds;
    double slowest_sibling = 0.0;
    for (const UnitWork& work : rec.units) {
      slowest_sibling = std::max(
          slowest_sibling, work.plan_seconds + work.reconstruct_seconds);
    }
    for (const UnitWork& work : rec.units) {
      out.stats.plan_seconds += work.plan_seconds;
      out.stats.reconstruct_seconds += work.reconstruct_seconds;
      out.stats.query_seconds += work.query_seconds;
      out.stats.fit_seconds += work.fit_seconds;
      const double unit_critical_path = rec.plan_seconds + slowest_sibling +
                                        work.query_seconds + work.fit_seconds;
      metrics.unit_critical_path_seconds.Record(unit_critical_path);
      out.stats.critical_path_seconds =
          std::max(out.stats.critical_path_seconds, unit_critical_path);
    }
  }

  out.stats.token_cache_hits = token_cache.hits();
  out.stats.token_cache_misses = token_cache.misses();
  token_cache.PublishTelemetry();
  FinalizeBatch(options, pairs, works, unit_begin, record_status,
                cache_evictions, batch_timer, &deck.progress(), &out);
  return out;
}

}  // namespace

std::string EngineStats::ToString() const {
  std::string out;
  out += "records=" + std::to_string(num_records);
  if (num_failed_records > 0) {
    out += " (failed=" + std::to_string(num_failed_records) + ")";
  }
  out += " units=" + std::to_string(num_units);
  out += " masks=" + std::to_string(num_masks);
  out += " queries=" + std::to_string(num_model_queries);
  out += " cache_hits=" + std::to_string(cache_hits);
  out += " token_cache_hits=" + std::to_string(token_cache_hits);
  out += " token_cache_misses=" + std::to_string(token_cache_misses);
  out += " | plan=" + FormatDouble(plan_seconds, 3) + "s";
  out += " reconstruct=" + FormatDouble(reconstruct_seconds, 3) + "s";
  out += " query=" + FormatDouble(query_seconds, 3) + "s";
  out += " fit=" + FormatDouble(fit_seconds, 3) + "s";
  if (wall_seconds > 0.0) {
    out += " wall=" + FormatDouble(wall_seconds, 3) + "s";
  }
  if (critical_path_seconds > 0.0) {
    out += " critical_path=" + FormatDouble(critical_path_seconds, 3) + "s";
  }
  return out;
}

ExplainerEngine::ExplainerEngine(EngineOptions options) : options_(options) {
  // Hard cap: a worker count beyond this is either a typo or a negative
  // value cast to size_t; spawning it would abort in the pool.
  constexpr size_t kMaxThreads = 256;
  num_threads_ = options_.num_threads;
  if (num_threads_ == 0) {
    num_threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
  num_threads_ = std::min(num_threads_, kMaxThreads);
  if (num_threads_ > 1) pool_ = std::make_unique<ThreadPool>(num_threads_);
  if (options_.stall_threshold > 0.0) {
    StallWatchdogOptions watchdog_options;
    watchdog_options.threshold_seconds = options_.stall_threshold;
    watchdog_ = std::make_unique<StallWatchdog>(watchdog_options);
  }
}

ExplainerEngine::~ExplainerEngine() = default;

const ExplainerEngine& ExplainerEngine::Serial() {
  static const ExplainerEngine* engine = new ExplainerEngine(EngineOptions{});
  return *engine;
}

EngineBatchResult ExplainerEngine::ExplainBatch(
    const EmModel& model, const std::vector<PairRecord>& pairs,
    const PairExplainer& explainer) const {
  std::vector<const PairRecord*> pointers;
  pointers.reserve(pairs.size());
  for (const PairRecord& pair : pairs) pointers.push_back(&pair);
  return ExplainBatch(model, pointers, explainer);
}

EngineBatchResult ExplainerEngine::ExplainBatch(
    const EmModel& model, const std::vector<const PairRecord*>& pairs,
    const PairExplainer& explainer) const {
  if (pairs.empty()) return EngineBatchResult{};
  return RunGraph(options_, model, pairs, explainer, pool_.get(),
                  [&](size_t i) { return explainer.Plan(model, *pairs[i]); });
}

Result<std::vector<Explanation>> ExplainerEngine::ExplainOne(
    const EmModel& model, const PairRecord& pair,
    const PairExplainer& explainer) const {
  EngineBatchResult batch =
      RunGraph(options_, model, {&pair}, explainer, /*pool=*/nullptr,
               [&](size_t) { return explainer.Plan(model, pair); });
  return std::move(batch.results.front());
}

Result<Explanation> ExplainerEngine::ExplainPlanned(
    const EmModel& model, const PairRecord& pair,
    const PairExplainer& explainer, ExplainUnit unit) const {
  std::vector<ExplainUnit> units;
  units.push_back(std::move(unit));
  EngineBatchResult batch = RunGraph(
      options_, model, {&pair}, explainer, /*pool=*/nullptr,
      [&](size_t) -> Result<std::vector<ExplainUnit>> {
        return std::move(units);
      });
  LANDMARK_ASSIGN_OR_RETURN(std::vector<Explanation> explanations,
                            std::move(batch.results.front()));
  return std::move(explanations.front());
}

}  // namespace landmark
