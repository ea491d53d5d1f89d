// perfbench: the repository's end-to-end benchmark harness.
//
// Runs one workload (see README.md next to this file) for a time budget as a
// sequence of passes, each pass a full run from dataset generation to the
// last evaluated row. Every call into a layer of the library goes through a
// timer of this file; nothing inside the library is instrumented:
//
//   datagen   GenerateMagellanDataset
//   em.train  LogRegEmModel::Train
//   engine    ExplainerEngine::ExplainBatch (through ExplainRecords; its
//             EngineStats are read back) and ExplainerEngine::ExplainOne
//             (its counters are read from the engine's global telemetry)
//   eval      EvaluateTokenRemoval
//
// On traced passes each of those calls also leaves a span (name, start, end,
// parent, request id) in memory; spans are written out at exit and per-layer
// self times are computed from them. Output checks that need no golden data
// (counter reconciliation, ExplainOne = batch explanations, pass-to-pass
// determinism, eval results in range) are made here; the golden checks are
// made by run.py, which also aggregates the passes into metrics.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-out FILE]
// Prints one JSON object on the last line of stdout.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine/explainer_engine.h"
#include "eval/experiment.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/telemetry/json_util.h"
#include "util/telemetry/metrics.h"

namespace {

using namespace landmark;  // NOLINT

// ---------------------------------------------------------------------------
// Clocks and spans.

double NowSeconds() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string request;
  double start = 0.0;
  double end = 0.0;
};

/// Per-layer self time: each span's duration minus the part of its interval
/// covered by its children.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    std::vector<std::pair<double, double>>& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, s.end));
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// One pass: accumulators for every layer plus the traced spans.

/// The engine's work counters, from a batch's EngineStats or, for ExplainOne
/// (which returns none), as deltas of the global telemetry counters the
/// engine bumps on every unit.
struct EngineCounts {
  uint64_t units = 0, masks = 0, model_queries = 0, cache_hits = 0;
  uint64_t token_cache_hits = 0, token_cache_misses = 0;

  static EngineCounts Of(const EngineStats& s) {
    return {s.num_units,         s.num_masks,        s.num_model_queries,
            s.cache_hits,        s.token_cache_hits, s.token_cache_misses};
  }
  static EngineCounts FromTelemetry() {
    static const std::vector<Counter*> counters = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return std::vector<Counter*>{
          &r.GetCounter("engine/units"),
          &r.GetCounter("engine/masks"),
          &r.GetCounter("engine/model_queries"),
          &r.GetCounter("engine/cache_hits"),
          &r.GetCounter("text/token_cache_hits"),
          &r.GetCounter("text/token_cache_misses")};
    }();
    return {counters[0]->Value(), counters[1]->Value(), counters[2]->Value(),
            counters[3]->Value(), counters[4]->Value(), counters[5]->Value()};
  }
  EngineCounts operator-(const EngineCounts& o) const {
    return {units - o.units,
            masks - o.masks,
            model_queries - o.model_queries,
            cache_hits - o.cache_hits,
            token_cache_hits - o.token_cache_hits,
            token_cache_misses - o.token_cache_misses};
  }
  void operator+=(const EngineCounts& o) {
    units += o.units;
    masks += o.masks;
    model_queries += o.model_queries;
    cache_hits += o.cache_hits;
    token_cache_hits += o.token_cache_hits;
    token_cache_misses += o.token_cache_misses;
  }
};

struct PassCounters {
  double datagen_s = 0, train_s = 0, engine_s = 0, eval_s = 0;
  double engine_process_cpu_s = 0;
  // Wall of the ExplainBatch calls, whose EngineStats give the stage times
  // below; stats_probe_s is the part spent in traced-only stats probes.
  double stats_wall_s = 0, stats_probe_s = 0;
  size_t datagen_pairs = 0, train_pairs = 0;
  size_t batches = 0, records_attempted = 0, records_explained = 0;
  size_t failed_records = 0, eval_errors = 0, eval_model_calls = 0;
  EngineCounts counts;  // of the workload's own engine calls
  double plan_cpu_s = 0, reconstruct_cpu_s = 0, query_cpu_s = 0,
         fit_cpu_s = 0, critical_path_s = 0;
};

class Pass {
 public:
  Pass(int index, bool traced, std::vector<Span>* spans, uint64_t* next_id)
      : traced_(traced), spans_(spans), next_id_(next_id) {
    root_.name = "bench.pass";
    root_.id = (*next_id_)++;
    root_.request = "pass:" + std::to_string(index);
    root_.start = NowSeconds();
  }

  /// Runs `fn` as one call into `layer`, adds its wall time to `*seconds`
  /// and, when traced, records its span.
  template <typename Fn>
  auto Time(const char* layer, const std::string& request, double* seconds,
            Fn&& fn) {
    const double start = NowSeconds();
    auto result = fn();
    const double end = NowSeconds();
    *seconds += end - start;
    last_call_s_ = end - start;
    if (traced_) {
      spans_->push_back(
          Span{layer, (*next_id_)++, root_.id, request, start, end});
    }
    return result;
  }

  /// Closes the pass; returns its wall time.
  double Finish() {
    root_.end = NowSeconds();
    if (traced_) spans_->push_back(root_);
    return root_.end - root_.start;
  }

  double last_call_s() const { return last_call_s_; }
  bool traced() const { return traced_; }
  PassCounters c;

 private:
  bool traced_;
  std::vector<Span>* spans_;
  uint64_t* next_id_;
  Span root_;
  double last_call_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Checks and digests.

class Checks {
 public:
  void Fail(const std::string& name, const std::string& detail) {
    if (failures_.size() < 20) failures_.push_back(name + ": " + detail);
    ++num_failed_;
  }
  const std::vector<std::string>& failures() const { return failures_; }
  size_t num_failed() const { return num_failed_; }

 private:
  std::vector<std::string> failures_;
  size_t num_failed_ = 0;
};

/// FNV-1a over the identity and bit pattern of every token weight.
class Digest {
 public:
  void Add(const std::vector<Explanation>& explanations) {
    for (const Explanation& e : explanations) {
      Bytes(e.explainer_name.data(), e.explainer_name.size());
      for (const TokenWeight& tw : e.token_weights) {
        Value(tw.token.attribute);
        Value(tw.token.occurrence);
        Bytes(tw.token.text.data(), tw.token.text.size());
        Value(static_cast<int>(tw.token.side));
        Value(tw.token.injected);
        Value(tw.weight);
      }
    }
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
    hash_ = (hash_ ^ 0xff) * 0x100000001b3ULL;  // field separator
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Layer calls.

struct Workload;
struct PassOutput {
  std::vector<std::string> table2_rows;  // "a|<row>" / "b|<row>"
  std::vector<double> latencies_ms;
};
using PassFn = Status (*)(const Workload&, Pass&, Checks&,
                          const ExplainerEngine&, const ExperimentConfig&,
                          Digest*, PassOutput*);

/// Why each workload exists is recorded in README.md.
struct Workload {
  std::string name;
  PassFn run_pass;
  std::vector<std::string> datasets;
  size_t threads;
  size_t records_per_label;
  /// ExplainOne calls on matching records of the workload's first dataset
  /// after its batch phase (batch workloads): they give the record latency
  /// and must reproduce the batch's explanations. One dataset and one label,
  /// so that the median does not fall between two groups' modes.
  size_t probes;
};

struct Prepared {
  MagellanDatasetSpec spec;
  EmDataset dataset;
  std::unique_ptr<LogRegEmModel> model;
  std::vector<size_t> sample[2];  // [0] = match, [1] = non-match
};

/// Generates and trains one dataset and samples its records, exactly as
/// ExperimentContext::Create does.
Result<Prepared> Setup(Pass& pass, const std::string& code,
                       const ExperimentConfig& config) {
  Prepared p;
  LANDMARK_ASSIGN_OR_RETURN(p.spec, FindMagellanSpec(code));
  MagellanGenOptions gen = config.gen_options;
  gen.size_scale = config.size_scale;
  LANDMARK_ASSIGN_OR_RETURN(
      p.dataset, pass.Time("datagen", code, &pass.c.datagen_s, [&] {
        return GenerateMagellanDataset(p.spec, gen);
      }));
  pass.c.datagen_pairs += p.dataset.size();
  LANDMARK_ASSIGN_OR_RETURN(
      p.model, pass.Time("em.train", code, &pass.c.train_s, [&] {
        return LogRegEmModel::Train(p.dataset, config.model_options);
      }));
  pass.c.train_pairs += p.dataset.size();
  Rng rng(config.sample_seed ^ p.spec.seed);
  p.sample[0] = p.dataset.SampleByLabel(MatchLabel::kMatch,
                                        config.records_per_label, rng);
  p.sample[1] = p.dataset.SampleByLabel(MatchLabel::kNonMatch,
                                        config.records_per_label, rng);
  return p;
}

/// One ExplainRecords call (ExplainBatch plus moving the results into
/// ExplainedRecords), timed as `layer` into `*seconds`. Adds its EngineStats'
/// stage times to the pass and checks that its counters reconcile.
ExplainBatchResult Batch(Pass& pass, Checks& checks, const char* layer,
                         double* seconds, const ExplainerEngine& engine,
                         const Prepared& p, const std::vector<size_t>& indices,
                         const PairExplainer& explainer,
                         const std::string& request) {
  ExplainBatchResult batch = pass.Time(layer, request, seconds, [&] {
    return ExplainRecords(*p.model, explainer, p.dataset, indices, engine);
  });
  const EngineStats& s = batch.stats;
  if (s.num_masks != s.num_model_queries + s.cache_hits) {
    checks.Fail("reconcile.masks", request + ": " + s.ToString());
  }
  if (s.num_records != indices.size() ||
      batch.records.size() + batch.num_skipped != indices.size() ||
      s.num_failed_records != batch.num_skipped) {
    checks.Fail("reconcile.records", request + ": " + s.ToString());
  }
  PassCounters& c = pass.c;
  ++c.batches;
  c.stats_wall_s += pass.last_call_s();
  c.plan_cpu_s += s.plan_seconds;
  c.reconstruct_cpu_s += s.reconstruct_seconds;
  c.query_cpu_s += s.query_seconds;
  c.fit_cpu_s += s.fit_seconds;
  c.critical_path_s += s.critical_path_seconds;
  return batch;
}

/// One batch of the workload: a Batch call whose records and work counters
/// count towards the pass.
ExplainBatchResult Explain(Pass& pass, Checks& checks,
                           const ExplainerEngine& engine, const Prepared& p,
                           const std::vector<size_t>& indices,
                           const PairExplainer& explainer,
                           const std::string& request) {
  const double cpu0 = ProcessCpuSeconds();
  ExplainBatchResult batch = Batch(pass, checks, "engine", &pass.c.engine_s,
                                   engine, p, indices, explainer, request);
  PassCounters& c = pass.c;
  c.engine_process_cpu_s += ProcessCpuSeconds() - cpu0;
  c.records_attempted += indices.size();
  c.records_explained += batch.records.size();
  c.failed_records += batch.num_skipped;
  c.counts += EngineCounts::Of(batch.stats);
  return batch;
}

/// One ExplainOne call, the single-record path a practitioner takes: times
/// it, records its latency and counts its work from the engine's telemetry
/// counters.
Result<std::vector<Explanation>> ExplainOne(
    Pass& pass, Checks& checks, const ExplainerEngine& engine,
    const Prepared& p, size_t index, const PairExplainer& explainer,
    const std::string& request, PassOutput* out) {
  const EngineCounts before = EngineCounts::FromTelemetry();
  const double cpu0 = ProcessCpuSeconds();
  auto result = pass.Time("engine", request, &pass.c.engine_s, [&] {
    return engine.ExplainOne(*p.model, p.dataset.pair(index), explainer);
  });
  PassCounters& c = pass.c;
  c.engine_process_cpu_s += ProcessCpuSeconds() - cpu0;
  out->latencies_ms.push_back(pass.last_call_s() * 1e3);
  const EngineCounts counts = EngineCounts::FromTelemetry() - before;
  if (counts.masks != counts.model_queries + counts.cache_hits) {
    checks.Fail("reconcile.masks", request);
  }
  ++c.records_attempted;
  ++(result.ok() ? c.records_explained : c.failed_records);
  c.counts += counts;
  return result;
}

/// Whether `one` (an ExplainOne result) carries the same explanations as
/// `expected` (the batch's record of the same pair, or null if it failed).
bool SameAsBatch(const Result<std::vector<Explanation>>& one,
                 const ExplainedRecord* expected) {
  if (!one.ok() || expected == nullptr) return !one.ok() && expected == nullptr;
  Digest a, b;
  a.Add(*one);
  b.Add(expected->explanations);
  return a.Hex() == b.Hex();
}

const ExplainedRecord* FindRecord(const ExplainBatchResult& batch,
                                  size_t pair_index) {
  for (const ExplainedRecord& r : batch.records) {
    if (r.pair_index == pair_index) return &r;
  }
  return nullptr;
}

/// One EvaluateTokenRemoval call; an error counts as a failed operation.
TokenRemovalResult Evaluate(Pass& pass, Checks& checks, const Prepared& p,
                            const PairExplainer& explainer,
                            const std::vector<ExplainedRecord>& records,
                            const ExperimentConfig& config,
                            const std::string& request) {
  auto eval = pass.Time("eval", request, &pass.c.eval_s, [&] {
    return EvaluateTokenRemoval(*p.model, explainer, p.dataset, records,
                                config.token_removal);
  });
  if (!eval.ok()) {
    ++pass.c.eval_errors;
    checks.Fail("eval", request + ": " + eval.status().ToString());
    return {};
  }
  pass.c.eval_model_calls += eval->num_trials;
  if (!(eval->accuracy >= 0.0 && eval->accuracy <= 1.0 && eval->mae >= 0.0 &&
        eval->mae <= 1.0)) {
    checks.Fail("eval.range", request);
  }
  return *eval;
}

// ---------------------------------------------------------------------------
// Workload passes.

const char* LabelName(int label) { return label == 0 ? "match" : "nonmatch"; }

/// ExplainOne calls on the first `count` matching records; each must
/// reproduce (digest-equal) its explanations in `match_batch`.
void Probe(Pass& pass, Checks& checks, const ExplainerEngine& engine,
           const Prepared& p, const PairExplainer& explainer,
           const ExplainBatchResult& match_batch, size_t count,
           PassOutput* out) {
  const std::vector<size_t>& sample = p.sample[0];
  for (size_t i = 0; i < std::min(count, sample.size()); ++i) {
    const std::string request =
        "record:" + p.spec.code + "/" + std::to_string(sample[i]);
    const auto one = ExplainOne(pass, checks, engine, p, sample[i], explainer,
                                request, out);
    if (!SameAsBatch(one, FindRecord(match_batch, sample[i]))) {
      checks.Fail("batch_equals_record", request);
    }
  }
}

Status RunTable2Pass(const Workload& w, Pass& pass, Checks& checks,
                     const ExplainerEngine& engine,
                     const ExperimentConfig& config,
                     Digest* digest, PassOutput* out) {
  std::vector<Technique> techniques = MakeTechniques(config.explainer_options);
  TablePrinter ta({"", "Single Acc", "Single MAE", "Double Acc", "Double MAE",
                   "LIME Acc", "LIME MAE"});
  TablePrinter tb({"", "Single Acc", "Single MAE", "Double Acc", "Double MAE",
                   "LIME Acc", "LIME MAE", "Copy Acc", "Copy MAE"});
  for (const std::string& code : w.datasets) {
    LANDMARK_ASSIGN_OR_RETURN(Prepared p, Setup(pass, code, config));
    ExplainBatchResult double_match;
    for (int label = 0; label < 2; ++label) {
      std::vector<double> cells;
      for (size_t t = 0; t < techniques.size(); ++t) {
        if (techniques[t].non_match_only && label == 0) continue;
        const std::string request = "batch:" + code + "/" +
                                    techniques[t].label + "/" +
                                    LabelName(label);
        ExplainBatchResult batch =
            Explain(pass, checks, engine, p, p.sample[label],
                    *techniques[t].explainer, request);
        for (const ExplainedRecord& r : batch.records) {
          digest->Add(r.explanations);
        }
        TokenRemovalResult eval =
            Evaluate(pass, checks, p, *techniques[t].explainer, batch.records,
                     config, request);
        cells.push_back(eval.accuracy);
        cells.push_back(eval.mae);
        if (t == 1 && label == 0) double_match = std::move(batch);
      }
      (label == 0 ? ta : tb).AddRow(code, cells);
    }
    if (code == w.datasets.front()) {
      Probe(pass, checks, engine, p, *techniques[1].explainer, double_match,
            w.probes, out);
    }
  }
  for (const auto& [tag, table] :
       {std::pair{"a", &ta}, std::pair{"b", &tb}}) {
    for (const std::string& line : Split(table->ToString(), '\n')) {
      for (const std::string& code : w.datasets) {
        if (StartsWith(line, "| " + code + " |")) {
          out->table2_rows.push_back(std::string(tag) + "|" + line);
        }
      }
    }
  }
  return Status::OK();
}

Status RunBatchPass(const Workload& w, Pass& pass, Checks& checks,
                    const ExplainerEngine& engine,
                    const ExperimentConfig& config,
                    Digest* digest, PassOutput* out) {
  LandmarkExplainer explainer(GenerationStrategy::kDouble,
                              config.explainer_options);
  for (const std::string& code : w.datasets) {
    LANDMARK_ASSIGN_OR_RETURN(Prepared p, Setup(pass, code, config));
    ExplainBatchResult batches[2];
    for (int label = 0; label < 2; ++label) {
      const std::string request =
          "batch:" + code + "/Double/" + LabelName(label);
      batches[label] = Explain(pass, checks, engine, p, p.sample[label],
                               explainer, request);
      for (const ExplainedRecord& r : batches[label].records) {
        digest->Add(r.explanations);
      }
      Evaluate(pass, checks, p, explainer, batches[label].records, config,
               request);
    }
    if (code == w.datasets.front()) {
      Probe(pass, checks, engine, p, explainer, batches[0], w.probes, out);
    }
  }
  return Status::OK();
}

/// ExplainOne returns no EngineStats. On traced passes each record is
/// therefore also explained as a one-record batch (layer "engine.stats"),
/// which gives the stage times and critical path and must reproduce the
/// ExplainOne explanations. Untraced passes make ExplainOne calls only.
Status RunInteractivePass(const Workload& w, Pass& pass, Checks& checks,
                          const ExplainerEngine& engine,
                          const ExperimentConfig& config,
                          Digest* digest, PassOutput* out) {
  LandmarkExplainer explainer(GenerationStrategy::kDouble,
                              config.explainer_options);
  for (const std::string& code : w.datasets) {
    LANDMARK_ASSIGN_OR_RETURN(Prepared p, Setup(pass, code, config));
    std::vector<ExplainedRecord> explained;
    for (int label = 0; label < 2; ++label) {
      for (size_t idx : p.sample[label]) {
        const std::string request =
            "record:" + code + "/" + std::to_string(idx);
        auto one =
            ExplainOne(pass, checks, engine, p, idx, explainer, request, out);
        if (pass.traced()) {
          const ExplainBatchResult batch =
              Batch(pass, checks, "engine.stats", &pass.c.stats_probe_s,
                    engine, p, {idx}, explainer, request);
          if (!SameAsBatch(one, FindRecord(batch, idx))) {
            checks.Fail("batch_equals_record", request);
          }
        }
        if (!one.ok()) continue;
        digest->Add(*one);
        explained.push_back(ExplainedRecord{idx, std::move(one).ValueOrDie()});
      }
    }
    Evaluate(pass, checks, p, explainer, explained, config,
             "records:" + code + "/Double");
  }
  return Status::OK();
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"paper-table2", RunTable2Pass, {"S-DG", "T-AB", "D-IA", "S-BR"}, 4, 100,
       64},
      {"explain-textual-1t", RunBatchPass, {"T-AB"}, 1, 60, 50},
      {"interactive-small", RunInteractivePass,
       {"S-BR", "S-IA", "S-FZ", "D-IA"}, 4, 100, 0},
  };
  return workloads;
}

// ---------------------------------------------------------------------------
// Output.

std::string Quote(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

std::string PassJson(const PassCounters& c, bool traced, double wall_s,
                     const std::string& digest,
                     const std::map<std::string, double>& self) {
  std::ostringstream os;
  auto num = [&](const char* key, double v) {
    os << ",\"" << key << "\":" << JsonDouble(v);
  };
  os << "{\"traced\":" << (traced ? "true" : "false");
  num("wall_s", wall_s);
  num("datagen_s", c.datagen_s);
  num("train_s", c.train_s);
  num("engine_s", c.engine_s);
  num("eval_s", c.eval_s);
  num("engine_process_cpu_s", c.engine_process_cpu_s);
  num("stats_wall_s", c.stats_wall_s);
  num("stats_probe_s", c.stats_probe_s);
  num("datagen_pairs", c.datagen_pairs);
  num("train_pairs", c.train_pairs);
  num("batches", c.batches);
  num("records_attempted", c.records_attempted);
  num("records_explained", c.records_explained);
  num("failed_records", c.failed_records);
  num("eval_errors", c.eval_errors);
  num("eval_model_calls", c.eval_model_calls);
  num("units", c.counts.units);
  num("masks", c.counts.masks);
  num("model_queries", c.counts.model_queries);
  num("cache_hits", c.counts.cache_hits);
  num("token_cache_hits", c.counts.token_cache_hits);
  num("token_cache_misses", c.counts.token_cache_misses);
  num("plan_cpu_s", c.plan_cpu_s);
  num("reconstruct_cpu_s", c.reconstruct_cpu_s);
  num("query_cpu_s", c.query_cpu_s);
  num("fit_cpu_s", c.fit_cpu_s);
  num("critical_path_s", c.critical_path_s);
  os << ",\"digest\":" << Quote(digest) << ",\"self_s\":{";
  bool first = true;
  for (const auto& [name, seconds] : self) {
    os << (first ? "" : ",") << Quote(name) << ":" << JsonDouble(seconds);
    first = false;
  }
  os << "}}";
  return os.str();
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream file(path);
  for (const Span& s : spans) {
    file << "{\"name\":" << Quote(s.name) << ",\"id\":" << s.id
         << ",\"parent\":" << s.parent << ",\"request\":" << Quote(s.request)
         << ",\"start_s\":" << JsonDouble(s.start)
         << ",\"end_s\":" << JsonDouble(s.end) << "}\n";
  }
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return 2;
  }
  const std::string name = flags->GetString("workload", "");
  const auto it =
      std::find_if(Workloads().begin(), Workloads().end(),
                   [&](const Workload& w) { return w.name == name; });
  if (it == Workloads().end()) {
    std::cerr << "perfbench: unknown --workload '" << name << "'\n";
    return 2;
  }
  const Workload& w = *it;
  const int64_t seed_flag = flags->GetInt("seed", 0);
  const double budget_s = flags->GetDouble("seconds", 10.0);
  const bool trace = flags->GetInt("trace", 0) != 0;
  const std::string spans_out = flags->GetString("spans-out", "");
  if (seed_flag < 0 || budget_s <= 0.0) {
    std::cerr << "perfbench: --seed must be >= 0 and --seconds > 0\n";
    return 2;
  }
  const auto seed = static_cast<uint64_t>(seed_flag);
  SetLogLevel(LogLevel::kWarning);

  // The paper protocol. The seed moves the explainers' and the evaluation's
  // random streams (which perturbations are sampled, which tokens are
  // removed); datasets and record samples stay the paper's, so every seed
  // does the same amount of work and seed 0 is the paper run itself.
  const uint64_t seed_mix = seed * 0x9e3779b97f4a7c15ULL;
  ExperimentConfig config;
  config.explainer_options.seed ^= seed_mix;
  config.token_removal.seed ^= seed_mix;
  config.records_per_label = w.records_per_label;
  config.engine_options.num_threads = w.threads;
  const ExplainerEngine engine = config.MakeEngine();

  Checks checks;
  std::vector<Span> spans;
  uint64_t next_id = 1;
  std::vector<std::string> pass_json;
  std::string first_digest;
  PassOutput out;
  const double t0 = NowSeconds();
  double last_pass_s = 0.0;
  // Untraced and traced passes alternate in a traced run, starting with an
  // untraced one. An untraced run makes at least two passes, so medians and
  // the latency tail always rest on two. A traced run makes at least three,
  // so its tracing overhead can compare warm passes only. A run stops once
  // another pass would overrun the budget by more than half a pass.
  const int min_passes = trace ? 3 : 2;
  for (int index = 0;; ++index) {
    const bool traced = trace && index % 2 == 1;
    if (index >= min_passes &&
        NowSeconds() - t0 + 0.5 * last_pass_s >= budget_s) {
      break;
    }
    const size_t first_span = spans.size();
    Pass pass(index, traced, &spans, &next_id);
    Digest digest;
    PassOutput pass_out;
    const Status status =
        w.run_pass(w, pass, checks, engine, config, &digest, &pass_out);
    if (!status.ok()) {
      std::cerr << "perfbench: " << w.name << ": " << status.ToString() << "\n";
      return 1;
    }
    last_pass_s = pass.Finish();
    std::map<std::string, double> self;
    if (traced) {
      self = SelfTimes(
          std::vector<Span>(spans.begin() + first_span, spans.end()));
    }
    pass_json.push_back(
        PassJson(pass.c, traced, last_pass_s, digest.Hex(), self));
    if (index == 0) first_digest = digest.Hex();
    if (digest.Hex() != first_digest) {
      checks.Fail("determinism.pass_digest",
                  digest.Hex() + " vs " + first_digest);
    }
    if (pass.c.records_attempted !=
        pass.c.records_explained + pass.c.failed_records) {
      checks.Fail("reconcile.pass_records", "pass " + std::to_string(index));
    }
    if (index == 0) out.table2_rows = pass_out.table2_rows;
    if (!traced) {
      out.latencies_ms.insert(out.latencies_ms.end(),
                              pass_out.latencies_ms.begin(),
                              pass_out.latencies_ms.end());
    }
  }
  if (!spans_out.empty()) WriteSpans(spans_out, spans);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::ostringstream os;
  os << "{\"workload\":" << Quote(w.name) << ",\"seed\":" << seed
     << ",\"manifest\":{\"isa\":" << Quote(simd::ActiveIsaName())
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"engine_threads\":" << engine.num_threads()
     << ",\"compiler\":" << Quote(PERFBENCH_COMPILER)
     << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE) << ",\"datasets\":[";
  for (size_t i = 0; i < w.datasets.size(); ++i) {
    os << (i ? "," : "") << Quote(w.datasets[i]);
  }
  os << "]},\"peak_rss_mb\":" << JsonDouble(usage.ru_maxrss / 1024.0)
     << ",\"passes\":[";
  for (size_t i = 0; i < pass_json.size(); ++i) {
    os << (i ? "," : "") << pass_json[i];
  }
  os << "],\"latencies_ms\":[";
  for (size_t i = 0; i < out.latencies_ms.size(); ++i) {
    os << (i ? "," : "") << JsonDouble(out.latencies_ms[i]);
  }
  os << "],\"table2_rows\":[";
  for (size_t i = 0; i < out.table2_rows.size(); ++i) {
    os << (i ? "," : "") << Quote(out.table2_rows[i]);
  }
  os << "],\"check_failures\":" << checks.num_failed() << ",\"failures\":[";
  for (size_t i = 0; i < checks.failures().size(); ++i) {
    os << (i ? "," : "") << Quote(checks.failures()[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
