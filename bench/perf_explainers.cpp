// Micro-benchmarks (google-benchmark) for the performance-critical pieces:
// feature extraction, EM model inference, perturbation sampling, surrogate
// fitting, full explanations per technique, and the ExplainerEngine batch
// path at different worker-thread counts.
//
// On top of google-benchmark's own flags, --metrics-out=FILE dumps the
// metrics registry (per-stage engine histograms, model-query latency, pool
// stats) and --trace-out=FILE records a Chrome/Perfetto trace of the run.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

#include "core/landmark_explanation.h"
#include "core/sampling.h"
#include "core/surrogate.h"
#include "datagen/magellan.h"
#include "em/forest_em_model.h"
#include "util/telemetry/telemetry.h"

namespace landmark {
namespace {

/// Lazily-built shared fixture: a mid-sized product dataset and its model.
struct PerfContext {
  EmDataset dataset;
  std::unique_ptr<LogRegEmModel> model;
};

const PerfContext& GetContext() {
  static const PerfContext& context = *[] {
    auto* ctx = new PerfContext();
    MagellanGenOptions gen;
    gen.size_scale = 0.25;
    ctx->dataset = GenerateMagellanDataset(*FindMagellanSpec("S-AG"), gen)
                       .ValueOrDie();
    ctx->model =
        std::move(LogRegEmModel::Train(ctx->dataset)).ValueOrDie();
    return ctx;
  }();
  return context;
}

void BM_FeatureExtraction(benchmark::State& state) {
  const PerfContext& ctx = GetContext();
  const FeatureExtractor& fx = ctx.model->feature_extractor();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.Extract(ctx.dataset.pair(i)));
    i = (i + 1) % ctx.dataset.size();
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_ModelPredict(benchmark::State& state) {
  const PerfContext& ctx = GetContext();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.model->PredictProba(ctx.dataset.pair(i)));
    i = (i + 1) % ctx.dataset.size();
  }
}
BENCHMARK(BM_ModelPredict);

void BM_MaskSampling(benchmark::State& state) {
  Rng rng(1);
  const size_t dim = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SamplePerturbationMasks(dim, 384, rng));
  }
}
BENCHMARK(BM_MaskSampling)->Arg(10)->Arg(40)->Arg(160);

void BM_SurrogateFit(benchmark::State& state) {
  Rng rng(2);
  const size_t dim = static_cast<size_t>(state.range(0));
  auto masks = SamplePerturbationMasks(dim, 384, rng);
  std::vector<double> targets, weights;
  for (const auto& mask : masks) {
    targets.push_back(ActiveFraction(mask));
    weights.push_back(KernelWeight(mask, 0.25));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitSurrogate(masks, targets, weights, {}));
  }
}
BENCHMARK(BM_SurrogateFit)->Arg(10)->Arg(40)->Arg(160);

template <typename ExplainerT, GenerationStrategy kStrategy>
void BM_LandmarkExplain(benchmark::State& state) {
  const PerfContext& ctx = GetContext();
  ExplainerOptions options;
  options.num_samples = static_cast<size_t>(state.range(0));
  ExplainerT explainer(kStrategy, options);
  size_t i = 0;
  for (auto _ : state) {
    auto result = explainer.Explain(*ctx.model, ctx.dataset.pair(i));
    benchmark::DoNotOptimize(result);
    i = (i + 1) % ctx.dataset.size();
  }
}
BENCHMARK(BM_LandmarkExplain<LandmarkExplainer, GenerationStrategy::kSingle>)
    ->Arg(128)
    ->Arg(384)
    ->Name("BM_ExplainLandmarkSingle");
BENCHMARK(BM_LandmarkExplain<LandmarkExplainer, GenerationStrategy::kDouble>)
    ->Arg(128)
    ->Arg(384)
    ->Name("BM_ExplainLandmarkDouble");

void BM_LimeExplain(benchmark::State& state) {
  const PerfContext& ctx = GetContext();
  ExplainerOptions options;
  options.num_samples = static_cast<size_t>(state.range(0));
  LimeExplainer explainer(options);
  size_t i = 0;
  for (auto _ : state) {
    auto result = explainer.Explain(*ctx.model, ctx.dataset.pair(i));
    benchmark::DoNotOptimize(result);
    i = (i + 1) % ctx.dataset.size();
  }
}
BENCHMARK(BM_LimeExplain)->Arg(128)->Arg(384);

void BM_MojitoCopyExplain(benchmark::State& state) {
  const PerfContext& ctx = GetContext();
  ExplainerOptions options;
  options.num_samples = static_cast<size_t>(state.range(0));
  MojitoCopyExplainer explainer(options);
  size_t i = 0;
  for (auto _ : state) {
    auto result = explainer.Explain(*ctx.model, ctx.dataset.pair(i));
    benchmark::DoNotOptimize(result);
    i = (i + 1) % ctx.dataset.size();
  }
}
BENCHMARK(BM_MojitoCopyExplain)->Arg(128)->Arg(384);

/// Lazily-built forest model on the shared dataset: per-pair inference is an
/// order of magnitude more expensive than logreg, which is where the
/// engine's query-stage parallelism pays off.
const ForestEmModel& GetForestModel() {
  static const ForestEmModel* model =
      std::move(ForestEmModel::Train(GetContext().dataset))
          .ValueOrDie()
          .release();
  return *model;
}

/// The batch path: 16 records per iteration through one engine.
/// state.range(0) = worker threads. The determinism contract makes the
/// thread counts directly comparable — they produce identical explanations.
template <typename ModelGetter>
void BM_EngineBatch(benchmark::State& state, ModelGetter getter) {
  const PerfContext& ctx = GetContext();
  const EmModel& model = getter();
  ExplainerOptions options;
  options.num_samples = 128;
  LandmarkExplainer explainer(GenerationStrategy::kSingle, options);
  EngineOptions engine_options;
  engine_options.num_threads = static_cast<size_t>(state.range(0));
  ExplainerEngine engine(engine_options);
  std::vector<const PairRecord*> batch;
  for (size_t i = 0; i < 16 && i < ctx.dataset.size(); ++i) {
    batch.push_back(&ctx.dataset.pair(i));
  }
  for (auto _ : state) {
    EngineBatchResult result = engine.ExplainBatch(model, batch, explainer);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}

void BM_EngineBatchLogReg(benchmark::State& state) {
  BM_EngineBatch(state,
                 []() -> const EmModel& { return *GetContext().model; });
}
BENCHMARK(BM_EngineBatchLogReg)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_EngineBatchForest(benchmark::State& state) {
  BM_EngineBatch(state, []() -> const EmModel& { return GetForestModel(); });
}
BENCHMARK(BM_EngineBatchForest)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Prediction-memo effect in isolation: tiny token spaces produce many
/// duplicate masks, so the deduplicated query stage calls the model far
/// fewer times than the raw sample count. state.range(0) = cache on/off.
void BM_EnginePredictionCache(benchmark::State& state) {
  const PerfContext& ctx = GetContext();
  ExplainerOptions options;
  options.num_samples = 384;
  LandmarkExplainer explainer(GenerationStrategy::kSingle, options);
  EngineOptions engine_options;
  engine_options.cache_predictions = state.range(0) != 0;
  ExplainerEngine engine(engine_options);
  std::vector<const PairRecord*> batch;
  for (size_t i = 0; i < 8 && i < ctx.dataset.size(); ++i) {
    batch.push_back(&ctx.dataset.pair(i));
  }
  for (auto _ : state) {
    EngineBatchResult result =
        engine.ExplainBatch(*ctx.model, batch, explainer);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EnginePredictionCache)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("cache");

void BM_DatasetGeneration(benchmark::State& state) {
  MagellanDatasetSpec spec = *FindMagellanSpec("S-AG");
  MagellanGenOptions gen;
  gen.size_scale = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateMagellanDataset(spec, gen));
  }
}
BENCHMARK(BM_DatasetGeneration);

}  // namespace
}  // namespace landmark

// Custom main instead of BENCHMARK_MAIN(): benchmark::Initialize aborts on
// flags it does not recognize, so the telemetry flags must be consumed
// (and compacted out of argv) before it runs.
int main(int argc, char** argv) {
  std::string metrics_path, trace_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_path = arg + 14;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_path = arg + 12;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  landmark::TelemetryScope telemetry(metrics_path, trace_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
