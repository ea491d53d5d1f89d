// Engine-level flight-deck tests: scraping /statusz, /statusz?format=json
// and /profilez *during* an in-flight multi-threaded ExplainBatch must
// return well-formed responses describing the batch (and never perturb the
// explanations), and a model made slow on the injectable deck clock must
// raise `engine/stalls_total` with a structured stall entry in the audit
// batch trailer — all bit-identical to a run with the flight deck disabled.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine/explainer_engine.h"
#include "core/landmark_explainer.h"
#include "datagen/magellan.h"
#include "em/logreg_em_model.h"
#include "util/telemetry/audit.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/http_exporter.h"
#include "util/telemetry/metrics.h"
#include "util/timer.h"

namespace landmark {
namespace {

const EmDataset& TestDataset() {
  static const EmDataset* dataset = [] {
    MagellanGenOptions gen;
    gen.size_scale = 0.25;
    return new EmDataset(
        *GenerateMagellanDataset(*FindMagellanSpec("S-AG"), gen));
  }();
  return *dataset;
}

const EmModel& TestModel() {
  static const EmModel* model =
      LogRegEmModel::Train(TestDataset()).ValueOrDie().release();
  return *model;
}

std::vector<const PairRecord*> TestPairs(size_t n) {
  std::vector<const PairRecord*> pairs;
  for (size_t i = 0; i < n && i < TestDataset().size(); ++i) {
    pairs.push_back(&TestDataset().pair(i));
  }
  return pairs;
}

/// Bit-identical comparison — the flight deck must never change a single
/// double of any explanation.
void ExpectIdenticalResults(const EngineBatchResult& a,
                            const EngineBatchResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].ok(), b.results[i].ok()) << label << " rec " << i;
    if (!a.results[i].ok()) continue;
    const std::vector<Explanation>& ea = *a.results[i];
    const std::vector<Explanation>& eb = *b.results[i];
    ASSERT_EQ(ea.size(), eb.size()) << label << " rec " << i;
    for (size_t e = 0; e < ea.size(); ++e) {
      EXPECT_EQ(ea[e].model_prediction, eb[e].model_prediction)
          << label << " rec " << i << " expl " << e;
      EXPECT_EQ(ea[e].surrogate_intercept, eb[e].surrogate_intercept)
          << label << " rec " << i << " expl " << e;
      EXPECT_EQ(ea[e].surrogate_r2, eb[e].surrogate_r2)
          << label << " rec " << i << " expl " << e;
      ASSERT_EQ(ea[e].token_weights.size(), eb[e].token_weights.size());
      for (size_t t = 0; t < ea[e].token_weights.size(); ++t) {
        EXPECT_EQ(ea[e].token_weights[t].weight, eb[e].token_weights[t].weight)
            << label << " rec " << i << " expl " << e << " token " << t;
      }
    }
  }
}

uint64_t StallsTotal() {
  return MetricsRegistry::Global().Snapshot().CounterValue(
      "engine/stalls_total", 0);
}

/// Delegating model that parks every query-stage scoring call at a gate
/// until the test releases it, so the batch is verifiably in flight while
/// the test scrapes the exporter. Plan-stage single predictions pass
/// through — only the range/prepared paths (the query stage) gate.
class GateModel : public EmModel {
 public:
  explicit GateModel(const EmModel& inner) : inner_(inner) {}

  double PredictProba(const PairRecord& pair) const override {
    return inner_.PredictProba(pair);
  }
  void PredictProbaRange(const std::vector<PairRecord>& pairs, size_t begin,
                         size_t end, double* out) const override {
    WaitAtGate();
    inner_.PredictProbaRange(pairs, begin, end, out);
  }
  void PredictProbaPrepared(const PreparedPairBatch& prepared, size_t begin,
                            size_t end, double* out) const override {
    WaitAtGate();
    inner_.PredictProbaPrepared(prepared, begin, end, out);
  }
  std::string name() const override { return inner_.name(); }

  bool in_query() const { return in_query_.load(std::memory_order_acquire); }
  void Release() { release_.store(true, std::memory_order_release); }

 private:
  void WaitAtGate() const {
    in_query_.store(true, std::memory_order_release);
    while (!release_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  const EmModel& inner_;
  mutable std::atomic<bool> in_query_{false};
  std::atomic<bool> release_{false};
};

TEST(EngineFlightDeckTest, ConcurrentScrapeDuringInFlightBatch) {
  const std::vector<const PairRecord*> pairs = TestPairs(4);
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, explainer_options);

  EngineOptions options;
  options.num_threads = 4;

  auto exporter = HttpExporter::Start({});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  const uint16_t port = (*exporter)->port();

  GateModel gated(TestModel());
  ExplainerEngine engine(options);
  EngineBatchResult gated_result;
  // landmark-lint: allow(raw-thread) the batch must run while this test
  // thread scrapes the exporter; the pool is busy being the thing observed
  std::thread batch_thread([&] {
    gated_result = engine.ExplainBatch(gated, pairs, explainer);
  });

  // Wait (bounded, no sleeping) until a worker is parked inside the query
  // stage, i.e. the batch is genuinely in flight.
  Timer timer;
  while (!gated.in_query() && timer.ElapsedSeconds() < 30.0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(gated.in_query()) << "batch never reached the query stage";

  // Scrape repeatedly while the batch is pinned in flight: every response
  // must be well-formed and describe the live batch.
  for (int round = 0; round < 3; ++round) {
    int status = 0;
    auto text = HttpGetLoopback(port, "/statusz", &status);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(status, 200);
    EXPECT_NE(text->find("engine/batches"), std::string::npos);
    EXPECT_NE(text->find("-- flight deck --"), std::string::npos);
    EXPECT_NE(text->find(": records=4 "),
              std::string::npos)
        << *text;

    auto json = HttpGetLoopback(port, "/statusz?format=json", &status);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    EXPECT_EQ(status, 200);
    ASSERT_FALSE(json->empty());
    EXPECT_EQ(json->front(), '{');
    // Per-stage DAG node counts of the attached graph.
    EXPECT_NE(json->find("\"stage\":\"engine/"), std::string::npos) << *json;
    EXPECT_NE(json->find("\"pending\":"), std::string::npos);
    EXPECT_NE(json->find("\"done\":"), std::string::npos);
    // Per-worker activity: the pool workers are registered and at least one
    // is parked inside an engine stage right now.
    EXPECT_NE(json->find("\"worker\":\"pool-worker-"), std::string::npos)
        << *json;
    EXPECT_NE(json->find("engine/"), std::string::npos);
  }

  // A short profile window while workers hold engine-stage frames must
  // observe at least one folded stack naming an engine stage.
  int status = 0;
  auto profile = HttpGetLoopback(port, "/profilez?seconds=0.3", &status);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(status, 200);
  EXPECT_NE(profile->find("engine/"), std::string::npos) << *profile;

  gated.Release();
  batch_thread.join();
  (*exporter)->Stop();

  // The scraped run explains bit-identically to an unobserved one.
  EngineBatchResult plain =
      ExplainerEngine(options).ExplainBatch(TestModel(), pairs, explainer);
  ExpectIdenticalResults(gated_result, plain, "scraped-vs-plain");
}

std::atomic<uint64_t> g_fake_now_ns{0};
uint64_t FakeNow() { return g_fake_now_ns.load(std::memory_order_relaxed); }

/// Delegating model whose *first* query-stage call advances the fake deck
/// clock past the stall threshold and then holds the node open until the
/// engine's watchdog has reported the stall (bounded by a real-time
/// timeout). Scoring itself is untouched, so explanations stay identical.
class SlowFirstQueryModel : public EmModel {
 public:
  SlowFirstQueryModel(const EmModel& inner, uint64_t stalls_baseline)
      : inner_(inner), stalls_baseline_(stalls_baseline) {}

  double PredictProba(const PairRecord& pair) const override {
    return inner_.PredictProba(pair);
  }
  void PredictProbaRange(const std::vector<PairRecord>& pairs, size_t begin,
                         size_t end, double* out) const override {
    StallOnce();
    inner_.PredictProbaRange(pairs, begin, end, out);
  }
  void PredictProbaPrepared(const PreparedPairBatch& prepared, size_t begin,
                            size_t end, double* out) const override {
    StallOnce();
    inner_.PredictProbaPrepared(prepared, begin, end, out);
  }
  std::string name() const override { return inner_.name(); }

 private:
  void StallOnce() const {
    if (stalled_.exchange(true)) return;
    g_fake_now_ns.fetch_add(uint64_t{10} * 1000 * 1000 * 1000,
                            std::memory_order_relaxed);
    // Keep the node running until the watchdog (real-time 5ms poll) sees
    // the 10 virtual seconds of elapsed node time. Bounded spin.
    Timer timer;
    while (StallsTotal() <= stalls_baseline_ &&
           timer.ElapsedSeconds() < 30.0) {
      std::this_thread::yield();
    }
  }

  const EmModel& inner_;
  const uint64_t stalls_baseline_;
  mutable std::atomic<bool> stalled_{false};
};

std::string LastLine(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string last;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) last = line;
  }
  return last;
}

TEST(EngineFlightDeckTest, StallRaisesCounterAndAuditTrailer) {
  const std::vector<const PairRecord*> pairs = TestPairs(2);
  ExplainerOptions explainer_options;
  explainer_options.num_samples = 64;
  LandmarkExplainer explainer(GenerationStrategy::kDouble, explainer_options);

  const std::string audit_path =
      ::testing::TempDir() + "/flight_deck_stall_audit.jsonl";
  const uint64_t baseline = StallsTotal();

  g_fake_now_ns.store(1000, std::memory_order_relaxed);
  SetFlightDeckClockForTest(&FakeNow);
  EngineBatchResult slow_result;
  {
    auto sink = AuditSink::Open(audit_path);
    ASSERT_TRUE(sink.ok()) << sink.status().ToString();
    EngineOptions options;
    options.num_threads = 1;
    options.stall_threshold = 0.5;
    options.audit_sink = sink->get();
    SlowFirstQueryModel slow(TestModel(), baseline);
    slow_result = ExplainerEngine(options).ExplainBatch(slow, pairs,
                                                        explainer);
  }
  SetFlightDeckClockForTest(nullptr);

  // The watchdog counted the stall...
  EXPECT_GE(StallsTotal(), baseline + 1);

  // ...and the audit batch trailer carries the structured report.
  const std::string trailer = LastLine(audit_path);
  ASSERT_NE(trailer.find("\"type\":\"batch\""), std::string::npos) << trailer;
  EXPECT_EQ(trailer.find("\"num_stalls\":0"), std::string::npos) << trailer;
  EXPECT_NE(trailer.find("\"stalls\":["), std::string::npos) << trailer;
  EXPECT_NE(trailer.find("\"stage\":\"engine/query\""), std::string::npos)
      << trailer;
  EXPECT_NE(trailer.find("\"elapsed_seconds\":"), std::string::npos);
  EXPECT_NE(trailer.find("\"worker\":"), std::string::npos);
  std::remove(audit_path.c_str());

  // Explanations are bit-identical to a run with the flight deck disabled.
  EngineOptions plain_options;
  plain_options.num_threads = 1;
  EngineBatchResult plain =
      ExplainerEngine(plain_options).ExplainBatch(TestModel(), pairs,
                                                  explainer);
  ExpectIdenticalResults(slow_result, plain, "stalled-vs-plain");
}

}  // namespace
}  // namespace landmark
