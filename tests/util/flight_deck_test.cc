// Flight-deck unit tests: activity-stack push/pop/snapshot semantics
// (including depth clamping), the batch registry, folded-stack rendering,
// a live SamplingProfiler capture, and the stall watchdog driven entirely
// by the injectable deck clock — no real waiting, one report per node
// execution, counter + trailer both updated.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/telemetry/flight_deck.h"
#include "util/telemetry/metrics.h"
#include "util/timer.h"

namespace landmark {
namespace {

std::atomic<uint64_t> g_fake_now_ns{0};
uint64_t FakeNow() { return g_fake_now_ns.load(std::memory_order_relaxed); }

/// Scoped deck-clock override; restores the real clock on destruction so a
/// failing test cannot poison its neighbors.
class FakeClockScope {
 public:
  explicit FakeClockScope(uint64_t start_ns) {
    g_fake_now_ns.store(start_ns, std::memory_order_relaxed);
    SetFlightDeckClockForTest(&FakeNow);
  }
  ~FakeClockScope() { SetFlightDeckClockForTest(nullptr); }

  void AdvanceSeconds(double seconds) {
    g_fake_now_ns.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                            std::memory_order_relaxed);
  }
};

TEST(ThreadActivityTest, PushPopSnapshot) {
  ThreadActivity activity;
  EXPECT_TRUE(activity.SnapshotStack().empty());

  activity.Push("engine/query");
  activity.Push("model/query");
  std::vector<const char*> frames = activity.SnapshotStack();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_STREQ(frames[0], "engine/query");
  EXPECT_STREQ(frames[1], "model/query");

  activity.Pop();
  frames = activity.SnapshotStack();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_STREQ(frames[0], "engine/query");

  activity.Pop();
  EXPECT_TRUE(activity.SnapshotStack().empty());
  activity.Pop();  // unbalanced pop is ignored, not UB
  EXPECT_TRUE(activity.SnapshotStack().empty());
}

TEST(ThreadActivityTest, SnapshotClampsToMaxDepth) {
  ThreadActivity activity;
  for (size_t i = 0; i < kMaxActivityDepth + 3; ++i) {
    activity.Push("frame");
  }
  EXPECT_EQ(activity.SnapshotStack().size(), kMaxActivityDepth);
  // Pops balance the overflow pushes back down.
  for (size_t i = 0; i < kMaxActivityDepth + 3; ++i) {
    activity.Pop();
  }
  EXPECT_TRUE(activity.SnapshotStack().empty());
}

TEST(ThreadActivityTest, RoleLabel) {
  ThreadActivity activity;
  activity.SetRole("pool-worker", 3);
  EXPECT_EQ(activity.Label(), "pool-worker-3");
}

TEST(ThreadActivityTest, NodeTagLifecycle) {
  ThreadActivity activity;
  EXPECT_EQ(activity.SnapshotNode().batch_id, 0u);

  activity.BeginNode(42, "engine/fit", 7, 1);
  ThreadActivity::NodeSnapshot tag = activity.SnapshotNode();
  EXPECT_EQ(tag.batch_id, 42u);
  EXPECT_STREQ(tag.stage, "engine/fit");
  EXPECT_EQ(tag.record_index, 7u);
  EXPECT_EQ(tag.unit_index, 1u);
  const uint64_t generation = tag.generation;

  activity.EndNode();
  EXPECT_EQ(activity.SnapshotNode().batch_id, 0u);

  // A new node execution gets a new generation (the stall dedup key).
  activity.BeginNode(42, "engine/fit", 7, 1);
  EXPECT_GT(activity.SnapshotNode().generation, generation);
  activity.EndNode();
}

TEST(ThreadActivityTest, ClaimStallReportIsOncePerGeneration) {
  ThreadActivity activity;
  activity.BeginNode(1, "engine/query", 0, 0);
  const uint64_t generation = activity.SnapshotNode().generation;
  EXPECT_TRUE(activity.ClaimStallReport(generation));
  EXPECT_FALSE(activity.ClaimStallReport(generation));  // already reported
  activity.EndNode();
  activity.BeginNode(1, "engine/query", 0, 0);
  EXPECT_TRUE(activity.ClaimStallReport(activity.SnapshotNode().generation));
  activity.EndNode();
}

TEST(ActivityRegistryTest, LocalSlotIsRegisteredAndStable) {
  ThreadActivity& slot = ActivityRegistry::Global().Local();
  EXPECT_EQ(&slot, &ActivityRegistry::Global().Local());
  bool found = false;
  for (const auto& live : ActivityRegistry::Global().Slots()) {
    if (live.get() == &slot) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FlightDeckTest, RegisterFindUnregister) {
  FlightDeck& deck = FlightDeck::Global();
  std::shared_ptr<BatchProgress> batch = deck.RegisterBatch(5, 1.5);
  ASSERT_NE(batch, nullptr);
  EXPECT_GT(batch->id(), 0u);
  EXPECT_EQ(batch->num_records(), 5u);
  EXPECT_EQ(batch->stall_threshold(), 1.5);

  EXPECT_EQ(deck.FindBatch(batch->id()), batch);
  deck.UnregisterBatch(batch->id());
  EXPECT_EQ(deck.FindBatch(batch->id()), nullptr);
  // The shared_ptr a scraper grabbed keeps the progress alive regardless.
  EXPECT_EQ(batch->num_records(), 5u);
}

TEST(FlightDeckTest, BatchProgressStallRecording) {
  BatchProgress progress(9, 2, 0.25);
  EXPECT_EQ(progress.num_stalls(), 0u);

  StallReport report;
  report.batch_id = 9;
  report.stage = "engine/query";
  report.record_index = 1;
  report.elapsed_seconds = 3.0;
  report.worker = "pool-worker-0";
  progress.RecordStall(report);
  progress.RecordStall(report);

  std::vector<StallReport> taken = progress.TakeStalls();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_STREQ(taken[0].stage, "engine/query");
  EXPECT_TRUE(progress.TakeStalls().empty());  // drained
  EXPECT_EQ(progress.num_stalls(), 2u);        // monotone count survives
}

TEST(FlightDeckTest, StatusRendersBatchesAndWorkers) {
  BatchProgressScope scope(3, 0.0);
  scope.progress().SetTokenCacheProbe([] {
    return std::vector<size_t>{4, 0, 2};
  });

  const std::string text = FlightDeckStatusText();
  EXPECT_NE(text.find("-- flight deck --"), std::string::npos) << text;
  EXPECT_NE(text.find(": records=3 "), std::string::npos) << text;
  EXPECT_NE(text.find("token_cache shards: 4 0 2 (total 6)"),
            std::string::npos)
      << text;

  const std::string json = FlightDeckStatusJson();
  EXPECT_EQ(json.front(), '{') << json;
  EXPECT_NE(json.find("\"num_records\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"token_cache_shards\":[4,0,2]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"workers\":["), std::string::npos) << json;
}

TEST(SamplingProfilerTest, RenderFoldedIsSortedFlamegraphText) {
  std::map<std::string, uint64_t> counts;
  counts["thread-0;engine/query;model/query"] = 3;
  counts["thread-0;engine/plan"] = 1;
  EXPECT_EQ(SamplingProfiler::RenderFolded(counts),
            "thread-0;engine/plan 1\n"
            "thread-0;engine/query;model/query 3\n");
}

TEST(SamplingProfilerTest, CapturesLiveActivityFrames) {
  SamplingProfiler& profiler = SamplingProfiler::Global();
  profiler.Start(/*interval_ns=*/50 * 1000);

  // Hold a distinctive frame on this thread until the sampler has seen it.
  // Bounded spin (no sleeping): the 50us sampler needs only one wakeup.
  LANDMARK_ACTIVITY("engine/test-stage");
  Timer timer;
  bool seen = false;
  while (!seen && timer.ElapsedSeconds() < 10.0) {
    for (const auto& [stack, count] : profiler.FoldedCounts()) {
      if (stack.find("engine/test-stage") != std::string::npos && count > 0) {
        seen = true;
        break;
      }
    }
    std::this_thread::yield();
  }
  EXPECT_TRUE(seen) << profiler.FoldedText();
  EXPECT_GT(profiler.samples(), 0u);

  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  // Counts survive Stop for export.
  EXPECT_NE(profiler.FoldedText().find("engine/test-stage"),
            std::string::npos);
}

TEST(StallWatchdogTest, VirtualClockStallIsReportedOnce) {
  FakeClockScope clock(1000);

  BatchProgressScope batch(4, /*stall_threshold=*/0.5);
  const uint64_t batch_id = batch.progress().id();

  // A watchdog whose monitor thread practically never fires on its own: the
  // test drives ScanOnce() synchronously against the fake clock.
  StallWatchdogOptions options;
  options.poll_interval_ns = 3600ull * 1000 * 1000 * 1000;
  StallWatchdog watchdog(options);

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const uint64_t stalls_before =
      before.CounterValue("engine/stalls_total", 0);

  {
    NodeTagScope tag(batch_id, "engine/query", 2, 1);
    EXPECT_EQ(watchdog.ScanOnce(), 0u);  // just started, not stalled
    clock.AdvanceSeconds(10.0);
    EXPECT_EQ(watchdog.ScanOnce(), 1u);
    EXPECT_EQ(watchdog.ScanOnce(), 0u);  // same execution reports once

    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    EXPECT_EQ(after.CounterValue("engine/stalls_total", 0),
              stalls_before + 1);

    std::vector<StallReport> stalls = batch.progress().TakeStalls();
    ASSERT_EQ(stalls.size(), 1u);
    EXPECT_EQ(stalls[0].batch_id, batch_id);
    EXPECT_STREQ(stalls[0].stage, "engine/query");
    EXPECT_EQ(stalls[0].record_index, 2u);
    EXPECT_EQ(stalls[0].unit_index, 1u);
    EXPECT_GE(stalls[0].elapsed_seconds, 10.0);
    EXPECT_FALSE(stalls[0].worker.empty());
    EXPECT_EQ(batch.progress().num_stalls(), 1u);
  }

  // A fresh node execution on the same thread is a new generation: if it
  // stalls too, it is reported again.
  {
    NodeTagScope tag(batch_id, "engine/fit", 3, 0);
    clock.AdvanceSeconds(10.0);
    EXPECT_EQ(watchdog.ScanOnce(), 1u);
    std::vector<StallReport> stalls = batch.progress().TakeStalls();
    ASSERT_EQ(stalls.size(), 1u);
    EXPECT_STREQ(stalls[0].stage, "engine/fit");
  }

  watchdog.Stop();
  watchdog.Stop();  // idempotent
}

TEST(StallWatchdogTest, DisabledThresholdNeverReports) {
  FakeClockScope clock(1000);
  BatchProgressScope batch(1, /*stall_threshold=*/0.0);

  StallWatchdogOptions options;
  options.poll_interval_ns = 3600ull * 1000 * 1000 * 1000;
  StallWatchdog watchdog(options);

  NodeTagScope tag(batch.progress().id(), "engine/query", 0, 0);
  clock.AdvanceSeconds(1e6);  // eleven virtual days in one node
  EXPECT_EQ(watchdog.ScanOnce(), 0u);
  EXPECT_EQ(batch.progress().num_stalls(), 0u);
}

}  // namespace
}  // namespace landmark
