#ifndef LANDMARK_UTIL_TELEMETRY_FLIGHT_DECK_H_
#define LANDMARK_UTIL_TELEMETRY_FLIGHT_DECK_H_

/// The "flight deck": live introspection of a *running* engine batch
/// (docs/architecture.md, "Flight deck"). Three cooperating pieces, all
/// designed to be lock-cheap on the pipeline hot path and safe to sample
/// from other threads:
///
///  - **Activity stacks** (ThreadActivity / ActivityRegistry) — every
///    instrumented thread annotates what it is doing right now by pushing
///    static-string frames onto a small per-thread stack of atomics
///    (LANDMARK_ACTIVITY). Pool workers, TaskGraph node bodies, engine
///    stages and model Predict calls all annotate; a sampler or /statusz
///    renderer reads any thread's stack without stopping it. A concurrent
///    push/pop can tear a *logical* snapshot (you may read a stack that
///    never quite existed), which is acceptable for sampling and is why
///    every slot field is an individual atomic — no data race, TSan-clean.
///
///  - **SamplingProfiler** — a background thread that periodically snapshots
///    every registered activity stack and aggregates the observations into
///    folded-stack counts ("a;b;c N", the format flamegraph.pl and speedscope
///    consume). Exported via `--profile-out` and `GET /profilez?seconds=N`.
///
///  - **FlightDeck / BatchProgress / StallWatchdog** — a registry of
///    in-flight ExplainBatch calls. Engine node bodies additionally tag
///    their slot with the unit they are running (NodeTagScope); the
///    watchdog flags any node running longer than
///    EngineOptions::stall_threshold, emitting a structured report to the
///    log, the `engine/stalls_total` counter and the batch's audit trailer
///    — without killing the work. The deck clock is injectable
///    (SetFlightDeckClockForTest) so stalls are virtual-clock-testable.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace landmark {

class TaskGraph;

/// Nanoseconds on the flight-deck clock: TraceNowNs() by default, the
/// injected fake in tests. Only the deck (node tags, stall elapsed, status
/// ages) reads this clock — traces and metrics stay on the real one.
uint64_t FlightDeckNowNs();

/// Overrides the deck clock with `clock` (nullptr restores the real one).
/// Test-only; both node-tag stamping and watchdog scans use the override,
/// so elapsed times are consistent under a fake clock.
void SetFlightDeckClockForTest(uint64_t (*clock)());

/// Activity stacks deeper than this drop their innermost frames from
/// snapshots (pushes still balance pops). Engine nesting is 3-4 deep.
inline constexpr size_t kMaxActivityDepth = 8;

/// Sentinel record/unit index for node tags that cover no single unit (a
/// record's plan node).
inline constexpr uint32_t kActivityNoIndex = 0xffffffffu;

/// \brief One thread's live annotation slot. The owning thread writes
/// (Push/Pop/BeginNode/EndNode, a few relaxed-or-release atomic stores);
/// samplers on other threads read. Slots are created and registered via
/// ActivityRegistry::Local() and live until their thread exits.
class ThreadActivity {
 public:
  ThreadActivity();

  // ---- owner-thread writes ----------------------------------------------

  /// Pushes one frame. `frame` must have static storage duration.
  void Push(const char* frame);
  void Pop();

  /// Labels this thread for status pages and folded stacks, e.g.
  /// ("pool-worker", 3) renders as "pool-worker-3". `role` must have static
  /// storage duration. Defaults to ("thread", ThisThreadIndex()).
  void SetRole(const char* role, uint32_t role_index);

  /// Tags the engine node this thread started running (stall-watchdog
  /// bookkeeping). `stage` must have static storage duration.
  void BeginNode(uint64_t batch_id, const char* stage, uint32_t record_index,
                 uint32_t unit_index);
  void EndNode();

  // ---- sampler-side reads (any thread) ----------------------------------

  /// Frames bottom-first. Torn under a concurrent push/pop — acceptable for
  /// sampling; every access is an individual atomic load.
  std::vector<const char*> SnapshotStack() const;
  /// When the top frame was pushed (deck clock); 0 when idle.
  uint64_t top_since_ns() const {
    return top_since_ns_.load(std::memory_order_relaxed);
  }
  const char* role() const { return role_.load(std::memory_order_relaxed); }
  uint32_t role_index() const {
    return role_index_.load(std::memory_order_relaxed);
  }
  /// "pool-worker-3", "thread-0", ...
  std::string Label() const;

  /// \brief Sampler-side view of the node tag. batch_id == 0 means no
  /// engine node is running on the thread.
  struct NodeSnapshot {
    uint64_t batch_id = 0;
    const char* stage = nullptr;
    uint32_t record_index = 0;
    uint32_t unit_index = 0;
    uint64_t start_ns = 0;
    uint64_t generation = 0;
  };
  NodeSnapshot SnapshotNode() const;

  /// First watchdog to claim a generation reports it; later scans (or a
  /// second concurrent watchdog) see false, so a long stall logs once.
  bool ClaimStallReport(uint64_t generation);

 private:
  std::array<std::atomic<const char*>, kMaxActivityDepth> frames_;
  std::atomic<uint32_t> depth_{0};
  std::atomic<uint64_t> top_since_ns_{0};
  std::atomic<const char*> role_;
  std::atomic<uint32_t> role_index_{0};

  std::atomic<uint64_t> node_batch_{0};
  std::atomic<const char*> node_stage_{nullptr};
  std::atomic<uint32_t> node_record_{0};
  std::atomic<uint32_t> node_unit_{0};
  std::atomic<uint64_t> node_start_ns_{0};
  std::atomic<uint64_t> node_generation_{0};
  std::atomic<uint64_t> stall_claimed_generation_{0};
};

/// \brief Process-wide list of live activity slots. Registration happens on
/// a thread's first Local() call (the TraceRecorder per-thread-buffer
/// pattern); a slot dies with its thread and is pruned from the next
/// Slots() call.
class ActivityRegistry {
 public:
  static ActivityRegistry& Global();

  /// The calling thread's slot (created and registered on first use).
  ThreadActivity& Local();

  /// Strong references to every live slot, for samplers. A slot returned
  /// here stays valid for the shared_ptr's lifetime even if its thread
  /// exits mid-scan.
  std::vector<std::shared_ptr<ThreadActivity>> Slots() const;

 private:
  ActivityRegistry() = default;

  // Leaf lock: registration and slot snapshots only.
  mutable Mutex mu_{"ActivityRegistry::mu_"};
  mutable std::vector<std::weak_ptr<ThreadActivity>> slots_ GUARDED_BY(mu_);
};

/// \brief RAII activity frame. Constructing pushes, destroying pops.
class ActivityScope {
 public:
  explicit ActivityScope(const char* frame)
      : slot_(&ActivityRegistry::Global().Local()) {
    slot_->Push(frame);
  }
  ~ActivityScope() { slot_->Pop(); }

  ActivityScope(const ActivityScope&) = delete;
  ActivityScope& operator=(const ActivityScope&) = delete;

 private:
  ThreadActivity* slot_;
};

/// \brief RAII node tag for the stall watchdog: marks the calling thread as
/// running one engine node from construction to destruction.
class NodeTagScope {
 public:
  NodeTagScope(uint64_t batch_id, const char* stage, uint32_t record_index,
               uint32_t unit_index)
      : slot_(&ActivityRegistry::Global().Local()) {
    slot_->BeginNode(batch_id, stage, record_index, unit_index);
  }
  ~NodeTagScope() { slot_->EndNode(); }

  NodeTagScope(const NodeTagScope&) = delete;
  NodeTagScope& operator=(const NodeTagScope&) = delete;

 private:
  ThreadActivity* slot_;
};

/// \brief Per-stage node state counts of a TaskGraph, keyed by the label
/// passed to TaskGraph::AddNode (defined here so thread_pool.h can return
/// it without a header cycle).
struct TaskGraphStageCounts {
  const char* label = nullptr;
  size_t pending = 0;  // dependencies unmet
  size_t ready = 0;    // ready or queued, body not started
  size_t running = 0;  // body started, not finished
  size_t done = 0;     // finished (or skipped by cancellation)
};

/// \brief One stall observation: a node that exceeded its batch's
/// stall_threshold. Emitted to the log, counted in `engine/stalls_total`,
/// and appended to the batch's audit trailer. `stage` and `activity` frames
/// are static strings.
struct StallReport {
  uint64_t batch_id = 0;
  const char* stage = "";
  size_t record_index = 0;
  size_t unit_index = 0;
  double elapsed_seconds = 0.0;
  std::string worker;
  std::vector<const char*> activity;
};

/// \brief Live progress of one in-flight ExplainBatch. Created via
/// FlightDeck::RegisterBatch; the engine attaches its TaskGraph and token
/// cache through guarded pointers it clears before they die.
class BatchProgress {
 public:
  BatchProgress(uint64_t id, size_t num_records, double stall_threshold);

  uint64_t id() const { return id_; }
  size_t num_records() const { return num_records_; }
  double stall_threshold() const { return stall_threshold_; }
  uint64_t start_ns() const { return start_ns_; }

  /// Attaches / detaches (nullptr) the batch's running graph. The engine
  /// must detach before the graph is destroyed.
  void SetGraph(TaskGraph* graph);
  /// Per-stage node counts of the attached graph (empty when detached).
  std::vector<TaskGraphStageCounts> GraphCounts() const;

  /// Attaches a callback reporting TokenCache shard sizes (empty function
  /// detaches). Same lifetime rule as SetGraph.
  void SetTokenCacheProbe(std::function<std::vector<size_t>()> probe);
  std::vector<size_t> TokenCacheShardSizes() const;

  /// Appends one watchdog observation (drained into the audit trailer by
  /// the engine epilogue; reports landing after the drain are only counted).
  void RecordStall(StallReport report);
  std::vector<StallReport> TakeStalls();
  /// Stalls recorded over the batch's lifetime (monotone, unlike the
  /// drainable list).
  size_t num_stalls() const {
    return num_stalls_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t id_;
  const size_t num_records_;
  const double stall_threshold_;
  const uint64_t start_ns_;

  // Held while reading the attached graph's StageCounts(), hence ordered
  // before the graph lock (GraphCounts() is the only cross-component
  // nesting on the status path).
  mutable Mutex mu_ ACQUIRED_BEFORE(TaskGraph::mu_){"BatchProgress::mu_"};
  TaskGraph* graph_ GUARDED_BY(mu_) = nullptr;
  std::function<std::vector<size_t>()> token_cache_probe_ GUARDED_BY(mu_);
  std::vector<StallReport> stalls_ GUARDED_BY(mu_);
  std::atomic<size_t> num_stalls_{0};
};

/// \brief Process-wide registry of in-flight batches, feeding /statusz and
/// the stall watchdog.
class FlightDeck {
 public:
  static FlightDeck& Global();

  std::shared_ptr<BatchProgress> RegisterBatch(size_t num_records,
                                               double stall_threshold);
  void UnregisterBatch(uint64_t id);
  /// The in-flight batch with that id, or nullptr (e.g. it just finished).
  std::shared_ptr<BatchProgress> FindBatch(uint64_t id) const;
  std::vector<std::shared_ptr<BatchProgress>> InFlightBatches() const;

 private:
  FlightDeck() = default;

  // Leaf lock: registry bookkeeping only — batch internals are read after
  // it is released.
  mutable Mutex mu_{"FlightDeck::mu_"};
  uint64_t next_id_ GUARDED_BY(mu_) = 0;  // ids start at 1; 0 = "no batch"
  std::vector<std::shared_ptr<BatchProgress>> batches_ GUARDED_BY(mu_);
};

/// \brief RAII registration of one ExplainBatch on the global deck:
/// destruction detaches the graph and token-cache probe, then unregisters.
/// Declare it *after* the graph and cache it will point at, so it unwinds
/// first.
class BatchProgressScope {
 public:
  BatchProgressScope(size_t num_records, double stall_threshold);
  ~BatchProgressScope();

  BatchProgressScope(const BatchProgressScope&) = delete;
  BatchProgressScope& operator=(const BatchProgressScope&) = delete;

  BatchProgress& progress() { return *progress_; }

 private:
  std::shared_ptr<BatchProgress> progress_;
};

/// \brief Background sampler aggregating activity-stack snapshots into
/// folded-stack counts. One global instance; Start() is idempotent (the
/// first caller fixes the interval) and the accumulated counts survive
/// Stop() for export.
class SamplingProfiler {
 public:
  /// 5 kHz default: a sweep is a few dozen atomic loads per thread, so even
  /// on one core the sampler costs well under 1% while giving short batches
  /// (milliseconds) enough samples to be readable.
  static constexpr uint64_t kDefaultIntervalNs = 200 * 1000;

  static SamplingProfiler& Global();

  /// Starts the sampler thread (no-op when already running).
  void Start(uint64_t interval_ns = kDefaultIntervalNs);
  /// Stops and joins the sampler thread; counts remain readable.
  void Stop();
  bool running() const;

  /// Cumulative folded-stack counts since process start (key:
  /// "label;frame;frame", value: samples observed).
  std::map<std::string, uint64_t> FoldedCounts() const;
  /// Renders counts in the flamegraph text format, one "stack N" per line,
  /// sorted by stack for stable output.
  static std::string RenderFolded(const std::map<std::string, uint64_t>& counts);
  /// RenderFolded(FoldedCounts()).
  std::string FoldedText() const;

  /// Non-empty stack snapshots recorded so far (== the sum of all counts).
  uint64_t samples() const { return samples_.load(std::memory_order_relaxed); }

 private:
  SamplingProfiler() = default;

  void SamplerLoop(uint64_t interval_ns);
  /// Takes one sweep over every registered slot.
  void SampleOnce();

  mutable Mutex mu_{"SamplingProfiler::mu_"};
  std::map<std::string, uint64_t> counts_ GUARDED_BY(mu_);
  bool running_ GUARDED_BY(mu_) = false;
  bool stop_requested_ GUARDED_BY(mu_) = false;
  std::condition_variable_any cv_;
  // Serializes Start/Stop (held across the join, which mu_ must not be).
  Mutex lifecycle_mu_ ACQUIRED_BEFORE(mu_){"SamplingProfiler::lifecycle_mu_"};
  std::thread sampler_ GUARDED_BY(lifecycle_mu_);  // landmark-lint: allow(raw-thread) the sampler must observe pool workers from outside; parking it on a worker would sample itself
  std::atomic<uint64_t> samples_{0};
};

/// \brief Watchdog options. The poll interval is real time (the monitor
/// thread's cadence); thresholds are evaluated on the deck clock, which is
/// what makes stalls virtual-clock-testable.
struct StallWatchdogOptions {
  /// Default stall threshold (seconds on the deck clock) for batches that
  /// did not set their own; <= 0 means only per-batch thresholds apply.
  double threshold_seconds = 0.0;
  /// Monitor thread poll cadence.
  uint64_t poll_interval_ns = 5 * 1000 * 1000;
};

/// \brief Flags nodes that run past their batch's stall threshold. Owned by
/// the engine (one per engine with stall_threshold > 0); scans the global
/// activity registry, so one watchdog observes every thread of the process.
/// Detection never cancels or kills the stalled work.
class StallWatchdog {
 public:
  explicit StallWatchdog(StallWatchdogOptions options);
  ~StallWatchdog();

  /// Stops and joins the monitor thread (idempotent).
  void Stop();

  /// One synchronous scan on the calling thread; returns the number of
  /// newly-reported stalls. Tests drive this with a fake deck clock instead
  /// of racing the monitor thread.
  size_t ScanOnce();

 private:
  void MonitorLoop();

  const StallWatchdogOptions options_;
  Mutex mu_{"StallWatchdog::mu_"};
  bool stop_ GUARDED_BY(mu_) = false;
  std::condition_variable_any cv_;
  std::thread monitor_;  // landmark-lint: allow(raw-thread) must keep scanning while every pool worker is (by definition of a stall) stuck
};

/// Human-readable flight-deck block appended to GET /statusz: in-flight
/// batches with per-stage node counts, per-worker activities, queue depths,
/// token-cache occupancy, profiler state.
std::string FlightDeckStatusText();
/// The same information as one JSON object (GET /statusz?format=json).
std::string FlightDeckStatusJson();

}  // namespace landmark

#define LANDMARK_ACTIVITY_CONCAT_INNER(a, b) a##b
#define LANDMARK_ACTIVITY_CONCAT(a, b) LANDMARK_ACTIVITY_CONCAT_INNER(a, b)

/// Opens a scoped activity frame: LANDMARK_ACTIVITY("engine/query");
/// `frame` must be a string literal (or otherwise immortal).
#define LANDMARK_ACTIVITY(frame)                  \
  ::landmark::ActivityScope LANDMARK_ACTIVITY_CONCAT( \
      landmark_activity_scope_, __COUNTER__)(frame)

#endif  // LANDMARK_UTIL_TELEMETRY_FLIGHT_DECK_H_
