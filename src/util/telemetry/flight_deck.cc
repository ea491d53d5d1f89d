#include "util/telemetry/flight_deck.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "util/logging.h"
#include "util/telemetry/json_util.h"
#include "util/telemetry/metrics.h"
#include "util/telemetry/trace.h"
#include "util/thread_pool.h"

namespace landmark {

namespace {

std::atomic<uint64_t (*)()> g_deck_clock{nullptr};

std::string FormatSeconds(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

}  // namespace

uint64_t FlightDeckNowNs() {
  uint64_t (*clock)() = g_deck_clock.load(std::memory_order_relaxed);
  return clock ? clock() : TraceNowNs();
}

void SetFlightDeckClockForTest(uint64_t (*clock)()) {
  g_deck_clock.store(clock, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ThreadActivity

ThreadActivity::ThreadActivity() : role_("thread") {
  for (auto& frame : frames_) {
    frame.store(nullptr, std::memory_order_relaxed);
  }
  role_index_.store(static_cast<uint32_t>(ThisThreadIndex()),
                    std::memory_order_relaxed);
}

void ThreadActivity::Push(const char* frame) {
  uint32_t depth = depth_.load(std::memory_order_relaxed);
  if (depth < kMaxActivityDepth) {
    frames_[depth].store(frame, std::memory_order_relaxed);
  }
  top_since_ns_.store(FlightDeckNowNs(), std::memory_order_relaxed);
  // The frame store precedes the depth publication, so a sampler that sees
  // the new depth also sees the frame (release pairs with SnapshotStack's
  // acquire).
  depth_.store(depth + 1, std::memory_order_release);
}

void ThreadActivity::Pop() {
  uint32_t depth = depth_.load(std::memory_order_relaxed);
  if (depth == 0) return;  // unbalanced pop; keep the sampler safe
  depth_.store(depth - 1, std::memory_order_release);
  top_since_ns_.store(depth > 1 ? FlightDeckNowNs() : 0,
                      std::memory_order_relaxed);
}

void ThreadActivity::SetRole(const char* role, uint32_t role_index) {
  role_.store(role, std::memory_order_relaxed);
  role_index_.store(role_index, std::memory_order_relaxed);
}

void ThreadActivity::BeginNode(uint64_t batch_id, const char* stage,
                               uint32_t record_index, uint32_t unit_index) {
  node_stage_.store(stage, std::memory_order_relaxed);
  node_record_.store(record_index, std::memory_order_relaxed);
  node_unit_.store(unit_index, std::memory_order_relaxed);
  node_start_ns_.store(FlightDeckNowNs(), std::memory_order_relaxed);
  node_generation_.fetch_add(1, std::memory_order_relaxed);
  // Publishing the batch id last makes it the snapshot gate: a watchdog that
  // reads a non-zero id also reads this node's fields (release/acquire).
  node_batch_.store(batch_id, std::memory_order_release);
}

void ThreadActivity::EndNode() {
  node_batch_.store(0, std::memory_order_release);
  node_stage_.store(nullptr, std::memory_order_relaxed);
}

std::vector<const char*> ThreadActivity::SnapshotStack() const {
  uint32_t depth = depth_.load(std::memory_order_acquire);
  depth = std::min<uint32_t>(depth, kMaxActivityDepth);
  std::vector<const char*> frames;
  frames.reserve(depth);
  for (uint32_t i = 0; i < depth; ++i) {
    const char* frame = frames_[i].load(std::memory_order_relaxed);
    if (frame == nullptr) break;  // torn read mid-push; stop at the gap
    frames.push_back(frame);
  }
  return frames;
}

std::string ThreadActivity::Label() const {
  const char* role = role_.load(std::memory_order_relaxed);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-%u", role ? role : "thread",
                role_index_.load(std::memory_order_relaxed));
  return buf;
}

ThreadActivity::NodeSnapshot ThreadActivity::SnapshotNode() const {
  NodeSnapshot snapshot;
  snapshot.batch_id = node_batch_.load(std::memory_order_acquire);
  if (snapshot.batch_id == 0) return snapshot;
  snapshot.stage = node_stage_.load(std::memory_order_relaxed);
  snapshot.record_index = node_record_.load(std::memory_order_relaxed);
  snapshot.unit_index = node_unit_.load(std::memory_order_relaxed);
  snapshot.start_ns = node_start_ns_.load(std::memory_order_relaxed);
  snapshot.generation = node_generation_.load(std::memory_order_relaxed);
  return snapshot;
}

bool ThreadActivity::ClaimStallReport(uint64_t generation) {
  uint64_t claimed = stall_claimed_generation_.load(std::memory_order_relaxed);
  while (claimed < generation) {
    if (stall_claimed_generation_.compare_exchange_weak(
            claimed, generation, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// ActivityRegistry

ActivityRegistry& ActivityRegistry::Global() {
  // Leaked intentionally: worker threads may touch their slot during
  // shutdown (the MetricsRegistry::Global pattern).
  static ActivityRegistry* registry = new ActivityRegistry();
  return *registry;
}

ThreadActivity& ActivityRegistry::Local() {
  thread_local std::shared_ptr<ThreadActivity> slot = [this] {
    auto created = std::make_shared<ThreadActivity>();
    MutexLock lock(&mu_);
    slots_.push_back(created);
    return created;
  }();
  return *slot;
}

std::vector<std::shared_ptr<ThreadActivity>> ActivityRegistry::Slots() const {
  std::vector<std::shared_ptr<ThreadActivity>> live;
  MutexLock lock(&mu_);
  live.reserve(slots_.size());
  size_t kept = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (auto strong = slots_[i].lock()) {
      // Compact in place, pruning slots of exited threads. The self-move
      // guard matters: moving a weak_ptr onto itself empties it.
      if (kept != i) slots_[kept] = std::move(slots_[i]);
      ++kept;
      live.push_back(std::move(strong));
    }
  }
  slots_.resize(kept);
  return live;
}

// ---------------------------------------------------------------------------
// BatchProgress / FlightDeck

BatchProgress::BatchProgress(uint64_t id, size_t num_records,
                             double stall_threshold)
    : id_(id),
      num_records_(num_records),
      stall_threshold_(stall_threshold),
      start_ns_(FlightDeckNowNs()) {}

void BatchProgress::SetGraph(TaskGraph* graph) {
  MutexLock lock(&mu_);
  graph_ = graph;
}

std::vector<TaskGraphStageCounts> BatchProgress::GraphCounts() const {
  MutexLock lock(&mu_);
  if (graph_ == nullptr) return {};
  return graph_->StageCounts();
}

void BatchProgress::SetTokenCacheProbe(
    std::function<std::vector<size_t>()> probe) {
  MutexLock lock(&mu_);
  token_cache_probe_ = std::move(probe);
}

std::vector<size_t> BatchProgress::TokenCacheShardSizes() const {
  std::function<std::vector<size_t>()> probe;
  {
    MutexLock lock(&mu_);
    probe = token_cache_probe_;
  }
  return probe ? probe() : std::vector<size_t>();
}

void BatchProgress::RecordStall(StallReport report) {
  {
    MutexLock lock(&mu_);
    stalls_.push_back(std::move(report));
  }
  num_stalls_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<StallReport> BatchProgress::TakeStalls() {
  MutexLock lock(&mu_);
  std::vector<StallReport> taken;
  taken.swap(stalls_);
  return taken;
}

FlightDeck& FlightDeck::Global() {
  static FlightDeck* deck = new FlightDeck();  // leaked (shutdown-safe)
  return *deck;
}

std::shared_ptr<BatchProgress> FlightDeck::RegisterBatch(
    size_t num_records, double stall_threshold) {
  MutexLock lock(&mu_);
  auto progress =
      std::make_shared<BatchProgress>(++next_id_, num_records, stall_threshold);
  batches_.push_back(progress);
  return progress;
}

void FlightDeck::UnregisterBatch(uint64_t id) {
  MutexLock lock(&mu_);
  batches_.erase(std::remove_if(batches_.begin(), batches_.end(),
                                [id](const std::shared_ptr<BatchProgress>& b) {
                                  return b->id() == id;
                                }),
                 batches_.end());
}

std::shared_ptr<BatchProgress> FlightDeck::FindBatch(uint64_t id) const {
  MutexLock lock(&mu_);
  for (const auto& batch : batches_) {
    if (batch->id() == id) return batch;
  }
  return nullptr;
}

std::vector<std::shared_ptr<BatchProgress>> FlightDeck::InFlightBatches()
    const {
  MutexLock lock(&mu_);
  return batches_;
}

BatchProgressScope::BatchProgressScope(size_t num_records,
                                       double stall_threshold)
    : progress_(FlightDeck::Global().RegisterBatch(num_records,
                                                   stall_threshold)) {}

BatchProgressScope::~BatchProgressScope() {
  // Detach before unregistering: a scraper holding the shared_ptr must never
  // chase pointers into the (about to be destroyed) graph or cache.
  progress_->SetGraph(nullptr);
  progress_->SetTokenCacheProbe(nullptr);
  FlightDeck::Global().UnregisterBatch(progress_->id());
}

// ---------------------------------------------------------------------------
// SamplingProfiler

SamplingProfiler& SamplingProfiler::Global() {
  static SamplingProfiler* profiler = new SamplingProfiler();  // leaked
  return *profiler;
}

void SamplingProfiler::Start(uint64_t interval_ns) {
  MutexLock lifecycle(&lifecycle_mu_);
  {
    MutexLock lock(&mu_);
    if (running_) return;
    stop_requested_ = false;
    running_ = true;
  }
  // landmark-lint: allow(raw-thread) the sampler must observe pool workers from outside; running it on a pool worker would sample itself
  sampler_ = std::thread([this, interval_ns] { SamplerLoop(interval_ns); });
}

void SamplingProfiler::Stop() {
  MutexLock lifecycle(&lifecycle_mu_);
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  // landmark-lint: allow(lock-blocking) lifecycle_mu_ is held across the
  // join deliberately: it serializes Start/Stop against each other, and the
  // sampler thread only ever takes mu_, which was released above.
  if (sampler_.joinable()) sampler_.join();
  sampler_ = {};
  MutexLock lock(&mu_);
  running_ = false;
}

bool SamplingProfiler::running() const {
  MutexLock lock(&mu_);
  return running_;
}

void SamplingProfiler::SamplerLoop(uint64_t interval_ns) {
  ActivityRegistry::Global().Local().SetRole("profiler-sampler", 0);
  Counter& samples_total =
      MetricsRegistry::Global().GetCounter("telemetry/profiler_samples");
  std::unique_lock<Mutex> lock(mu_);
  while (!stop_requested_) {
    LANDMARK_BLOCKING_POINT_WAIT("SamplingProfiler::SamplerLoop/wait", &mu_);
    cv_.wait_for(lock, std::chrono::nanoseconds(interval_ns));
    if (stop_requested_) break;
    lock.unlock();
    SampleOnce();
    samples_total.Add(1);
    lock.lock();
  }
}

void SamplingProfiler::SampleOnce() {
  auto slots = ActivityRegistry::Global().Slots();
  std::vector<std::pair<std::string, uint64_t>> observed;
  for (const auto& slot : slots) {
    std::vector<const char*> frames = slot->SnapshotStack();
    if (frames.empty()) continue;  // idle threads don't make folded stacks
    std::string key = slot->Label();
    for (const char* frame : frames) {
      key += ';';
      key += frame;
    }
    observed.emplace_back(std::move(key), 1);
  }
  if (observed.empty()) return;
  MutexLock lock(&mu_);
  for (auto& [key, count] : observed) {
    counts_[key] += count;
    samples_.fetch_add(count, std::memory_order_relaxed);
  }
}

std::map<std::string, uint64_t> SamplingProfiler::FoldedCounts() const {
  MutexLock lock(&mu_);
  return counts_;
}

std::string SamplingProfiler::RenderFolded(
    const std::map<std::string, uint64_t>& counts) {
  std::string out;
  for (const auto& [stack, count] : counts) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string SamplingProfiler::FoldedText() const {
  return RenderFolded(FoldedCounts());
}

// ---------------------------------------------------------------------------
// StallWatchdog

StallWatchdog::StallWatchdog(StallWatchdogOptions options)
    : options_(options) {
  // landmark-lint: allow(raw-thread) the watchdog must keep scanning while every pool worker is (by definition of a stall) stuck
  monitor_ = std::thread([this] { MonitorLoop(); });
}

StallWatchdog::~StallWatchdog() { Stop(); }

void StallWatchdog::Stop() {
  {
    MutexLock lock(&mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void StallWatchdog::MonitorLoop() {
  ActivityRegistry::Global().Local().SetRole("stall-watchdog", 0);
  std::unique_lock<Mutex> lock(mu_);
  while (!stop_) {
    LANDMARK_BLOCKING_POINT_WAIT("StallWatchdog::MonitorLoop/wait", &mu_);
    cv_.wait_for(lock, std::chrono::nanoseconds(options_.poll_interval_ns));
    if (stop_) break;
    lock.unlock();
    ScanOnce();
    lock.lock();
  }
}

size_t StallWatchdog::ScanOnce() {
  const uint64_t now = FlightDeckNowNs();
  Counter& stalls_total =
      MetricsRegistry::Global().GetCounter("engine/stalls_total");
  size_t reported = 0;
  for (const auto& slot : ActivityRegistry::Global().Slots()) {
    ThreadActivity::NodeSnapshot tag = slot->SnapshotNode();
    if (tag.batch_id == 0 || tag.stage == nullptr) continue;
    std::shared_ptr<BatchProgress> batch =
        FlightDeck::Global().FindBatch(tag.batch_id);
    const double threshold =
        batch ? batch->stall_threshold() : options_.threshold_seconds;
    if (threshold <= 0.0 || now < tag.start_ns) continue;
    const double elapsed =
        static_cast<double>(now - tag.start_ns) * 1e-9;
    if (elapsed < threshold) continue;
    // One report per node execution, even across overlapping watchdogs.
    if (!slot->ClaimStallReport(tag.generation)) continue;

    StallReport report;
    report.batch_id = tag.batch_id;
    report.stage = tag.stage;
    report.record_index = tag.record_index;
    report.unit_index = tag.unit_index;
    report.elapsed_seconds = elapsed;
    report.worker = slot->Label();
    report.activity = slot->SnapshotStack();
    std::string activity_joined;
    for (const char* frame : report.activity) {
      if (!activity_joined.empty()) activity_joined += ';';
      activity_joined += frame;
    }
    // Record on the batch before bumping the counter: a test (or operator)
    // that observes the counter move may immediately read the trailer.
    if (batch) batch->RecordStall(std::move(report));
    stalls_total.Add(1);
    ++reported;
    LANDMARK_LOG(Warning) << "stall detected: batch=" << tag.batch_id
                          << " stage=" << tag.stage
                          << " record=" << tag.record_index
                          << " unit=" << tag.unit_index << " elapsed="
                          << FormatSeconds(elapsed) << "s worker="
                          << slot->Label() << " activity=" << activity_joined;
  }
  return reported;
}

// ---------------------------------------------------------------------------
// Status rendering

namespace {

/// Gauges worth showing on the deck: the pool queue depths.
bool IsQueueGauge(const std::string& name) {
  return name == "pool/queue_depth" || name == "pool/shared_queue_depth" ||
         name.rfind("pool/deque_depth/", 0) == 0;
}

struct WorkerStatus {
  std::string label;
  std::vector<const char*> frames;
  uint64_t top_since_ns = 0;
  ThreadActivity::NodeSnapshot node;
};

std::vector<WorkerStatus> CollectWorkers() {
  std::vector<WorkerStatus> workers;
  for (const auto& slot : ActivityRegistry::Global().Slots()) {
    WorkerStatus status;
    status.label = slot->Label();
    status.frames = slot->SnapshotStack();
    status.top_since_ns = slot->top_since_ns();
    status.node = slot->SnapshotNode();
    workers.push_back(std::move(status));
  }
  std::sort(workers.begin(), workers.end(),
            [](const WorkerStatus& a, const WorkerStatus& b) {
              return a.label < b.label;
            });
  return workers;
}

double SecondsSince(uint64_t then_ns, uint64_t now_ns) {
  return then_ns == 0 || now_ns < then_ns
             ? 0.0
             : static_cast<double>(now_ns - then_ns) * 1e-9;
}

}  // namespace

std::string FlightDeckStatusText() {
  const uint64_t now = FlightDeckNowNs();
  std::string out;
  out += "-- flight deck --\n";

  auto batches = FlightDeck::Global().InFlightBatches();
  out += "in-flight batches: " + std::to_string(batches.size()) + "\n";
  for (const auto& batch : batches) {
    out += "batch " + std::to_string(batch->id()) + ": records=" +
           std::to_string(batch->num_records()) + " age=" +
           FormatSeconds(SecondsSince(batch->start_ns(), now)) +
           "s stall_threshold=" + FormatSeconds(batch->stall_threshold()) +
           "s stalls=" + std::to_string(batch->num_stalls()) + "\n";
    for (const TaskGraphStageCounts& stage : batch->GraphCounts()) {
      out += "  stage " + std::string(stage.label) + ": pending=" +
             std::to_string(stage.pending) + " ready=" +
             std::to_string(stage.ready) + " running=" +
             std::to_string(stage.running) + " done=" +
             std::to_string(stage.done) + "\n";
    }
    std::vector<size_t> shards = batch->TokenCacheShardSizes();
    if (!shards.empty()) {
      size_t total = 0;
      out += "  token_cache shards:";
      for (size_t size : shards) {
        out += " " + std::to_string(size);
        total += size;
      }
      out += " (total " + std::to_string(total) + ")\n";
    }
  }

  for (const WorkerStatus& worker : CollectWorkers()) {
    out += "worker " + worker.label + ": ";
    if (worker.frames.empty()) {
      out += "idle";
    } else {
      for (size_t i = 0; i < worker.frames.size(); ++i) {
        if (i > 0) out += ";";
        out += worker.frames[i];
      }
      out += " (" + FormatSeconds(SecondsSince(worker.top_since_ns, now)) +
             "s in " + worker.frames.back() + ")";
    }
    if (worker.node.batch_id != 0 && worker.node.stage != nullptr) {
      out += " node=" + std::string(worker.node.stage) + "/batch" +
             std::to_string(worker.node.batch_id) + " elapsed=" +
             FormatSeconds(SecondsSince(worker.node.start_ns, now)) + "s";
    }
    out += "\n";
  }

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.gauges) {
    if (IsQueueGauge(name)) {
      out += "queue " + name + ": " + FormatSeconds(value) + "\n";
    }
  }

  SamplingProfiler& profiler = SamplingProfiler::Global();
  out += "profiler: " + std::string(profiler.running() ? "running" : "idle") +
         " samples=" + std::to_string(profiler.samples()) + "\n";
  return out;
}

std::string FlightDeckStatusJson() {
  const uint64_t now = FlightDeckNowNs();
  std::string out = "{";

  out += "\"batches\":[";
  bool first_batch = true;
  for (const auto& batch : FlightDeck::Global().InFlightBatches()) {
    if (!first_batch) out += ",";
    first_batch = false;
    out += "{\"id\":" + std::to_string(batch->id());
    out += ",\"num_records\":" + std::to_string(batch->num_records());
    out += ",\"age_seconds\":" +
           JsonDouble(SecondsSince(batch->start_ns(), now));
    out += ",\"stall_threshold\":" + JsonDouble(batch->stall_threshold());
    out += ",\"num_stalls\":" + std::to_string(batch->num_stalls());
    out += ",\"stages\":[";
    bool first_stage = true;
    for (const TaskGraphStageCounts& stage : batch->GraphCounts()) {
      if (!first_stage) out += ",";
      first_stage = false;
      out += "{\"stage\":\"" + JsonEscape(stage.label) + "\"";
      out += ",\"pending\":" + std::to_string(stage.pending);
      out += ",\"ready\":" + std::to_string(stage.ready);
      out += ",\"running\":" + std::to_string(stage.running);
      out += ",\"done\":" + std::to_string(stage.done) + "}";
    }
    out += "]";
    out += ",\"token_cache_shards\":[";
    std::vector<size_t> shards = batch->TokenCacheShardSizes();
    for (size_t i = 0; i < shards.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(shards[i]);
    }
    out += "]}";
  }
  out += "]";

  out += ",\"workers\":[";
  bool first_worker = true;
  for (const WorkerStatus& worker : CollectWorkers()) {
    if (!first_worker) out += ",";
    first_worker = false;
    out += "{\"worker\":\"" + JsonEscape(worker.label) + "\"";
    out += ",\"activity\":[";
    for (size_t i = 0; i < worker.frames.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(worker.frames[i]) + "\"";
    }
    out += "]";
    if (!worker.frames.empty()) {
      out += ",\"current\":\"" + JsonEscape(worker.frames.back()) + "\"";
      out += ",\"seconds_in_activity\":" +
             JsonDouble(SecondsSince(worker.top_since_ns, now));
    }
    if (worker.node.batch_id != 0 && worker.node.stage != nullptr) {
      out += ",\"node\":{\"batch_id\":" +
             std::to_string(worker.node.batch_id);
      out += ",\"stage\":\"" + JsonEscape(worker.node.stage) + "\"";
      if (worker.node.record_index != kActivityNoIndex) {
        out += ",\"record_index\":" + std::to_string(worker.node.record_index);
      }
      if (worker.node.unit_index != kActivityNoIndex) {
        out += ",\"unit_index\":" + std::to_string(worker.node.unit_index);
      }
      out += ",\"elapsed_seconds\":" +
             JsonDouble(SecondsSince(worker.node.start_ns, now)) + "}";
    }
    out += "}";
  }
  out += "]";

  out += ",\"queues\":{";
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  bool first_queue = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!IsQueueGauge(name)) continue;
    if (!first_queue) out += ",";
    first_queue = false;
    out += "\"" + JsonEscape(name) + "\":" + JsonDouble(value);
  }
  out += "}";

  SamplingProfiler& profiler = SamplingProfiler::Global();
  out += ",\"profiler\":{\"running\":";
  out += profiler.running() ? "true" : "false";
  out += ",\"samples\":" + std::to_string(profiler.samples()) + "}";

  out += "}";
  return out;
}

}  // namespace landmark
