#include "util/thread_pool.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "util/telemetry/trace.h"

namespace landmark {

namespace {

/// Identity of the pool worker currently running on this thread, so
/// SubmitLocal can route to the right deque without a registry lookup. Set
/// for the lifetime of WorkerLoop; null on every non-worker thread.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerIdentity current_worker;

}  // namespace

size_t DefaultThreadCount() {
  return std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()),
                          kMaxPoolThreads);
}

ThreadPool::ThreadPool(size_t num_threads) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  tasks_total_ = &registry.GetCounter("pool/tasks");
  steals_total_ = &registry.GetCounter("pool/steals");
  queue_depth_ = &registry.GetGauge("pool/queue_depth");
  shared_queue_depth_ = &registry.GetGauge("pool/shared_queue_depth");
  task_seconds_ = &registry.GetHistogram("pool/task_seconds");
  queue_wait_seconds_ = &registry.GetHistogram("pool/queue_wait_seconds");
  if (num_threads <= 1) return;  // inline pool
  registry.GetGauge("pool/workers").Add(static_cast<double>(num_threads));
  workers_.reserve(num_threads);
  worker_busy_seconds_.reserve(num_threads);
  deque_depth_.reserve(num_threads);
  local_.resize(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    worker_busy_seconds_.push_back(&registry.GetGauge(
        "pool/worker_busy_seconds/" + std::to_string(i)));
    deque_depth_.push_back(
        &registry.GetGauge("pool/deque_depth/" + std::to_string(i)));
  }
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  LANDMARK_BLOCKING_POINT("ThreadPool::~ThreadPool/join");
  for (std::thread& worker : workers_) worker.join();
  if (!workers_.empty()) {
    MetricsRegistry::Global().GetGauge("pool/workers").Add(
        -static_cast<double>(workers_.size()));
  }
}

void ThreadPool::RunTask(Task task, Gauge* busy_seconds) {
  LANDMARK_TRACE_SPAN("pool/task");
  const uint64_t start_ns = TraceNowNs();
  if (task.enqueue_ns != 0) {
    queue_wait_seconds_->Record(static_cast<double>(start_ns -
                                                    task.enqueue_ns) /
                                1e9);
  }
  task.fn();
  const double seconds =
      static_cast<double>(TraceNowNs() - start_ns) / 1e9;
  task_seconds_->Record(seconds);
  if (busy_seconds != nullptr) busy_seconds->Add(seconds);
  tasks_total_->Add(1);
}

size_t ThreadPool::CallerWorkerIndex() const {
  return current_worker.pool == this ? current_worker.index : workers_.size();
}

void ThreadPool::Enqueue(std::function<void()> task, size_t local_index) {
  // Registered blocking point: a worker-less pool runs the task inline
  // right here, and even with workers a caller that submits under a lock
  // would let that lock order against everything the task body takes.
  LANDMARK_BLOCKING_POINT("ThreadPool::Submit");
  if (workers_.empty()) {
    RunTask(Task{std::move(task), 0}, nullptr);
    return;
  }
  {
    MutexLock lock(&mu_);
    if (local_index < local_.size()) {
      local_[local_index].push_back(Task{std::move(task), TraceNowNs()});
      deque_depth_[local_index]->Set(
          static_cast<double>(local_[local_index].size()));
    } else {
      queue_.push_back(Task{std::move(task), TraceNowNs()});
      shared_queue_depth_->Set(static_cast<double>(queue_.size()));
    }
    ++queued_;
    ++in_flight_;
    queue_depth_->Set(static_cast<double>(queued_));
  }
  work_cv_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) {
  Enqueue(std::move(task), workers_.size());
}

void ThreadPool::SubmitLocal(std::function<void()> task) {
  Enqueue(std::move(task), CallerWorkerIndex());
}

void ThreadPool::Wait() {
  LANDMARK_BLOCKING_POINT("ThreadPool::Wait");
  if (workers_.empty()) return;
  std::unique_lock<Mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  current_worker = WorkerIdentity{this, worker_index};
  ActivityRegistry::Global().Local().SetRole(
      "pool-worker", static_cast<uint32_t>(worker_index));
  Gauge* busy_seconds = worker_busy_seconds_[worker_index];
  const size_t num_workers = local_.size();
  for (;;) {
    Task task;
    bool stolen = false;
    {
      std::unique_lock<Mutex> lock(mu_);
      LANDMARK_BLOCKING_POINT_WAIT("ThreadPool::WorkerLoop/wait", &mu_);
      work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      if (queued_ == 0) break;  // stop_ set and nothing left to run
      // Own deque newest-first (the task most likely to be cache-warm),
      // then the shared queue oldest-first, then steal the oldest task of
      // the first non-empty victim deque.
      if (!local_[worker_index].empty()) {
        task = std::move(local_[worker_index].back());
        local_[worker_index].pop_back();
        deque_depth_[worker_index]->Set(
            static_cast<double>(local_[worker_index].size()));
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
        shared_queue_depth_->Set(static_cast<double>(queue_.size()));
      } else {
        for (size_t v = 1; v < num_workers; ++v) {
          const size_t victim = (worker_index + v) % num_workers;
          if (local_[victim].empty()) continue;
          task = std::move(local_[victim].front());
          local_[victim].pop_front();
          deque_depth_[victim]->Set(
              static_cast<double>(local_[victim].size()));
          stolen = true;
          break;
        }
      }
      --queued_;
      queue_depth_->Set(static_cast<double>(queued_));
    }
    if (stolen) steals_total_->Add(1);
    RunTask(std::move(task), busy_seconds);
    {
      MutexLock lock(&mu_);
      if (--in_flight_ == 0) done_cv_.notify_all();
    }
  }
  current_worker = WorkerIdentity{};
}

size_t ThreadPool::NumChunks(size_t n) const {
  if (n == 0) return 0;
  return std::min(n, std::max<size_t>(1, workers_.size()));
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  const size_t chunks = NumChunks(n);
  if (chunks <= 1) {
    body(0, n);
    return;
  }
  // Static partition: chunk c covers [c*q + min(c,r), ...) with q = n/chunks,
  // r = n%chunks — the first r chunks get one extra element.
  const size_t q = n / chunks;
  const size_t r = n % chunks;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t size = q + (c < r ? 1 : 0);
    const size_t end = begin + size;
    Submit([&body, begin, end] { body(begin, end); });
    begin = end;
  }
  Wait();
}

// ---------------------------------------------------------------------------
// TaskGraph

TaskGraph::TaskGraph(ThreadPool* pool)
    : pool_(pool != nullptr && pool->num_threads() > 0 ? pool : nullptr) {}

TaskGraph::~TaskGraph() = default;

TaskGraph::NodeId TaskGraph::AddNode(std::function<void()> fn,
                                     const std::vector<NodeId>& deps,
                                     const char* label) {
  std::vector<NodeId> to_pool;
  NodeId id = 0;
  {
    MutexLock lock(&mu_);
    id = nodes_.size();
    Node node;
    node.fn = std::move(fn);
    node.label = label;
    nodes_.push_back(std::move(node));
    ++unfinished_;
    // A dependency that already finished releases nothing later, so it never
    // counts towards the pending total (this is what makes growing a running
    // graph race-free: whichever side of the dep's completion AddNode lands
    // on, the count is consistent because both run under the graph mutex).
    for (NodeId dep : deps) {
      if (nodes_[dep].done) continue;
      nodes_[dep].successors.push_back(id);
      ++nodes_[id].pending;
    }
    if (nodes_[id].pending == 0 && running_) MarkReady(id, &to_pool);
  }
  Dispatch(to_pool);
  return id;
}

void TaskGraph::MarkReady(NodeId id, std::vector<NodeId>* to_pool) {
  if (pool_ == nullptr) {
    inline_ready_.push_back(id);
    return;
  }
  to_pool->push_back(id);
}

void TaskGraph::Dispatch(const std::vector<NodeId>& to_pool) {
  for (NodeId id : to_pool) {
    pool_->SubmitLocal([this, id] { RunNode(id); });
  }
}

void TaskGraph::Run() {
  std::vector<NodeId> to_pool;
  {
    MutexLock lock(&mu_);
    running_ = true;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].pending == 0) MarkReady(id, &to_pool);
    }
  }
  Dispatch(to_pool);
}

void TaskGraph::RunNode(NodeId id) {
  std::function<void()> fn;
  const char* label = nullptr;
  {
    MutexLock lock(&mu_);
    nodes_[id].started = true;
    label = nodes_[id].label;
    if (!cancelled_) fn = std::move(nodes_[id].fn);
  }
  if (fn) {
    try {
      ActivityScope activity(label != nullptr ? label : "graph/node");
      fn();
    } catch (...) {
      MutexLock lock(&mu_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
      cancelled_ = true;
    }
  }
  std::vector<NodeId> to_pool;
  {
    MutexLock lock(&mu_);
    nodes_[id].fn = nullptr;
    nodes_[id].done = true;
    for (NodeId succ : nodes_[id].successors) {
      if (--nodes_[succ].pending == 0) MarkReady(succ, &to_pool);
    }
    // Successors are still counted in unfinished_, so notifying before they
    // are dispatched cannot wake Wait() early.
    if (--unfinished_ == 0) drained_cv_.notify_all();
  }
  Dispatch(to_pool);
}

void TaskGraph::DrainInline() {
  for (;;) {
    NodeId id = 0;
    {
      MutexLock lock(&mu_);
      if (inline_ready_.empty()) return;
      id = inline_ready_.front();
      inline_ready_.pop_front();
    }
    RunNode(id);
  }
}

void TaskGraph::Wait() {
  LANDMARK_BLOCKING_POINT("TaskGraph::Wait");
  if (pool_ == nullptr) {
    DrainInline();
  } else {
    std::unique_lock<Mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return unfinished_ == 0; });
  }
  std::exception_ptr error;
  {
    MutexLock lock(&mu_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void TaskGraph::Cancel() {
  MutexLock lock(&mu_);
  cancelled_ = true;
}

bool TaskGraph::cancelled() const {
  MutexLock lock(&mu_);
  return cancelled_;
}

size_t TaskGraph::num_nodes() const {
  MutexLock lock(&mu_);
  return nodes_.size();
}

std::vector<TaskGraphStageCounts> TaskGraph::StageCounts() const {
  MutexLock lock(&mu_);
  std::vector<TaskGraphStageCounts> stages;
  for (const Node& node : nodes_) {
    const char* label = node.label != nullptr ? node.label : "(unlabeled)";
    TaskGraphStageCounts* stage = nullptr;
    for (TaskGraphStageCounts& existing : stages) {
      // Labels are interned literals, but compare by content so nodes
      // labeled from different translation units still group.
      if (existing.label == label ||
          std::string_view(existing.label) == label) {
        stage = &existing;
        break;
      }
    }
    if (stage == nullptr) {
      stages.push_back(TaskGraphStageCounts{label, 0, 0, 0, 0});
      stage = &stages.back();
    }
    if (node.done) {
      ++stage->done;
    } else if (node.started) {
      ++stage->running;
    } else if (node.pending > 0) {
      ++stage->pending;
    } else {
      ++stage->ready;
    }
  }
  return stages;
}

}  // namespace landmark
