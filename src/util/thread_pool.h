#ifndef LANDMARK_UTIL_THREAD_POOL_H_
#define LANDMARK_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/telemetry/flight_deck.h"
#include "util/telemetry/metrics.h"
#include "util/thread_annotations.h"

namespace landmark {

/// \brief Fixed-size worker pool for the explanation engine, with two
/// execution disciplines layered on the same workers:
///
///  - **ParallelFor** — static contiguous partitioning. Each chunk of the
///    index range is processed exactly once and the caller writes results
///    into pre-sized slots, so the output of a parallel stage is independent
///    of thread scheduling.
///  - **TaskGraph** (below) — per-unit dependency DAGs. Completing a node
///    enqueues its ready successors onto the completing worker's own deque
///    (LIFO, cache-warm); idle workers steal from the front of other
///    workers' deques (FIFO, oldest first). Scheduling order is free, but
///    graph nodes write only to their own pre-assigned slots, so results
///    stay deterministic.
///
/// Work distribution state is one shared FIFO queue (Submit / ParallelFor
/// chunks) plus one deque per worker (SubmitLocal / graph successors), all
/// guarded by a single pool mutex. Tasks are chunky — one per worker per
/// stage, or one per unit-stage node — so the lock is never contended
/// relative to task bodies.
///
/// A pool with `num_threads <= 1` spawns no workers; ParallelFor and
/// TaskGraph then run inline on the calling thread in deterministic FIFO
/// order, which keeps single-threaded use free of synchronization entirely.
///
/// Every pool reports into the global MetricsRegistry under the stable names
/// `pool/tasks` (counter), `pool/steals` (counter, cross-worker deque pops),
/// `pool/queue_depth` (gauge — shared queue plus all per-worker deques,
/// sampled at enqueue/dequeue), `pool/shared_queue_depth` (gauge — the
/// shared FIFO alone) and `pool/deque_depth/<i>` (gauge per worker deque),
/// `pool/task_seconds` and `pool/queue_wait_seconds` (histograms) and
/// `pool/worker_busy_seconds/<i>` (per-worker accumulated gauge —
/// utilization relative to wall time). Workers also register on the
/// flight-deck ActivityRegistry as `pool-worker-<i>` so /statusz and the
/// sampling profiler can attribute their current activity.
/// Upper bound on a pool's worker count. A larger request is either a typo
/// or a negative value cast to size_t; spawning it would abort in the pool.
inline constexpr size_t kMaxPoolThreads = 256;

/// Worker count for a pool the caller does not size explicitly:
/// max(1, std::thread::hardware_concurrency()), capped at kMaxPoolThreads.
/// The engine uses it for `num_threads == 0`; model training sizes its
/// per-Train pool with it.
size_t DefaultThreadCount();

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for an inline pool).
  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task on the shared queue. Tasks must not throw.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Enqueues one task on the calling worker's own deque when called from
  /// one of this pool's workers (newest-first execution, stealable by idle
  /// workers); falls back to the shared queue from any other thread. This
  /// is how TaskGraph keeps a unit's chain on one core while it is hot.
  void SubmitLocal(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every submitted task has finished. EXCLUDES(mu_) is
  /// the static face of the registered blocking point: callers must not
  /// hold any lock here, least of all the pool's own.
  void Wait() EXCLUDES(mu_);

  /// Splits [0, n) into at most num_threads() contiguous chunks of
  /// near-equal size and runs `body(begin, end)` for each, blocking until
  /// all chunks are done. Chunk boundaries depend only on `n` and the pool
  /// size — never on scheduling — so writes to disjoint index ranges are
  /// race-free and deterministic. Runs inline when the pool has no workers.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& body)
      EXCLUDES(mu_);

  /// Chunk count ParallelFor would use for a range of size n.
  size_t NumChunks(size_t n) const;

 private:
  friend class TaskGraph;

  struct Task {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  void WorkerLoop(size_t worker_index);
  /// Runs one task with telemetry (latency histogram, busy-seconds gauge).
  void RunTask(Task task, Gauge* busy_seconds);
  /// Shared enqueue path; `local_index` < workers size routes to that
  /// worker's deque, anything else to the shared queue.
  void Enqueue(std::function<void()> task, size_t local_index);
  /// Index of the calling thread within this pool's workers, or
  /// `workers_.size()` when the caller is not one of them.
  size_t CallerWorkerIndex() const;

  std::vector<std::thread> workers_;
  // Leaf lock: nothing else is ever acquired under it (Submit/Wait are
  // registered blocking points, so holding any lock into them aborts under
  // LANDMARK_DEADLOCK_DEBUG).
  mutable Mutex mu_{"ThreadPool::mu_"};
  std::deque<Task> queue_ GUARDED_BY(mu_);          // shared FIFO
  std::vector<std::deque<Task>> local_ GUARDED_BY(mu_);  // one per worker
  std::condition_variable_any work_cv_;  // signals workers: work/stop
  std::condition_variable_any done_cv_;  // signals Wait(): all tasks drained
  // Tasks sitting in the shared queue or any worker deque.
  size_t queued_ GUARDED_BY(mu_) = 0;
  // Queued + currently running tasks.
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;

  // Global-registry handles, resolved once at construction (never null).
  Counter* tasks_total_;
  Counter* steals_total_;
  Gauge* queue_depth_;
  Gauge* shared_queue_depth_;
  Histogram* task_seconds_;
  Histogram* queue_wait_seconds_;
  std::vector<Gauge*> worker_busy_seconds_;  // one per worker
  std::vector<Gauge*> deque_depth_;          // one per worker
};

/// \brief A dependency DAG of small tasks executed on a ThreadPool — the
/// scheduling primitive behind the engine's per-unit pipeline
/// (docs/architecture.md, "Scheduling").
///
/// Nodes are added with AddNode, naming already-added nodes as
/// dependencies; a node becomes *ready* when its last dependency finishes
/// and is then pushed onto the completing worker's deque (see
/// ThreadPool::SubmitLocal). Nodes may add further nodes while running —
/// that is how the engine grows each record's unit chains from inside the
/// record's plan node. A dependency that already finished is satisfied
/// immediately, so growing a running graph is race-free.
///
/// **Drain handle.** Run() seeds the initial ready set; Wait() blocks until
/// every node (including nodes added mid-run) has finished, then rethrows
/// the first node exception if any. A node that throws cancels the graph:
/// nodes not yet started are skipped (their bodies never run) but still
/// release their successors, so Wait() always terminates. Cancel() triggers
/// the same skip-draining explicitly.
///
/// **Determinism.** On an inline pool (no workers) nodes execute on the
/// calling thread in FIFO ready order, which is a fixed topological order
/// of the graph. With workers the interleaving is scheduling-dependent;
/// callers keep results deterministic the same way ParallelFor users do —
/// every node writes only to slots assigned before Run().
///
/// A TaskGraph is single-use: build, Run, Wait, destroy. It must outlive
/// its Wait() call and must not be destroyed while nodes are in flight.
class TaskGraph {
 public:
  using NodeId = size_t;

  /// `pool` may be null or worker-less; the graph then runs inline inside
  /// Wait(). The pool must outlive the graph.
  explicit TaskGraph(ThreadPool* pool);
  ~TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node running `fn` after every node in `deps`. Thread-safe;
  /// callable before Run() or from inside a running node. `label` (static
  /// storage, e.g. a stage name) groups the node in StageCounts() and names
  /// its flight-deck activity frame; nullptr files it under "(unlabeled)".
  NodeId AddNode(std::function<void()> fn, const std::vector<NodeId>& deps = {},
                 const char* label = nullptr);

  /// Starts executing: enqueues every currently-ready node. Call exactly
  /// once; AddNode stays legal afterwards (from inside running nodes).
  void Run() EXCLUDES(mu_);

  /// Blocks until the graph has drained, then rethrows the first exception
  /// thrown by a node body (if any). Safe to call exactly once, after
  /// Run(), from a non-worker thread.
  void Wait() EXCLUDES(mu_);

  /// Skips every node that has not started yet (bodies never run; counts
  /// still release successors so Wait() terminates).
  void Cancel();

  /// True once Cancel() was called or a node threw.
  bool cancelled() const;

  /// Nodes added so far.
  size_t num_nodes() const;

  /// Live pending/ready/running/done node counts, grouped by AddNode label
  /// in first-seen order (the flight deck's per-batch DAG progress view).
  /// Thread-safe; callable while the graph runs.
  std::vector<TaskGraphStageCounts> StageCounts() const;

 private:
  struct Node {
    std::function<void()> fn;
    const char* label = nullptr;   // static string; groups StageCounts()
    size_t pending = 0;            // unfinished dependencies
    bool started = false;          // body entered (running when !done)
    bool done = false;             // body ran (or was skipped by Cancel)
    std::vector<NodeId> successors;
  };

  /// Executes node `id` (or skips it when cancelled), then releases its
  /// successors, pushing newly-ready ones onto the current worker's deque.
  void RunNode(NodeId id);
  /// Marks `id` ready under mu_: appends it to the inline ready queue when
  /// the pool has no workers, otherwise to *to_pool for the caller to hand
  /// to Dispatch *after* releasing mu_ — ThreadPool::SubmitLocal is a
  /// registered blocking point (it takes the pool lock and may run a task
  /// inline), so it must never be entered with the graph lock held.
  void MarkReady(NodeId id, std::vector<NodeId>* to_pool) REQUIRES(mu_);
  /// Submits every node collected by MarkReady. Call without mu_ held.
  void Dispatch(const std::vector<NodeId>& to_pool);
  /// Drains the inline ready queue on the calling thread (worker-less
  /// pools).
  void DrainInline();

  ThreadPool* pool_;  // may be null (inline execution)
  mutable Mutex mu_{"TaskGraph::mu_"};
  std::vector<Node> nodes_ GUARDED_BY(mu_);
  std::deque<NodeId> inline_ready_ GUARDED_BY(mu_);
  size_t unfinished_ GUARDED_BY(mu_) = 0;
  bool running_ GUARDED_BY(mu_) = false;
  bool cancelled_ GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ GUARDED_BY(mu_);
  std::condition_variable_any drained_cv_;  // signals Wait(): unfinished_==0
};

}  // namespace landmark

#endif  // LANDMARK_UTIL_THREAD_POOL_H_
