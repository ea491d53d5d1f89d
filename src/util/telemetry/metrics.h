#ifndef LANDMARK_UTIL_TELEMETRY_METRICS_H_
#define LANDMARK_UTIL_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace landmark {

/// Small dense per-thread index (0, 1, 2, ...), assigned on a thread's first
/// call and stable for its lifetime. The metric shards and the trace
/// recorder both use it: as a shard selector here, as the exported `tid`
/// there, so a Perfetto track and a shard always refer to the same thread.
size_t ThisThreadIndex();

namespace telemetry_internal {

/// Shard count for the hot-path metric types. Writers touch only their own
/// thread's shard (modulo kShards), readers sum all shards, so updates are a
/// single relaxed fetch_add with no sharing between the first kShards
/// threads.
inline constexpr size_t kShards = 16;

inline size_t ThisShard() { return ThisThreadIndex() % kShards; }

/// Lock-free add for pre-C++20-style atomic doubles (fetch_add on
/// std::atomic<double> is not universally lock-free; the CAS loop is).
inline void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

inline void AtomicMinDouble(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

inline void AtomicMaxDouble(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace telemetry_internal

/// \brief Monotonic event counter. Add() is a relaxed fetch_add on a
/// per-thread shard; Value() sums the shards, so concurrent increments are
/// never lost (exactness under N threads is a tested contract).
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    shards_[telemetry_internal::ThisShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, telemetry_internal::kShards> shards_;
};

/// \brief Last-written (Set) or accumulated (Add) double value, e.g. a queue
/// depth or a busy-seconds total.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    telemetry_internal::AtomicAddDouble(value_, delta);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Context a caller attaches to one histogram observation so a latency
/// (or quality) outlier can be traced back to the concrete ExplainUnit that
/// produced it. The audit ordinal is the `"unit":N` envelope number of the
/// matching `--audit-out` line; it is absent when no audit sink was attached.
struct ExemplarContext {
  uint64_t audit_ordinal = 0;
  bool has_audit_ordinal = false;
  int64_t record_id = 0;
  uint32_t record_index = 0;
  uint32_t unit_index = 0;
};

/// \brief One retained observation-with-context. `thread_index` is
/// ThisThreadIndex() of the recording thread (the same dense index the trace
/// recorder exports as `tid`).
struct Exemplar {
  bool valid = false;
  double value = 0.0;
  uint64_t audit_ordinal = 0;
  bool has_audit_ordinal = false;
  int64_t record_id = 0;
  uint32_t record_index = 0;
  uint32_t unit_index = 0;
  uint32_t thread_index = 0;
};

/// \brief Exemplars of one non-empty histogram bucket: the most recent
/// observation and the largest-valued one ("peak" — for a latency histogram,
/// the worst case the bucket has seen).
struct BucketExemplars {
  size_t bucket_index = 0;
  /// Inclusive upper bound of the bucket (infinite for overflow).
  double bound = 0.0;
  Exemplar latest;
  Exemplar peak;
};

/// \brief Aggregated view of one Histogram at snapshot time. Percentiles are
/// estimated by linear interpolation inside the bucket containing the rank,
/// clamped to the observed [min, max].
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Non-empty buckets only, as (inclusive upper bound, count); the overflow
  /// bucket reports an infinite bound.
  std::vector<std::pair<double, uint64_t>> buckets;
  /// Buckets that have retained an exemplar (only histograms recorded through
  /// the LANDMARK_OBSERVE_WITH_EXEMPLAR path carry any), bucket order.
  std::vector<BucketExemplars> exemplars;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// \brief Fixed-bucket histogram for non-negative values (latencies in
/// seconds, sizes). Buckets are exponential: bucket 0 holds values up to
/// kFirstBound, each following bound doubles, and the last bucket catches
/// overflow — 1 microsecond to ~50 days when recording seconds. Record() is
/// lock-free: a bucket fetch_add plus CAS updates of the shard's sum and
/// min/max, all on the calling thread's shard.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 44;  // 43 bounded + 1 overflow
  static constexpr double kFirstBound = 1e-6;

  void Record(double value);
  /// Shortcut for recording a count-like value (e.g. batch sizes).
  void RecordCount(uint64_t value) { Record(static_cast<double>(value)); }
  /// Record() plus exemplar retention: the observation's context becomes the
  /// owning bucket's `latest` exemplar, and its `peak` when the value is the
  /// largest the bucket has seen. Exemplar slots sit behind a mutex — this
  /// is a cold-path entry point (the engine calls it from its
  /// single-threaded epilogue), while Record() stays lock-free.
  void RecordWithExemplar(double value, const ExemplarContext& context);

  uint64_t Count() const;
  HistogramSnapshot Snapshot(std::string name) const;
  void Reset();

  /// Inclusive upper bound of bucket `index` (infinity for the overflow
  /// bucket).
  static double BucketUpperBound(size_t index);
  /// Index of the bucket whose inclusive upper bound equals `bound` exactly
  /// (infinite bound → overflow bucket). Bounds in HistogramSnapshot come
  /// from BucketUpperBound, so exact equality is well-defined; a bound that
  /// matches no bucket maps to the overflow bucket.
  static size_t BucketIndexForBound(double bound);

 private:
  struct alignas(64) Shard {
    Shard();
    std::array<std::atomic<uint64_t>, kNumBuckets> counts;
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min;  // +inf when empty
    std::atomic<double> max;  // -inf when empty
  };
  struct ExemplarSlots {
    std::array<Exemplar, kNumBuckets> latest;
    std::array<Exemplar, kNumBuckets> peak;
  };
  std::array<Shard, telemetry_internal::kShards> shards_;
  // Leaf lock: exemplar slots only — the lock-free Record() path never
  // touches it. Acquired under MetricsRegistry::mu_ by Snapshot().
  mutable Mutex exemplar_mu_{"Histogram::exemplar_mu_"};
  std::unique_ptr<ExemplarSlots> exemplar_slots_ GUARDED_BY(exemplar_mu_);
};

/// \brief Everything the registry knew at one instant, with names sorted, as
/// plain values safe to format or ship without further synchronization.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// The histogram of that exact name, or nullptr.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
  /// The counter value of that exact name, or `fallback`.
  uint64_t CounterValue(const std::string& name, uint64_t fallback = 0) const;
};

/// \brief Process-wide home of all named metrics.
///
/// GetCounter/GetGauge/GetHistogram intern the name under a mutex and return
/// a reference that stays valid for the registry's lifetime — resolve once,
/// then update lock-free. Metric names form a stable contract, documented in
/// docs/architecture.md ("Telemetry"): `engine/plan_seconds`,
/// `engine/cache_hits`, `model/query_latency`, `pool/queue_depth`, ...
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point reports
  /// to (leaked intentionally: instrumented code may run during shutdown).
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered metric (handles stay valid). Meant for tests
  /// and for binaries that report per-phase snapshots.
  void Reset();

 private:
  // Interning plus snapshots. Snapshot() reads each histogram's exemplar
  // slots while holding this, hence the declared order over the exemplar
  // leaf lock.
  mutable Mutex mu_ ACQUIRED_BEFORE(Histogram::exemplar_mu_){"MetricsRegistry::mu_"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace landmark

/// Records one observation with traceback context into a histogram handle:
/// LANDMARK_OBSERVE_WITH_EXEMPLAR(metrics.fit_seconds, seconds, context);
/// The spelled-out macro marks exemplar capture sites greppably — they are
/// the (cold) places where an OpenMetrics exemplar can be born.
#define LANDMARK_OBSERVE_WITH_EXEMPLAR(hist, value, context) \
  (hist).RecordWithExemplar((value), (context))

#endif  // LANDMARK_UTIL_TELEMETRY_METRICS_H_
