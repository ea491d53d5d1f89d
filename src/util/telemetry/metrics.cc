#include "util/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace landmark {

size_t ThisThreadIndex() {
  static std::atomic<size_t> next_index{0};
  thread_local const size_t index =
      next_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// The 43 finite bucket bounds: kFirstBound * 2^i.
const std::array<double, Histogram::kNumBuckets - 1>& BucketBounds() {
  static const std::array<double, Histogram::kNumBuckets - 1> bounds = [] {
    std::array<double, Histogram::kNumBuckets - 1> b{};
    double bound = Histogram::kFirstBound;
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = bound;
      bound *= 2.0;
    }
    return b;
  }();
  return bounds;
}

size_t BucketIndex(double value) {
  const auto& bounds = BucketBounds();
  // First bound >= value; NaN and negatives land in bucket 0 (the bounds are
  // all positive and the comparison below is false for NaN).
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  return static_cast<size_t>(it - bounds.begin());  // == kNumBuckets-1: overflow
}

}  // namespace

Histogram::Shard::Shard()
    : min(std::numeric_limits<double>::infinity()),
      max(-std::numeric_limits<double>::infinity()) {
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
}

double Histogram::BucketUpperBound(size_t index) {
  if (index >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return BucketBounds()[index];
}

size_t Histogram::BucketIndexForBound(double bound) {
  if (std::isinf(bound)) return kNumBuckets - 1;
  const auto& bounds = BucketBounds();
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i] == bound) return i;
  }
  return kNumBuckets - 1;
}

void Histogram::Record(double value) {
  Shard& shard = shards_[telemetry_internal::ThisShard()];
  shard.counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  telemetry_internal::AtomicAddDouble(shard.sum, value);
  telemetry_internal::AtomicMinDouble(shard.min, value);
  telemetry_internal::AtomicMaxDouble(shard.max, value);
}

void Histogram::RecordWithExemplar(double value,
                                   const ExemplarContext& context) {
  Record(value);
  Exemplar exemplar;
  exemplar.valid = true;
  exemplar.value = value;
  exemplar.audit_ordinal = context.audit_ordinal;
  exemplar.has_audit_ordinal = context.has_audit_ordinal;
  exemplar.record_id = context.record_id;
  exemplar.record_index = context.record_index;
  exemplar.unit_index = context.unit_index;
  exemplar.thread_index = static_cast<uint32_t>(ThisThreadIndex());
  const size_t bucket = BucketIndex(value);
  MutexLock lock(&exemplar_mu_);
  if (exemplar_slots_ == nullptr) {
    exemplar_slots_ = std::make_unique<ExemplarSlots>();
  }
  exemplar_slots_->latest[bucket] = exemplar;
  Exemplar& peak = exemplar_slots_->peak[bucket];
  if (!peak.valid || value >= peak.value) peak = exemplar;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.min.store(std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
    shard.max.store(-std::numeric_limits<double>::infinity(),
                    std::memory_order_relaxed);
  }
  MutexLock lock(&exemplar_mu_);
  exemplar_slots_.reset();
}

namespace {

/// Rank-interpolated quantile from aggregated bucket counts, clamped to the
/// observed [min, max] extrema: the rank-`target` value (0-based, in
/// [0, count-1]) by linear interpolation within the owning bucket.
double HistogramPercentileFromBuckets(
    const std::array<uint64_t, Histogram::kNumBuckets>& counts, uint64_t count,
    double min, double max, double quantile) {
  if (count == 0) return 0.0;
  const double target = quantile * static_cast<double>(count - 1);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double bucket_begin = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (target >= static_cast<double>(cumulative)) continue;
    double lower = i == 0 ? 0.0 : Histogram::BucketUpperBound(i - 1);
    double upper = Histogram::BucketUpperBound(i);
    // The overflow bucket has no finite upper bound; the observed extrema
    // tighten both ends of whichever bucket owns the rank.
    lower = std::max(lower, std::min(min, max));
    upper = std::min(upper, max);
    if (upper < lower) upper = lower;
    const double fraction =
        (target - bucket_begin) / static_cast<double>(counts[i]);
    return lower + fraction * (upper - lower);
  }
  return max;
}

}  // namespace

HistogramSnapshot Histogram::Snapshot(std::string name) const {
  HistogramSnapshot snapshot;
  snapshot.name = std::move(name);
  std::array<uint64_t, kNumBuckets> counts{};
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      counts[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
    snapshot.count += shard.count.load(std::memory_order_relaxed);
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
  }
  if (snapshot.count == 0) return snapshot;
  snapshot.min = min;
  snapshot.max = max;
  snapshot.p50 =
      HistogramPercentileFromBuckets(counts, snapshot.count, min, max, 0.50);
  snapshot.p95 =
      HistogramPercentileFromBuckets(counts, snapshot.count, min, max, 0.95);
  snapshot.p99 =
      HistogramPercentileFromBuckets(counts, snapshot.count, min, max, 0.99);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (counts[i] > 0) {
      snapshot.buckets.emplace_back(BucketUpperBound(i), counts[i]);
    }
  }
  {
    MutexLock lock(&exemplar_mu_);
    if (exemplar_slots_ != nullptr) {
      for (size_t i = 0; i < kNumBuckets; ++i) {
        if (!exemplar_slots_->latest[i].valid) continue;
        BucketExemplars entry;
        entry.bucket_index = i;
        entry.bound = BucketUpperBound(i);
        entry.latest = exemplar_slots_->latest[i];
        entry.peak = exemplar_slots_->peak[i];
        snapshot.exemplars.push_back(entry);
      }
    }
  }
  return snapshot;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name,
                                       uint64_t fallback) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) return value;
  }
  return fallback;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back(histogram->Snapshot(name));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace landmark
