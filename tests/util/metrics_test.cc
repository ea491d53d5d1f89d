#include "util/telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace landmark {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ExactUnderConcurrentIncrements) {
  // The hot-path contract: concurrent Add()s from many threads are never
  // lost. 8 threads x 100k increments must sum exactly.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  Counter counter;
  // landmark-lint: allow(raw-thread) the exactness contract is about raw
  // concurrent writers; routing through ThreadPool would serialize by chunk
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge gauge;
  gauge.Set(3.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 3.5);
  gauge.Add(-1.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 2.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

TEST(GaugeTest, ConcurrentAddsAccumulateExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Gauge gauge;
  // landmark-lint: allow(raw-thread) the exactness contract is about raw
  // concurrent writers; routing through ThreadPool would serialize by chunk
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  // Every delta is 1.0, so the CAS-loop sum is exact in double arithmetic.
  EXPECT_DOUBLE_EQ(gauge.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, BucketBoundsAreExponential) {
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 1024e-6);
  EXPECT_TRUE(
      std::isinf(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram histogram;
  histogram.Record(0.5);
  histogram.Record(1.5);
  histogram.Record(0.25);
  HistogramSnapshot snapshot = histogram.Snapshot("h");
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 2.25);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.25);
  EXPECT_DOUBLE_EQ(snapshot.max, 1.5);
  EXPECT_DOUBLE_EQ(snapshot.mean(), 0.75);
}

TEST(HistogramTest, SingleValuePercentilesAreExact) {
  // min/max clamping must collapse every percentile of a one-point
  // distribution onto that point, despite the coarse bucket.
  Histogram histogram;
  histogram.Record(0.037);
  HistogramSnapshot snapshot = histogram.Snapshot("h");
  EXPECT_DOUBLE_EQ(snapshot.p50, 0.037);
  EXPECT_DOUBLE_EQ(snapshot.p95, 0.037);
  EXPECT_DOUBLE_EQ(snapshot.p99, 0.037);
}

TEST(HistogramTest, PercentilesAreOrderedAndBracketed) {
  Histogram histogram;
  // 1ms..1s log-uniform-ish spread.
  for (int i = 0; i < 1000; ++i) {
    histogram.Record(0.001 * std::pow(1000.0, i / 999.0));
  }
  HistogramSnapshot snapshot = histogram.Snapshot("h");
  EXPECT_LE(snapshot.min, snapshot.p50);
  EXPECT_LE(snapshot.p50, snapshot.p95);
  EXPECT_LE(snapshot.p95, snapshot.p99);
  EXPECT_LE(snapshot.p99, snapshot.max);
  // The true p50 is ~0.032; the bucket estimate must land in the right
  // decade (the bucket containing it spans [~0.0168, ~0.0336]).
  EXPECT_GT(snapshot.p50, 0.01);
  EXPECT_LT(snapshot.p50, 0.07);
}

TEST(HistogramTest, UniformDistributionPercentileEstimates) {
  // 100 values in one decade: percentile interpolation should be within a
  // bucket width of the exact answer.
  Histogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.Record(i * 0.01);
  HistogramSnapshot snapshot = histogram.Snapshot("h");
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_GT(snapshot.p95, snapshot.p50);
  EXPECT_GE(snapshot.p99, snapshot.p95);
  EXPECT_LE(snapshot.p99, 1.0);
  EXPECT_GE(snapshot.p50, 0.25);  // exact p50 = 0.505, bucket (0.256, 0.512]
  EXPECT_LE(snapshot.p50, 0.55);
}

TEST(HistogramTest, OverflowBucketCatchesHugeValues) {
  Histogram histogram;
  histogram.Record(1e12);  // far past the last bounded bucket
  HistogramSnapshot snapshot = histogram.Snapshot("h");
  EXPECT_EQ(snapshot.count, 1u);
  ASSERT_EQ(snapshot.buckets.size(), 1u);
  EXPECT_TRUE(std::isinf(snapshot.buckets[0].first));
  EXPECT_DOUBLE_EQ(snapshot.max, 1e12);
}

TEST(HistogramTest, ConcurrentRecordsKeepExactCount) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram histogram;
  // landmark-lint: allow(raw-thread) the exactness contract is about raw
  // concurrent writers; routing through ThreadPool would serialize by chunk
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(1e-4 * (t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramExemplarTest, LatestAndPeakPerBucket) {
  Histogram histogram;
  ExemplarContext first;
  first.audit_ordinal = 41;
  first.has_audit_ordinal = true;
  first.record_id = 100;
  ExemplarContext second;
  second.audit_ordinal = 42;
  second.has_audit_ordinal = true;
  second.record_id = 200;
  // Same bucket, second observation smaller: latest moves, peak stays.
  LANDMARK_OBSERVE_WITH_EXEMPLAR(histogram, 1.9e-3, first);
  LANDMARK_OBSERVE_WITH_EXEMPLAR(histogram, 1.1e-3, second);

  const HistogramSnapshot snapshot = histogram.Snapshot("exemplar_seconds");
  ASSERT_EQ(snapshot.exemplars.size(), 1u);
  const BucketExemplars& bucket = snapshot.exemplars[0];
  EXPECT_TRUE(bucket.latest.valid);
  EXPECT_EQ(bucket.latest.audit_ordinal, 42u);
  EXPECT_EQ(bucket.latest.record_id, 200);
  EXPECT_DOUBLE_EQ(bucket.latest.value, 1.1e-3);
  EXPECT_TRUE(bucket.peak.valid);
  EXPECT_EQ(bucket.peak.audit_ordinal, 41u);
  EXPECT_DOUBLE_EQ(bucket.peak.value, 1.9e-3);
  // Reset drops the slots with the counts.
  histogram.Reset();
  EXPECT_TRUE(histogram.Snapshot("x").exemplars.empty());
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  // Counters, gauges and histograms live in separate namespaces.
  Gauge& gauge = registry.GetGauge("x");
  gauge.Set(7.0);
  a.Add(3);
  EXPECT_EQ(registry.GetCounter("x").Value(), 3u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("x").Value(), 7.0);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, SnapshotSortsNamesAndCopiesValues) {
  MetricsRegistry registry;
  registry.GetCounter("b").Add(2);
  registry.GetCounter("a").Add(1);
  registry.GetGauge("g").Set(4.0);
  registry.GetHistogram("h").Record(0.5);
  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a");
  EXPECT_EQ(snapshot.counters[1].first, "b");
  EXPECT_EQ(snapshot.CounterValue("b"), 2u);
  EXPECT_EQ(snapshot.CounterValue("missing", 99), 99u);
  ASSERT_NE(snapshot.FindHistogram("h"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("h")->count, 1u);
  EXPECT_EQ(snapshot.FindHistogram("nope"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  Histogram& histogram = registry.GetHistogram("h");
  counter.Add(5);
  histogram.Record(1.0);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(histogram.Count(), 0u);
  counter.Add(1);  // the old reference still feeds the same metric
  EXPECT_EQ(registry.GetCounter("c").Value(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentGetAndUpdateIsSafe) {
  // Threads race name interning and updates on a shared registry; the final
  // sums must still be exact.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  MetricsRegistry registry;
  // landmark-lint: allow(raw-thread) the exactness contract is about raw
  // concurrent writers; routing through ThreadPool would serialize by chunk
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("shared").Add();
        registry.GetHistogram("lat").Record(1e-5);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared").Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.GetHistogram("lat").Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace landmark
