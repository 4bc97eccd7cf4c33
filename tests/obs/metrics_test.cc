// Registry, counter/gauge/histogram semantics, and the quantile arithmetic
// the exposition layer and the server's StatsOk summaries both rely on
// (DESIGN.md §13.1). The concurrency tests pin the wait-free contract:
// sharded increments lose nothing under 8 writers, and readers only ever
// see sums of completed relaxed adds.

#include "obs/metrics.h"

#include <cstdint>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace jinfer {
namespace obs {
namespace {

/// Tests that flip the kill switch must restore it — the suites share one
/// process and every later recording depends on the default-on state.
class MetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { SetMetricsEnabled(true); }
};

TEST_F(MetricsTest, CounterSumsConcurrentIncrementsExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(MetricsTest, CounterIncByNAccumulates) {
  Counter counter;
  counter.Inc(3);
  counter.Inc(0);
  counter.Inc(39);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(7);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.Value(), -3);
  gauge.Set(0);
  EXPECT_EQ(gauge.Value(), 0);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  EXPECT_EQ(HistogramBucket(7), 3u);
  EXPECT_EQ(HistogramBucket(8), 4u);
  EXPECT_EQ(HistogramBucket((uint64_t{1} << 63) - 1), 63u);
  EXPECT_EQ(HistogramBucket(uint64_t{1} << 63), 64u);
  EXPECT_EQ(HistogramBucket(UINT64_MAX), 64u);

  EXPECT_EQ(HistogramSnapshot::BucketLower(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(0), 0u);
  EXPECT_EQ(HistogramSnapshot::BucketLower(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(1), 1u);
  EXPECT_EQ(HistogramSnapshot::BucketLower(4), 8u);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(4), 15u);
  EXPECT_EQ(HistogramSnapshot::BucketLower(64), uint64_t{1} << 63);
  EXPECT_EQ(HistogramSnapshot::BucketUpper(64), UINT64_MAX);
}

TEST_F(MetricsTest, HistogramRecordsExtremesWithoutLoss) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(UINT64_MAX);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[64], 1u);
  EXPECT_EQ(snap.sum, UINT64_MAX);  // 0 + max, wrap-free.
}

TEST_F(MetricsTest, QuantileGoldens) {
  // One sample per bucket 1/2/3: values 1, 2, 4. Rank selection is
  // ceil(q*count) clamped to >= 1; interpolation is the rank's position
  // among the bucket's own samples — all deterministic, so exact doubles.
  Histogram histogram;
  histogram.Record(1);
  histogram.Record(2);
  histogram.Record(4);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 7u);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.0);   // rank 1 -> bucket 1.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 3.0);   // rank 2 -> top of [2,3].
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 7.0);  // rank 3 -> top of [4,7].
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 7.0);
}

TEST_F(MetricsTest, QuantileInterpolatesWithinABucket) {
  // 100 samples all in bucket 10 ([512, 1023]): p50 sits halfway up the
  // bucket, p99 at the 99% position — linear interpolation, not midpoint.
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(1000);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 512.0 + 511.0 * 0.5);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 512.0 + 511.0 * 0.99);
}

TEST_F(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Quantile(0.5), 0.0);
}

TEST_F(MetricsTest, HistogramSumsConcurrentRecordsExactly) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (auto& t : pool) t.join();
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // Sum of t+1 for t in [0, 8) times kPerThread.
  EXPECT_EQ(snap.sum, kPerThread * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

TEST_F(MetricsTest, DisabledRecordingIsANoOp) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  counter.Inc();
  gauge.Set(5);
  histogram.Record(123);
  SetMetricsEnabled(true);
  // Counters and gauges back stats(), so the kill switch leaves them
  // counting; it gates histograms only.
  EXPECT_EQ(counter.Value(), 1u);
  EXPECT_EQ(gauge.Value(), 5);
  EXPECT_EQ(histogram.Snapshot().count, 0u);
}

TEST_F(MetricsTest, LocalHistogramMergeMatchesDirectRecording) {
  // Batched recording must be observationally identical to direct
  // recording: same per-bucket counts, sum, count and quantiles.
  Histogram direct;
  Histogram batched;
  LocalHistogram local;
  const uint64_t samples[] = {0, 1, 7, 8, 9, 1023, 1024, 4096, 4097, 1u << 20};
  for (uint64_t v : samples) {
    direct.Record(v);
    local.Record(v);
  }
  EXPECT_EQ(local.count(), 10u);
  batched.Merge(local);
  EXPECT_EQ(local.count(), 0u);  // Merge consumes the batch.
  const HistogramSnapshot a = direct.Snapshot();
  const HistogramSnapshot b = batched.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST_F(MetricsTest, LocalHistogramReusableAcrossMerges) {
  // The session hot path merges every few dozen samples into the same
  // accumulator object; totals must accumulate, never double-count.
  Histogram shared;
  LocalHistogram local;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t v = 0; v < 100; ++v) local.Record(v);
    shared.Merge(local);
  }
  const HistogramSnapshot snap = shared.Snapshot();
  EXPECT_EQ(snap.count, 300u);
  EXPECT_EQ(snap.sum, 3u * (99 * 100 / 2));
}

TEST_F(MetricsTest, LocalHistogramMoveResetsSourceSoFlushIsNoOp) {
  Histogram shared;
  LocalHistogram a;
  a.Record(42);
  a.Record(7);
  LocalHistogram b = std::move(a);
  shared.Merge(a);  // Moved-from flush: must contribute nothing.
  EXPECT_EQ(shared.Snapshot().count, 0u);
  shared.Merge(b);
  const HistogramSnapshot snap = shared.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 49u);
}

TEST_F(MetricsTest, LocalHistogramMergeWhileDisabledDiscardsBatch) {
  // The kill switch drops batched samples too — a re-enable must not
  // resurrect measurements taken while disabled.
  Histogram shared;
  LocalHistogram local;
  local.Record(5);
  SetMetricsEnabled(false);
  shared.Merge(local);
  SetMetricsEnabled(true);
  EXPECT_EQ(local.count(), 0u);
  EXPECT_EQ(shared.Snapshot().count, 0u);
}

TEST_F(MetricsTest, RegistryReturnsSameObjectForSameName) {
  Registry& registry = Registry::Global();
  Counter& a = registry.counter("test_metrics_same_name_total");
  Counter& b = registry.counter("test_metrics_same_name_total");
  EXPECT_EQ(&a, &b);
  Histogram& ha = registry.histogram("test_metrics_same_name_nanos");
  Histogram& hb = registry.histogram("test_metrics_same_name_nanos");
  EXPECT_EQ(&ha, &hb);
}

TEST_F(MetricsTest, RegistrySnapshotSeesRegisteredValues) {
  Registry& registry = Registry::Global();
  registry.counter("test_metrics_snapshot_total").Inc(5);
  registry.gauge("test_metrics_snapshot_level").Set(-2);
  registry.histogram("test_metrics_snapshot_nanos").Record(9);
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const MetricSnapshot& m : registry.Snapshot()) {
    if (m.name == "test_metrics_snapshot_total") {
      saw_counter = true;
      EXPECT_EQ(m.kind, MetricKind::kCounter);
      EXPECT_EQ(m.counter, 5u);
    } else if (m.name == "test_metrics_snapshot_level") {
      saw_gauge = true;
      EXPECT_EQ(m.kind, MetricKind::kGauge);
      EXPECT_EQ(m.gauge, -2);
    } else if (m.name == "test_metrics_snapshot_nanos") {
      saw_histogram = true;
      EXPECT_EQ(m.kind, MetricKind::kHistogram);
      EXPECT_EQ(m.histogram.count, 1u);
      EXPECT_EQ(m.histogram.sum, 9u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_histogram);
}

/// The exposed value of `name` in `registry` (counter or gauge).
int64_t Exposed(const Registry& registry, std::string_view name) {
  for (const MetricSnapshot& m : registry.Snapshot()) {
    if (m.name == name) {
      return m.kind == MetricKind::kCounter ? static_cast<int64_t>(m.counter)
                                            : m.gauge;
    }
  }
  return -1;
}

TEST_F(MetricsTest, OwnedCounterTotalsLiveAndRetiredOwners) {
  Registry registry;
  OwnedCounter a("test_owned_total", registry);
  a->Inc(3);
  {
    OwnedCounter b("test_owned_total", registry);
    b->Inc(4);
    EXPECT_EQ(a->Value(), 3u);  // Each owner reads only its own share.
    EXPECT_EQ(b->Value(), 4u);
    EXPECT_EQ(Exposed(registry, "test_owned_total"), 7);
  }
  // A destroyed owner's final count stays: the total is monotone.
  EXPECT_EQ(Exposed(registry, "test_owned_total"), 7);
  a->Inc();
  EXPECT_EQ(Exposed(registry, "test_owned_total"), 8);
}

TEST_F(MetricsTest, OwnedGaugeSumsLiveOwnersOnly) {
  Registry registry;
  OwnedGauge a("test_owned_level", registry);
  a->Set(2);
  {
    OwnedGauge b("test_owned_level", registry);
    b->Set(5);
    EXPECT_EQ(Exposed(registry, "test_owned_level"), 7);
  }
  // A gauge's level leaves with its owner.
  EXPECT_EQ(Exposed(registry, "test_owned_level"), 2);
}

TEST_F(MetricsTest, OwnedHandleMoveKeepsCountingIntoTheSameTotal) {
  Registry registry;
  OwnedCounter a("test_owned_move_total", registry);
  a->Inc(2);
  OwnedCounter b = std::move(a);  // The moved-from handle is inert.
  b->Inc();
  EXPECT_EQ(b->Value(), 3u);
  OwnedCounter c("test_owned_move_total", registry);
  c->Inc(10);
  c = std::move(b);  // c's own count of 10 retires into the total.
  c->Inc();
  EXPECT_EQ(c->Value(), 4u);
  EXPECT_EQ(Exposed(registry, "test_owned_move_total"), 14);
}

TEST_F(MetricsTest, OwnedCountersCountWhileDisabled) {
  Registry registry;
  OwnedCounter counter("test_owned_disabled_total", registry);
  SetMetricsEnabled(false);
  counter->Inc();
  SetMetricsEnabled(true);
  EXPECT_EQ(counter->Value(), 1u);
}

TEST_F(MetricsTest, RegistryRegistrationIsThreadSafe) {
  // 8 threads race to register and increment the same name; exactly one
  // object must win and every increment must land on it.
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      Counter& counter =
          Registry::Global().counter("test_metrics_race_total");
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(Registry::Global().counter("test_metrics_race_total").Value(),
            kThreads * kPerThread);
}

}  // namespace
}  // namespace obs
}  // namespace jinfer
