// One owner per counter under chaos (DESIGN.md §13.1): SessionManager's
// stats() and the registry's exposed totals read the same per-owner
// handles, so across any RunAll — including one riding a dense
// transient-fault schedule — the registry deltas must equal the manager's
// own stats deltas exactly. A drifting pair means a figure is counted
// somewhere other than its owner's handle.
//
// Chaos-suite conventions apply: arming is additive, never Reset() — the
// assertions are all deltas around the measured region, so ambient
// JINFER_FAILPOINTS schedules and leftover arms from sibling tests do not
// perturb them (gtest runs tests serially in one process).

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/strategy.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "runtime/session.h"
#include "runtime/session_manager.h"
#include "testing/registry_reader.h"
#include "util/failpoint.h"
#include "workload/synthetic.h"

namespace jinfer {
namespace runtime {
namespace {

/// The counter pairs under test: registry name vs. Stats field reader.
struct ManagerCounters {
  uint64_t completed, failed, shed, deadline_exceeded, factory_retries,
      slice_faults, hosted_opened, hosted_closed, hosted_aborted,
      hosted_reaped, hosted_shed;
};

ManagerCounters ReadRegistry() {
  using testing::ExposedCounter;
  return ManagerCounters{
      ExposedCounter(obs::kManagerCompletedTotal),
      ExposedCounter(obs::kManagerFailedTotal),
      ExposedCounter(obs::kManagerShedTotal),
      ExposedCounter(obs::kManagerDeadlineExceededTotal),
      ExposedCounter(obs::kManagerFactoryRetriesTotal),
      ExposedCounter(obs::kManagerSliceFaultsTotal),
      ExposedCounter(obs::kManagerHostedOpenedTotal),
      ExposedCounter(obs::kManagerHostedClosedTotal),
      ExposedCounter(obs::kManagerHostedAbortedTotal),
      ExposedCounter(obs::kManagerHostedReapedTotal),
      ExposedCounter(obs::kManagerHostedShedTotal),
  };
}

ManagerCounters ReadStats(const SessionManager& manager) {
  const SessionManager::Stats s = manager.stats();
  return ManagerCounters{s.completed,        s.failed,
                         s.shed,             s.deadline_exceeded,
                         s.factory_retries,  s.slice_faults,
                         s.hosted_opened,    s.hosted_closed,
                         s.hosted_aborted,   s.hosted_reaped,
                         s.hosted_shed};
}

void ExpectDeltasMatch(const ManagerCounters& registry_before,
                       const ManagerCounters& registry_after,
                       const ManagerCounters& stats_before,
                       const ManagerCounters& stats_after) {
  EXPECT_EQ(registry_after.completed - registry_before.completed,
            stats_after.completed - stats_before.completed);
  EXPECT_EQ(registry_after.failed - registry_before.failed,
            stats_after.failed - stats_before.failed);
  EXPECT_EQ(registry_after.shed - registry_before.shed,
            stats_after.shed - stats_before.shed);
  EXPECT_EQ(
      registry_after.deadline_exceeded - registry_before.deadline_exceeded,
      stats_after.deadline_exceeded - stats_before.deadline_exceeded);
  EXPECT_EQ(registry_after.factory_retries - registry_before.factory_retries,
            stats_after.factory_retries - stats_before.factory_retries);
  EXPECT_EQ(registry_after.slice_faults - registry_before.slice_faults,
            stats_after.slice_faults - stats_before.slice_faults);
  EXPECT_EQ(registry_after.hosted_opened - registry_before.hosted_opened,
            stats_after.hosted_opened - stats_before.hosted_opened);
  EXPECT_EQ(registry_after.hosted_closed - registry_before.hosted_closed,
            stats_after.hosted_closed - stats_before.hosted_closed);
  EXPECT_EQ(registry_after.hosted_aborted - registry_before.hosted_aborted,
            stats_after.hosted_aborted - stats_before.hosted_aborted);
  EXPECT_EQ(registry_after.hosted_reaped - registry_before.hosted_reaped,
            stats_after.hosted_reaped - stats_before.hosted_reaped);
  EXPECT_EQ(registry_after.hosted_shed - registry_before.hosted_shed,
            stats_after.hosted_shed - stats_before.hosted_shed);
}

TEST(MetricsChaosTest, RegistryDeltasMatchManagerStatsUnderFaults) {
  auto inst = workload::GenerateSynthetic({3, 3, 25, 5}, 404);
  ASSERT_TRUE(inst.ok());

  ASSERT_TRUE(util::Failpoints::ArmFromSpec("cache.build=prob:0.3:41;"
                                            "manager.step=prob:0.2:43")
                  .ok());

  SessionManager::Options options;
  options.threads = 4;
  options.steps_per_slice = 1;  // Finest slicing: the most counter bumps.
  options.cache_options.failure_backoff_base = std::chrono::milliseconds(1);
  options.cache_options.failure_backoff_max = std::chrono::milliseconds(10);
  options.factory_retry.max_attempts = 0;  // Transient by contract.
  options.factory_retry.base_backoff = std::chrono::microseconds(200);
  options.factory_retry.max_backoff = std::chrono::microseconds(2000);
  SessionManager manager(options);

  const ManagerCounters registry_before = ReadRegistry();
  const ManagerCounters stats_before = ReadStats(manager);

  constexpr size_t kJobs = 24;
  std::vector<SessionJob> jobs;
  for (size_t j = 0; j < kJobs; ++j) {
    SessionJob job;
    job.make = [&manager, &inst]() -> util::Result<Session> {
      JINFER_ASSIGN_OR_RETURN(auto shared,
                              manager.cache().GetOrBuild(inst->r, inst->p));
      return Session(std::move(shared),
                     core::MakeStrategy(core::StrategyKind::kTopDown));
    };
    job.oracle = std::make_unique<core::GoalOracle>(
        core::JoinPredicate::Singleton(j % 3));
    jobs.push_back(std::move(job));
  }
  auto results = manager.RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), kJobs);
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }

  const ManagerCounters registry_after = ReadRegistry();
  const ManagerCounters stats_after = ReadStats(manager);
  ExpectDeltasMatch(registry_before, registry_after, stats_before,
                    stats_after);
  // Every job finished, and the schedule actually bit (otherwise this test
  // silently degrades to the fault-free case).
  EXPECT_EQ(stats_after.completed - stats_before.completed, kJobs);
  EXPECT_GT((registry_after.factory_retries + registry_after.slice_faults) -
                (registry_before.factory_retries +
                 registry_before.slice_faults),
            0u);
}

TEST(MetricsChaosTest, RegistryDeltasMatchSheddingAndHostedLifecycle) {
  auto inst = workload::GenerateSynthetic({2, 2, 15, 4}, 777);
  ASSERT_TRUE(inst.ok());
  auto index = core::SignatureIndex::Build(inst->r, inst->p);
  ASSERT_TRUE(index.ok());

  SessionManager::Options options;
  options.threads = 2;
  options.max_queue = 2;     // Admission sheds 3 of the 5 batch jobs.
  options.max_sessions = 2;  // The third hosted open is refused.
  SessionManager manager(options);

  const ManagerCounters registry_before = ReadRegistry();
  const ManagerCounters stats_before = ReadStats(manager);

  // Batch path: 5 jobs, 2 admitted, 3 shed (shed jobs count as failed too).
  std::vector<SessionJob> jobs;
  for (size_t j = 0; j < 5; ++j) {
    SessionJob job;
    job.make = [&index]() -> util::Result<Session> {
      return Session(*index,
                     core::MakeStrategy(core::StrategyKind::kTopDown));
    };
    job.oracle = std::make_unique<core::GoalOracle>(
        core::JoinPredicate::Singleton(0));
    jobs.push_back(std::move(job));
  }
  auto results = manager.RunAll(std::move(jobs));
  ASSERT_EQ(results.size(), 5u);

  // Hosted path: open to the bound, shed one, then close / abort / reap.
  auto make = [&index]() -> util::Result<Session> {
    return Session(*index,
                   core::MakeStrategy(core::StrategyKind::kTopDown));
  };
  auto a = manager.OpenHosted(make);
  auto b = manager.OpenHosted(make);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(manager.OpenHosted(make).status().IsResourceExhausted());
  ASSERT_TRUE(manager.CloseHosted(*a).ok());
  ASSERT_TRUE(manager.AbortHosted(*b).ok());
  auto c = manager.OpenHosted(make);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(manager.ReapIdleHosted(std::chrono::nanoseconds(0)), 1u);

  const ManagerCounters registry_after = ReadRegistry();
  const ManagerCounters stats_after = ReadStats(manager);
  ExpectDeltasMatch(registry_before, registry_after, stats_before,
                    stats_after);
  EXPECT_EQ(stats_after.shed - stats_before.shed, 3u);
  EXPECT_EQ(stats_after.hosted_opened - stats_before.hosted_opened, 3u);
  EXPECT_EQ(stats_after.hosted_shed - stats_before.hosted_shed, 1u);
  EXPECT_EQ(stats_after.hosted_closed - stats_before.hosted_closed, 1u);
  EXPECT_EQ(stats_after.hosted_aborted - stats_before.hosted_aborted, 1u);
  EXPECT_EQ(stats_after.hosted_reaped - stats_before.hosted_reaped, 1u);
}

}  // namespace
}  // namespace runtime
}  // namespace jinfer
