#include "sched/easy_backfill.h"

#include <gtest/gtest.h>

#include "sched/policies.h"
#include "sched/runtime_estimator.h"

namespace rlbf::sched {
namespace {

swf::Job make_job(std::int64_t id, std::int64_t run, std::int64_t procs,
                  std::int64_t submit = 0) {
  swf::Job j;
  j.id = id;
  j.submit_time = submit;
  j.run_time = run;
  j.requested_procs = procs;
  return j;
}

// The admission test reads the candidate's estimate and processor count;
// each job below runs exactly as long as the estimate passed with it.
TEST(EasyAdmissible, FinishesBeforeShadow) {
  sim::Reservation res{/*shadow_time=*/100, /*extra_procs=*/0};
  EXPECT_TRUE(EasyBackfillChooser::admissible(make_job(1, 50, 4), res, 50, 40));
  EXPECT_TRUE(EasyBackfillChooser::admissible(make_job(1, 60, 4), res, 60, 40));
}

TEST(EasyAdmissible, RejectedPastShadowWithoutExtraNodes) {
  sim::Reservation res{100, 0};
  EXPECT_FALSE(EasyBackfillChooser::admissible(make_job(1, 61, 4), res, 61, 40));
}

TEST(EasyAdmissible, ExtraNodesAdmitNarrowOverhang) {
  sim::Reservation res{100, 3};
  EXPECT_TRUE(EasyBackfillChooser::admissible(make_job(1, 10000, 3), res, 10000, 40));
  EXPECT_FALSE(EasyBackfillChooser::admissible(make_job(1, 10000, 4), res, 10000, 40));
}

TEST(EasyAdmissible, BoundaryExactlyAtShadow) {
  sim::Reservation res{100, 0};
  // now + est == shadow is allowed (finishes exactly at the reservation).
  EXPECT_TRUE(EasyBackfillChooser::admissible(make_job(1, 100, 2), res, 100, 0));
  EXPECT_FALSE(EasyBackfillChooser::admissible(make_job(1, 101, 2), res, 101, 0));
}

/// Assemble a BackfillContext over explicit running/queued jobs.
struct ContextFixture {
  ContextFixture(std::vector<swf::Job> jobs, std::int64_t machine,
                 std::vector<std::pair<std::size_t, std::int64_t>> running,
                 std::vector<std::size_t> queue_order, std::int64_t now)
      : trace("fixture", machine, std::move(jobs)),
        cluster(machine),
        queue(std::move(queue_order)),
        now_(now) {
    for (const auto& [idx, start] : running) {
      cluster.start(idx, trace[idx].procs(), start, trace[idx].run_time);
    }
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (cluster.can_fit(trace[queue[i]].procs())) candidates.push_back(queue[i]);
    }
    std::vector<sim::RunningJob> scratch;
    reservation = sim::compute_reservation(cluster, trace[queue[0]], now_, cache, scratch);
  }
  // The cache refers to this fixture's trace and estimator.
  ContextFixture(const ContextFixture&) = delete;
  ContextFixture& operator=(const ContextFixture&) = delete;

  sim::BackfillContext context() {
    cache.begin_decision();
    return sim::BackfillContext{trace,    cluster,     cache, now_,
                                queue[0], reservation, queue, candidates};
  }

  swf::Trace trace;
  sim::ClusterState cluster;
  ActualRuntimeEstimator est;
  sim::FeatureCache cache{trace, est};
  std::vector<std::size_t> queue;
  std::vector<std::size_t> candidates;
  sim::Reservation reservation;
  std::int64_t now_;
};

TEST(EasyChooser, PicksFirstAdmissibleInQueueOrder) {
  // Machine 10: job0 runs 10 procs until 100. Queue: job1 (blocked rjob),
  // job2 (runs 200 -> inadmissible), job3 (runs 50 -> admissible).
  ContextFixture fx({make_job(1, 100, 8), make_job(2, 100, 10),
                     make_job(3, 200, 2), make_job(4, 50, 2)},
                    10, {{0, 0}}, {1, 2, 3}, 20);
  EasyBackfillChooser easy;
  auto ctx = fx.context();
  const auto pick = easy.choose(ctx);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(fx.candidates[*pick], 3u);  // job index 3 (id 4)
}

TEST(EasyChooser, ReturnsNulloptWhenNothingAdmissible) {
  ContextFixture fx({make_job(1, 100, 8), make_job(2, 100, 10),
                     make_job(3, 200, 2)},
                    10, {{0, 0}}, {1, 2}, 20);
  EasyBackfillChooser easy;
  auto ctx = fx.context();
  EXPECT_FALSE(easy.choose(ctx).has_value());
}

TEST(EasyChooser, ShortestFirstReordersCandidates) {
  // Both candidates admissible; shortest-first must pick the 10 s one
  // even though queue order lists the 50 s job first.
  ContextFixture fx({make_job(1, 100, 8), make_job(2, 100, 10),
                     make_job(3, 50, 2), make_job(4, 10, 2)},
                    10, {{0, 0}}, {1, 2, 3}, 20);
  EasyBackfillChooser sjf(BackfillOrder::ShortestFirst);
  auto ctx = fx.context();
  const auto pick = sjf.choose(ctx);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(fx.candidates[*pick], 3u);  // the 10 s job

  EasyBackfillChooser queue_order(BackfillOrder::QueueOrder);
  const auto pick2 = queue_order.choose(ctx);
  ASSERT_TRUE(pick2.has_value());
  EXPECT_EQ(fx.candidates[*pick2], 2u);  // the 50 s job (queue order)
}

TEST(EasyChooser, NamesReflectOrder) {
  EXPECT_EQ(EasyBackfillChooser(BackfillOrder::QueueOrder).name(), "EASY");
  EXPECT_EQ(EasyBackfillChooser(BackfillOrder::ShortestFirst).name(), "EASY-SJF");
}

}  // namespace
}  // namespace rlbf::sched
