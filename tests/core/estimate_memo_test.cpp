// Every runtime estimate a scheduler plans with is read through the
// simulation's FeatureCache: over one simulate(), the estimator runs at
// most once per job, whichever chooser consults it — the heuristics'
// reservations and plans, the agent's observations, and the training
// env's estimate penalty alike.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/backfill_env.h"
#include "core/rl_backfill.h"
#include "sched/conservative_backfill.h"
#include "sched/easy_backfill.h"
#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "workload/presets.h"

namespace rlbf::core {
namespace {

/// Request-time estimates that count how often each job (by id) is asked.
class CountingEstimator final : public sim::RuntimeEstimator {
 public:
  std::int64_t estimate(const swf::Job& job) const override {
    ++calls_[job.id];
    return inner_.estimate(job);
  }
  std::string name() const override { return "Counting"; }

  const std::map<std::int64_t, int>& calls() const { return calls_; }

 private:
  sched::RequestTimeEstimator inner_;
  mutable std::map<std::int64_t, int> calls_;
};

AgentConfig small_config() {
  AgentConfig cfg;
  cfg.obs.max_obsv_size = 32;
  cfg.obs.value_obsv_size = 4;
  return cfg;
}

class EstimateMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::set<std::int64_t> ids;
    for (std::size_t i = 0; i < trace_.size(); ++i) ids.insert(trace_[i].id);
    ASSERT_EQ(ids.size(), trace_.size()) << "job ids must key the count";
  }

  /// One simulation under `chooser`; every job's estimate is computed at
  /// most once, and the chooser did read estimates.
  void expect_memoized(sim::BackfillChooser& chooser) {
    SCOPED_TRACE(chooser.name());
    CountingEstimator est;
    const auto results = sim::simulate(trace_, fcfs_, est, &chooser);
    std::size_t backfilled = 0;
    for (const auto& r : results) backfilled += r.backfilled ? 1 : 0;
    EXPECT_GT(backfilled, 0u);
    EXPECT_FALSE(est.calls().empty());
    for (const auto& [id, n] : est.calls()) EXPECT_EQ(n, 1) << "job id " << id;
  }

  const swf::Trace trace_ = workload::sdsc_sp2_like(7, 400);
  const sched::FcfsPolicy fcfs_;
};

TEST_F(EstimateMemoTest, EasyInEveryOrder) {
  for (const auto order :
       {sched::BackfillOrder::QueueOrder, sched::BackfillOrder::ShortestFirst,
        sched::BackfillOrder::WidestFirst, sched::BackfillOrder::NarrowestFirst}) {
    sched::EasyBackfillChooser easy(order);
    expect_memoized(easy);
  }
}

TEST_F(EstimateMemoTest, ConservativeAndSlack) {
  sched::ConservativeBackfillChooser cons;
  expect_memoized(cons);
  sched::SlackBackfillChooser slack;
  expect_memoized(slack);
}

TEST_F(EstimateMemoTest, RlBackfillChooser) {
  const Agent agent(small_config(), 1);
  RlBackfillChooser rl(agent);
  expect_memoized(rl);
}

TEST_F(EstimateMemoTest, TrainingEnvWithEstimatePenalty) {
  Agent agent(small_config(), 1);
  EnvConfig cfg;
  cfg.delay_rule = DelayRule::EstimatePenalty;
  TrainingEnv env(agent, cfg, util::Rng(3));
  env.set_baseline_bsld(10.0);
  expect_memoized(env);
  EXPECT_FALSE(env.take_episode().steps.empty());
}

}  // namespace
}  // namespace rlbf::core
