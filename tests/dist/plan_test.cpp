// Plan-builder and partition tests: jobs are pure functions of their
// options, shard flags and output directories are exactly where the
// collector will look, rollout jobs carry exactly one epoch's request,
// and the training partition keeps warm-start consumers with their
// sources.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "dist/job.h"
#include "dist/rollout.h"
#include "model/train.h"
#include "rl/collect.h"

namespace rlbf {
namespace {

bool has_arg(const dist::JobSpec& job, const std::string& arg) {
  return std::find(job.argv.begin(), job.argv.end(), arg) != job.argv.end();
}

dist::PlanOptions sweep_options() {
  dist::PlanOptions options;
  options.worker = "/usr/bin/rlbf_run";
  options.args = {"--scenario=sdsc-easy", "--seed=7"};
  options.workers = 3;
  options.work_dir = "scratch";
  return options;
}

TEST(PlanTest, SweepPlanPartitionsIntoShardJobs) {
  const std::vector<dist::JobSpec> jobs = dist::plan_sweep_jobs(sweep_options());
  ASSERT_EQ(jobs.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, i);
    EXPECT_EQ(jobs[i].name,
              "sweep-shard" + std::to_string(i) + "/3");
    EXPECT_EQ(jobs[i].argv[0], "/usr/bin/rlbf_run");
    EXPECT_EQ(jobs[i].argv[1], "sweep");
    EXPECT_TRUE(has_arg(jobs[i], "--scenario=sdsc-easy"));
    EXPECT_TRUE(has_arg(jobs[i], "--seed=7"));
    EXPECT_TRUE(has_arg(jobs[i], "--shard=" + std::to_string(i) + "/3"));
    EXPECT_EQ(jobs[i].output_dir, "scratch/shard" + std::to_string(i));
    EXPECT_TRUE(has_arg(jobs[i], "--out_dir=" + jobs[i].output_dir));
  }
}

TEST(PlanTest, SweepPlanIsDeterministic) {
  const auto a = dist::plan_sweep_jobs(sweep_options());
  const auto b = dist::plan_sweep_jobs(sweep_options());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].argv, b[i].argv);
    EXPECT_EQ(a[i].output_dir, b[i].output_dir);
  }
}

TEST(PlanTest, TrainPlanGivesEachWorkerAPrivateStoreAndBundle) {
  dist::PlanOptions options;
  options.worker = "rlbf_run";
  options.args = {"--ablations", "--epochs=1"};
  options.workers = 2;
  options.work_dir = "w";
  const std::vector<dist::JobSpec> jobs = dist::plan_train_jobs(options);
  ASSERT_EQ(jobs.size(), 2u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string worker_dir = "w/worker" + std::to_string(i);
    EXPECT_EQ(jobs[i].argv[1], "train");
    EXPECT_TRUE(has_arg(jobs[i], "--ablations"));
    EXPECT_TRUE(has_arg(jobs[i], "--shard=" + std::to_string(i) + "/2"));
    EXPECT_TRUE(has_arg(jobs[i], "--store=" + worker_dir + "/store"));
    EXPECT_TRUE(has_arg(jobs[i], "--export_bundle=" + worker_dir + "/bundle"));
    EXPECT_EQ(jobs[i].output_dir, worker_dir + "/bundle");
  }
}

TEST(PlanTest, MalformedPlanOptionsAreNamedErrors) {
  // Every planner (and the rollout transport) runs the one
  // PlanOptions::validate; each rejection names the planner.
  rl::CollectionPlan epoch;
  epoch.seeds = {1, 2};
  const auto expect_named = [](const auto& plan_fn, const char* who) {
    try {
      plan_fn();
      FAIL() << "expected std::invalid_argument from " << who;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(who), std::string::npos) << e.what();
    }
  };
  dist::PlanOptions options = sweep_options();
  options.workers = 0;
  expect_named([&] { dist::plan_sweep_jobs(options); }, "plan_sweep_jobs");
  expect_named([&] { dist::plan_rollout_jobs(options, epoch, "m"); },
               "plan_rollout_jobs");
  options = sweep_options();
  options.worker = "";
  expect_named([&] { dist::plan_sweep_jobs(options); }, "plan_sweep_jobs");
  expect_named([&] { dist::plan_rollout_jobs(options, epoch, "m"); },
               "plan_rollout_jobs");
  options = sweep_options();
  options.work_dir = "";
  expect_named([&] { dist::plan_train_jobs(options); }, "plan_train_jobs");
  expect_named([&] { dist::plan_rollout_jobs(options, epoch, "m"); },
               "plan_rollout_jobs");
}

// ---- one epoch of rollout jobs (dist::plan_rollout_jobs) ----

dist::PlanOptions rollout_options() {
  dist::PlanOptions options;
  options.worker = "rlbf_run";
  options.args = {"--spec=sdsc-tiny", "--seed=3"};
  options.workers = 3;
  options.work_dir = "r";
  return options;
}

rl::CollectionPlan rollout_epoch(std::size_t epoch, std::size_t sequences) {
  rl::CollectionPlan plan;
  plan.epoch = epoch;
  for (std::size_t i = 0; i < sequences; ++i) plan.seeds.push_back(100 + i);
  return plan;
}

std::string arg_value(const dist::JobSpec& job, const std::string& flag) {
  for (const std::string& arg : job.argv) {
    if (arg.rfind(flag + "=", 0) == 0) return arg.substr(flag.size() + 1);
  }
  return "<absent>";
}

TEST(RolloutPlanTest, SplitsSeedsRoundRobinIntoOneRequestPerWorker) {
  const rl::CollectionPlan epoch = rollout_epoch(2, 7);
  const std::vector<dist::JobSpec> jobs =
      dist::plan_rollout_jobs(rollout_options(), epoch, "r/epoch2.model");
  ASSERT_EQ(jobs.size(), 3u);
  const auto shares = dist::rollout_seed_shares(epoch.seeds, 3);
  EXPECT_EQ(shares[0], (std::vector<std::uint64_t>{100, 103, 106}));
  EXPECT_EQ(shares[2], (std::vector<std::uint64_t>{102, 105}));
  for (std::size_t w = 0; w < jobs.size(); ++w) {
    const dist::JobSpec& job = jobs[w];
    EXPECT_EQ(job.argv[0], "rlbf_run");
    EXPECT_EQ(job.argv[1], "collect-rollouts");
    EXPECT_EQ(job.argv[2], "--spec=sdsc-tiny");
    EXPECT_EQ(job.argv[3], "--seed=3");
    EXPECT_EQ(job.name, "rollout-e2-w" + std::to_string(w) + "/3");
    EXPECT_EQ(job.output_dir, "r/e2.w" + std::to_string(w));
    EXPECT_EQ(arg_value(job, "--seeds"), dist::format_seed_list(shares[w]));
    EXPECT_EQ(arg_value(job, "--model"), "r/epoch2.model");
    EXPECT_EQ(arg_value(job, "--epoch"), "2");
    EXPECT_EQ(arg_value(job, "--out"), job.output_dir + "/rollouts.bin");
    EXPECT_EQ(arg_value(job, "--fingerprint"),
              dist::rollout_request_fingerprint(rollout_options().args, 2, w,
                                                shares[w]));
    // No finite epsilon in the plan: the flag is absent, not "nan".
    EXPECT_EQ(arg_value(job, "--epsilon"), "<absent>");
  }
}

TEST(RolloutPlanTest, EpsilonRidesAlongOnlyWhenFinite) {
  rl::CollectionPlan epoch = rollout_epoch(1, 2);
  epoch.epsilon = 0.25;
  for (const dist::JobSpec& job :
       dist::plan_rollout_jobs(rollout_options(), epoch, "m")) {
    EXPECT_EQ(arg_value(job, "--epsilon"), "0.25");
  }
}

TEST(RolloutPlanTest, JobIdsAreUniqueAcrossEpochs) {
  std::vector<std::size_t> ids;
  for (std::size_t e = 1; e <= 4; ++e) {
    for (const dist::JobSpec& job :
         dist::plan_rollout_jobs(rollout_options(), rollout_epoch(e, 5), "m")) {
      EXPECT_EQ(job.id, (e - 1) * 3 + ids.size() % 3);
      ids.push_back(job.id);
    }
  }
  std::vector<std::size_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(ids.size(), 12u);
}

TEST(RolloutPlanTest, WorkersClampToTheSequenceCount) {
  const std::vector<dist::JobSpec> jobs =
      dist::plan_rollout_jobs(rollout_options(), rollout_epoch(1, 2), "m");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[1].name, "rollout-e1-w1/2");
  EXPECT_TRUE(
      dist::plan_rollout_jobs(rollout_options(), rollout_epoch(1, 0), "m")
          .empty());
}

TEST(RolloutPlanTest, SidecarsSitAtTheWorkDirRootNamedByJobId) {
  dist::PlanOptions options = rollout_options();
  options.worker_metrics = true;
  options.worker_trace = true;
  options.worker_series = true;
  for (const dist::JobSpec& job :
       dist::plan_rollout_jobs(options, rollout_epoch(2, 6), "m")) {
    const std::string stem = "r/worker" + std::to_string(job.id);
    EXPECT_EQ(job.metrics_path, stem + ".metrics.json");
    EXPECT_EQ(job.trace_path, stem + ".trace.json");
    EXPECT_EQ(job.series_path, stem + ".series.jsonl");
    EXPECT_TRUE(has_arg(job, "--metrics_out=" + job.metrics_path));
    EXPECT_TRUE(has_arg(job, "--trace_out=" + job.trace_path));
    EXPECT_TRUE(has_arg(job, "--series_out=" + job.series_path));
  }
  // Without the flags no sidecar is requested.
  for (const dist::JobSpec& job :
       dist::plan_rollout_jobs(rollout_options(), rollout_epoch(2, 6), "m")) {
    EXPECT_TRUE(job.metrics_path.empty());
    EXPECT_EQ(arg_value(job, "--metrics_out"), "<absent>");
  }
}

TEST(PlanTest, CommandLineQuotesEveryArgument) {
  dist::JobSpec job;
  job.argv = {"bin", "--flag=a b"};
  EXPECT_EQ(job.command_line(), "'bin' '--flag=a b'");
}

// ---- the train-grid partition (model::train_shard_indices) ----

std::vector<model::TrainingSpec> specs_named(
    const std::vector<std::string>& names) {
  std::vector<model::TrainingSpec> specs;
  for (const std::string& name : names) {
    model::TrainingSpec spec;
    spec.name = name;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(TrainShardTest, PlainRoundRobinWithoutWarmStarts) {
  const auto specs = specs_named({"a", "b", "c", "d", "e"});
  EXPECT_EQ(model::train_shard_indices(specs, 0, 2),
            (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(model::train_shard_indices(specs, 1, 2),
            (std::vector<std::size_t>{1, 3}));
  // 0/1 is "everything", matching the unsharded default.
  EXPECT_EQ(model::train_shard_indices(specs, 0, 1),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TrainShardTest, ShardsBeyondTheGridAreEmpty) {
  const auto specs = specs_named({"a", "b"});
  EXPECT_TRUE(model::train_shard_indices(specs, 2, 4).empty());
  EXPECT_TRUE(model::train_shard_indices(specs, 0, 3).size() == 1);
}

TEST(TrainShardTest, WarmStartConsumerSharesItsSourcesShard) {
  auto specs = specs_named({"source", "b", "c", "finetune", "d"});
  specs[3].init_agent = "source";
  // Groups in first-member order: {source, finetune}=0, {b}=1, {c}=2,
  // {d}=3 — round-robin over groups keeps the chain together on shard 0
  // and wraps group 3 back onto shard 0.
  const auto shard0 = model::train_shard_indices(specs, 0, 3);
  const auto shard1 = model::train_shard_indices(specs, 1, 3);
  const auto shard2 = model::train_shard_indices(specs, 2, 3);
  EXPECT_EQ(shard0, (std::vector<std::size_t>{0, 3, 4}));  // chain + d
  EXPECT_EQ(shard1, (std::vector<std::size_t>{1}));        // b
  EXPECT_EQ(shard2, (std::vector<std::size_t>{2}));        // c
  // The union over all shards is the whole grid, disjointly.
  std::vector<std::size_t> all;
  for (const auto* shard : {&shard0, &shard1, &shard2}) {
    all.insert(all.end(), shard->begin(), shard->end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TrainShardTest, TransitiveWarmStartChainsStayTogether) {
  auto specs = specs_named({"a", "b", "c"});
  specs[1].init_agent = "a";  // b warm-starts from a
  specs[2].init_agent = "b";  // c from b: one 3-spec group
  EXPECT_EQ(model::train_shard_indices(specs, 0, 2),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(model::train_shard_indices(specs, 1, 2).empty());
}

TEST(TrainShardTest, ExternalWarmStartReferencesDoNotGroup) {
  // init_agent naming a store key / file path (not a spec in the list)
  // leaves the spec an independent group.
  auto specs = specs_named({"a", "b"});
  specs[1].init_agent = "0123456789abcdef";
  EXPECT_EQ(model::train_shard_indices(specs, 0, 2),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(model::train_shard_indices(specs, 1, 2),
            (std::vector<std::size_t>{1}));
}

TEST(TrainShardTest, MalformedShardsAreNamedErrors) {
  const auto specs = specs_named({"a"});
  EXPECT_THROW(model::train_shard_indices(specs, 0, 0), std::invalid_argument);
  EXPECT_THROW(model::train_shard_indices(specs, 2, 2), std::invalid_argument);
  try {
    model::train_shard_indices(specs, 3, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard index 3"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace rlbf
