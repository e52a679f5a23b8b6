#include "dist/job.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dist/rollout.h"
#include "exp/config.h"
#include "rl/collect.h"
#include "util/subprocess.h"

namespace rlbf::dist {

namespace {

std::string shard_flag(std::size_t i, std::size_t n) {
  return "--shard=" + std::to_string(i) + "/" + std::to_string(n);
}

/// Sidecar flags ride on every planned job the same way: files at the
/// work_dir root named by job id, so they never land inside the
/// output_dir a collector merges.
void add_sidecars(JobSpec& job, const PlanOptions& options) {
  const std::string stem =
      options.work_dir + "/worker" + std::to_string(job.id);
  if (options.worker_metrics) {
    job.metrics_path = stem + ".metrics.json";
    job.argv.push_back("--metrics_out=" + job.metrics_path);
  }
  if (options.worker_trace) {
    job.trace_path = stem + ".trace.json";
    job.argv.push_back("--trace_out=" + job.trace_path);
  }
  if (options.worker_series) {
    job.series_path = stem + ".series.jsonl";
    job.argv.push_back("--series_out=" + job.series_path);
  }
}

/// The job loop every plan shares: `count` jobs with ids first_id..,
/// each `<worker> <subcommand> <args...>`, then the plan's own name,
/// output_dir and flags (`shape(i, job)`), then the sidecar flags.
template <class Shape>
std::vector<JobSpec> plan_jobs(const PlanOptions& options, const char* who,
                               const char* subcommand, std::size_t count,
                               std::size_t first_id, const Shape& shape) {
  options.validate(who);
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    JobSpec job;
    job.id = first_id + i;
    job.argv = {options.worker, subcommand};
    job.argv.insert(job.argv.end(), options.args.begin(), options.args.end());
    shape(i, job);
    add_sidecars(job, options);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

void PlanOptions::validate(const std::string& who) const {
  if (worker.empty()) {
    throw std::invalid_argument(who + ": empty worker binary path");
  }
  if (work_dir.empty()) {
    throw std::invalid_argument(who + ": empty work directory");
  }
  if (workers == 0) {
    throw std::invalid_argument(who + ": worker count must be >= 1");
  }
}

std::string JobSpec::command_line() const {
  std::string line;
  for (const std::string& arg : argv) {
    if (!line.empty()) line += ' ';
    line += util::shell_quote(arg);
  }
  return line;
}

std::vector<JobSpec> plan_sweep_jobs(const PlanOptions& options) {
  const std::string n = std::to_string(options.workers);
  return plan_jobs(
      options, "plan_sweep_jobs", "sweep", options.workers, 0,
      [&](std::size_t i, JobSpec& job) {
        job.name = "sweep-shard" + std::to_string(i) + "/" + n;
        job.output_dir = options.work_dir + "/shard" + std::to_string(i);
        job.argv.push_back(shard_flag(i, options.workers));
        job.argv.push_back("--out_dir=" + job.output_dir);
      });
}

std::vector<JobSpec> plan_train_jobs(const PlanOptions& options) {
  const std::string n = std::to_string(options.workers);
  return plan_jobs(
      options, "plan_train_jobs", "train", options.workers, 0,
      [&](std::size_t i, JobSpec& job) {
        const std::string worker_dir =
            options.work_dir + "/worker" + std::to_string(i);
        job.name = "train-shard" + std::to_string(i) + "/" + n;
        job.output_dir = worker_dir + "/bundle";
        job.argv.push_back(shard_flag(i, options.workers));
        job.argv.push_back("--store=" + worker_dir + "/store");
        job.argv.push_back("--export_bundle=" + job.output_dir);
      });
}

std::vector<std::vector<std::uint64_t>> rollout_seed_shares(
    const std::vector<std::uint64_t>& seeds, std::size_t workers) {
  std::vector<std::vector<std::uint64_t>> shares(workers);
  if (workers == 0) return shares;  // plan_jobs rejects the plan
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    shares[i % workers].push_back(seeds[i]);
  }
  return shares;
}

std::vector<JobSpec> plan_rollout_jobs(const PlanOptions& options,
                                       const rl::CollectionPlan& epoch,
                                       const std::string& model_path) {
  const std::size_t count = std::min(options.workers, epoch.seeds.size());
  const std::vector<std::vector<std::uint64_t>> shares =
      rollout_seed_shares(epoch.seeds, count);
  const std::string e = std::to_string(epoch.epoch);
  const std::size_t first_id = (epoch.epoch >= 1 ? epoch.epoch - 1 : 0) * count;
  return plan_jobs(
      options, "plan_rollout_jobs", "collect-rollouts", count, first_id,
      [&](std::size_t w, JobSpec& job) {
        job.name = "rollout-e" + e + "-w" + std::to_string(w) + "/" +
                   std::to_string(count);
        job.output_dir = options.work_dir + "/e" + e + ".w" + std::to_string(w);
        job.argv.push_back("--seeds=" + format_seed_list(shares[w]));
        job.argv.push_back("--model=" + model_path);
        job.argv.push_back("--epoch=" + e);
        job.argv.push_back("--out=" + job.output_dir + "/" + kRolloutsFile);
        job.argv.push_back("--fingerprint=" +
                           rollout_request_fingerprint(options.args, epoch.epoch,
                                                       w, shares[w]));
        if (std::isfinite(epoch.epsilon)) {
          job.argv.push_back("--epsilon=" +
                             exp::format_double_exact(epoch.epsilon));
        }
      });
}

}  // namespace rlbf::dist
