#include "dist/rollout.h"

#include <filesystem>
#include <stdexcept>

#include "exp/config.h"
#include "model/training_spec.h"
#include "rl/wire.h"

namespace rlbf::dist {

std::string format_seed_list(const std::vector<std::uint64_t>& seeds) {
  std::string out;
  for (const std::uint64_t s : seeds) {
    if (!out.empty()) out += ',';
    out += std::to_string(s);
  }
  return out;
}

std::vector<std::uint64_t> parse_seed_list(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  if (text.empty()) return seeds;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(start, end - start);
    std::uint64_t value = 0;
    if (!exp::parse_uint64(item, &value)) {
      throw std::invalid_argument("--seeds: bad seed '" + item +
                                  "' (expected a comma-separated uint64 list)");
    }
    seeds.push_back(value);
    start = end + 1;
  }
  return seeds;
}

std::string rollout_request_fingerprint(
    const std::vector<std::string>& worker_args, std::size_t epoch,
    std::size_t worker_index, const std::vector<std::uint64_t>& seeds) {
  // Canonical request text: every field newline-framed so no two
  // distinct requests can render identically.
  std::string canonical = "rollout-request v1\n";
  for (const std::string& arg : worker_args) canonical += "arg " + arg + "\n";
  canonical += "epoch " + std::to_string(epoch) + "\n";
  canonical += "worker " + std::to_string(worker_index) + "\n";
  canonical += "seeds " + format_seed_list(seeds) + "\n";
  return model::fnv1a_hex(canonical);
}

ProcessCollector::ProcessCollector(PlanOptions plan,
                                   OrchestratorOptions supervise,
                                   std::shared_ptr<Launcher> launcher)
    : plan_(std::move(plan)),
      supervise_(std::move(supervise)),
      launcher_(std::move(launcher)) {
  plan_.validate("rollout transport");
  if (!launcher_) {
    throw std::invalid_argument("rollout transport: no launcher");
  }
}

std::vector<rl::SequenceResult> ProcessCollector::collect(
    const rl::CollectionPlan& plan, const rl::SequenceFn& fn) {
  (void)fn;  // workers produce sequences themselves; slots() is 0
  const std::size_t n = plan.seeds.size();
  std::vector<rl::SequenceResult> results(n);
  if (n == 0) return results;
  if (!save_model_) {
    throw std::logic_error(
        "rollout transport: set_save_model not installed before collect()");
  }

  std::filesystem::create_directories(plan_.work_dir);
  const std::string model_path =
      plan_.work_dir + "/epoch" + std::to_string(plan.epoch) + ".model";
  save_model_(model_path);

  const std::vector<JobSpec> epoch_jobs =
      plan_rollout_jobs(plan_, plan, model_path);
  const OrchestrationReport report =
      run_jobs(epoch_jobs, *launcher_, supervise_);
  jobs_.insert(jobs_.end(), epoch_jobs.begin(), epoch_jobs.end());
  if (!report.all_ok) {
    throw std::runtime_error("rollout collection failed (epoch " +
                             std::to_string(plan.epoch) + "):\n" +
                             report.failure_summary());
  }

  const std::size_t n_workers = epoch_jobs.size();
  const std::vector<std::vector<std::uint64_t>> shares =
      rollout_seed_shares(plan.seeds, n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    const std::string out_path =
        epoch_jobs[w].output_dir + "/" + kRolloutsFile;
    std::vector<rl::SequenceResult> worker_results = rl::load_rollouts(
        out_path,
        rollout_request_fingerprint(plan_.args, plan.epoch, w, shares[w]));
    if (worker_results.size() != shares[w].size()) {
      throw rl::WireError(
          "rollout wire: worker " + std::to_string(w) + " returned " +
          std::to_string(worker_results.size()) + " sequence(s), expected " +
          std::to_string(shares[w].size()) + " [" + out_path + "]");
    }
    // Inverse of the round-robin split: sequence i is the (i/W)-th
    // result of worker i%W.
    for (std::size_t k = 0; k < worker_results.size(); ++k) {
      results[k * n_workers + w] = std::move(worker_results[k]);
    }
  }
  return results;
}

}  // namespace rlbf::dist
