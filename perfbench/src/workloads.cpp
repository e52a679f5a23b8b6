#include <sys/resource.h>

#include <cstring>

#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// A counter / histogram sum from the program's obs registry.
double obs_count(const std::string& name) {
  return static_cast<double>(rlbf::obs::counter(name).value());
}

double obs_seconds(const std::string& histogram) {
  return rlbf::obs::histogram(histogram).sum();
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + (stream + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"exp.build_trace_s", "s"},
      {"exp.trace_jobs", "jobs"},
      {"model.agent_train_s", "s"},
      {"model.agent_load_s", "s"},
      {"model.store_put_s", "s"},
      {"sim.simulate_s", "s"},
      {"sim.events", "count"},
      {"sim.backfill_opportunities", "count"},
      {"sim.backfill_decisions", "count"},
      {"sim.jobs_backfilled", "count"},
      {"sim.schedule_recomputations", "count"},
      {"sim.queue_incremental_inserts", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.backfill_yield", "ratio"},
      {"sim.bsld", "ratio"},
      {"sched.choose_calls", "count"},
      {"sched.choose_s", "s"},
      {"sched.choose_share", "ratio"},
      {"core.decisions", "count"},
      {"core.obs_build_s", "s"},
      {"core.obs_rows_mean", "rows"},
      {"core.collect_s", "s"},
      {"core.sequence_s_p50", "s"},
      {"core.sequence_s_max", "s"},
      {"core.collect_parallel_eff", "ratio"},
      {"core.eval_greedy_s", "s"},
      {"nn.infer_calls", "count"},
      {"nn.infer_s", "s"},
      {"nn.infer_us_p50", "us"},
      {"nn.infer_gflops_computed", "GFLOP/s"},
      {"nn.forward_calls", "count"},
      {"nn.forward_value_calls", "count"},
      {"nn.batched_forward_calls", "count"},
      {"nn.batched_forward_rows", "count"},
      {"nn.backward_calls", "count"},
      {"rl.update_s", "s"},
      {"rl.update_share", "ratio"},
      {"rl.steps", "count"},
      {"rl.policy_iters", "count"},
      {"rl.value_iters", "count"},
      {"rl.update_parallel_eff", "ratio"},
      {"eval.bsld", "ratio"},
      {"eval.decision_us_p50", "us"},
      {"eval.decision_us_p99", "us"},
      {"eval.decision_samples", "count"},
      {"train.wall_s", "s"},
      {"train.steps_per_s", "steps/s"},
      {"train.eval_bsld", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return units;
}

void count_schedules(Report& report, const std::vector<std::string>& verdicts,
                     const std::vector<double>& bsld, const std::vector<double>* reference,
                     const std::string& what) {
  if (verdicts.size() != bsld.size() ||
      (reference != nullptr && reference->size() != bsld.size())) {
    report.fail(what + ": schedule count differs from the reference run");
    return;
  }
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    std::string error = verdicts[i];
    if (error.empty() && reference != nullptr &&
        std::memcmp(&bsld[i], &(*reference)[i], sizeof(double)) != 0) {
      error = "bsld differs from the reference run";
    }
    if (!error.empty()) error = what + ", schedule " + std::to_string(i) + ": " + error;
    report.operation(error);
  }
}

std::vector<double> time_setups(const std::function<void()>& setup) {
  std::vector<double> seconds;
  const Clock::time_point start = Clock::now();
  while (seconds.size() < 5 || (seconds_since(start) < 2.0 && seconds.size() < 100)) {
    const Clock::time_point t0 = Clock::now();
    setup();
    seconds.push_back(seconds_since(t0));
  }
  return seconds;
}

void repeat_passes(double seconds, const std::function<void()>& pass) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    pass();
    last = seconds_since(t0);
  } while (seconds_since(start) + last <= seconds);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void obs_collect(bool on) {
  if (on) rlbf::obs::Registry::instance().reset();
  rlbf::obs::set_enabled(on);
}

void read_registry_counters(LayerValues& layers) {
  const double simulate_s = obs_seconds("sim.simulate_seconds");
  const double events = obs_count("sim.events_processed");
  const double decisions = obs_count("sim.backfill_decisions");
  const double backfilled = obs_count("sim.jobs_backfilled");
  layers["sim.simulate_s"] = simulate_s;
  layers["sim.events"] = events;
  layers["sim.backfill_opportunities"] = obs_count("sim.backfill_opportunities");
  layers["sim.backfill_decisions"] = decisions;
  layers["sim.jobs_backfilled"] = backfilled;
  layers["sim.schedule_recomputations"] = obs_count("sim.schedule_recomputations");
  layers["sim.queue_incremental_inserts"] = obs_count("sim.queue_incremental_inserts");
  layers["sim.events_per_s"] = simulate_s > 0.0 ? events / simulate_s : 0.0;
  layers["sim.backfill_yield"] = decisions > 0.0 ? backfilled / decisions : 0.0;
  for (const char* name : {"nn.forward_calls", "nn.forward_value_calls",
                           "nn.batched_forward_calls", "nn.batched_forward_rows",
                           "nn.backward_calls"}) {
    layers[name] = obs_count(name);
  }
}

}  // namespace perfbench
