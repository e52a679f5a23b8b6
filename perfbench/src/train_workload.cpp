// ppo-train: the paper's sdsc-fcfs training protocol (SDSC-SP2, FCFS base,
// 256-job trajectories, 80 PPO iterations, minibatch 512) at a reduced
// epoch and trajectory count, two threads, into a fresh scratch store each
// time, through model::train_on_trace — train_spec's executor with the
// trace passed in. The trace is pinned to the spec's own (trace seed 1,
// the one `rlbf_run train sdsc-fcfs` trains on) and the benchmark seed
// drives the trainer seed: initial policy, trajectory sampling and
// held-out evaluation sequences. A seed-drawn trace would move the cost
// per step with its queue depth (see NOTES.md).
//
// Traced, the same protocol runs on a core::Trainer with its collector
// wrapped in a TimedCollector (Trainer::train's epoch / greedy-evaluation
// / keep-best loop driven from here so each phase gets a span), and the
// trained parameters must equal the untraced run's.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>

#include "calibration.h"
#include "core/trainer.h"
#include "model/train.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::uint64_t kTraceSeed = 1;

rlbf::model::TrainingSpec train_spec_for(std::uint64_t seed) {
  rlbf::model::TrainingSpec spec = rlbf::model::find_training_spec("sdsc-fcfs");
  spec.name = "perfbench-ppo";
  // One epoch (2–4 s): a run holds enough training runs for its median to
  // be steady, and each is bracketed by calibration kernel runs.
  spec.trainer.epochs = 1;
  spec.trainer.trajectories_per_epoch = 16;
  spec.trainer.seed = derive_seed(seed, 3000);
  return spec;
}

/// Trajectory jobs one training run schedules.
double jobs_per_run(const rlbf::model::TrainingSpec& spec) {
  return static_cast<double>(spec.trainer.epochs * spec.trainer.trajectories_per_epoch *
                             spec.trainer.jobs_per_trajectory);
}

std::vector<double> parameters(const rlbf::core::Agent& agent) {
  std::vector<double> values;
  for (const auto& group :
       {agent.model().policy_parameters(), agent.model().value_parameters()}) {
    for (const auto& p : group) {
      values.insert(values.end(), p->value.data().begin(), p->value.data().end());
    }
  }
  return values;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct TrainRun {
  double wall_s = 0.0;
  double jobs_per_cal = 0.0;
  double epoch_s = 0.0;  // Σ epoch wall (collection + update)
  std::size_t steps = 0;
  double eval_bsld = 0.0;
  std::string key;
  std::vector<double> params;
};

/// One untraced training run into a fresh store; its output check —
/// including, when given, bit-equality with a reference run's trained
/// parameters — becomes one operation.
TrainRun untraced_train(const rlbf::swf::Trace& trace,
                        const rlbf::model::TrainingSpec& spec, const std::string& dir,
                        Report& report, const std::vector<double>* reference = nullptr) {
  TrainRun run;
  std::filesystem::remove_all(dir);
  std::optional<rlbf::model::Store> store(std::in_place, dir);
  CalibratedTimer timer(kThreads);
  rlbf::model::TrainOptions options;
  options.threads = kThreads;
  options.on_progress = [&](const rlbf::model::TrainingSpec&,
                            const rlbf::model::TrainProgress& p) {
    run.steps += p.steps;
    run.epoch_s += p.wall_seconds;
    timer.calibrate_inside();
  };
  rlbf::model::TrainOutcome outcome;
  timer.time([&] { outcome = rlbf::model::train_on_trace(trace, spec, *store, options); });
  timer.finish();
  run.wall_s = timer.work_seconds();
  run.jobs_per_cal = timer.jobs_per_cal(jobs_per_run(spec));
  run.eval_bsld = outcome.best_eval_bsld;
  run.key = outcome.entry.key;
  run.params = parameters(store->load(outcome.entry.key));
  store.reset();  // flushes the store index before the directory goes
  std::string error;
  if (outcome.cache_hit || outcome.epochs_run != spec.trainer.epochs) {
    error = "training did not run every epoch";
  } else if (!(run.eval_bsld >= 1.0)) {
    error = "greedy evaluation bsld below 1 or missing";
  } else {
    for (double v : run.params) {
      if (!std::isfinite(v)) error = "non-finite trained parameter";
    }
  }
  if (error.empty() && reference != nullptr && !same_bits(run.params, *reference)) {
    error = "trained parameters differ from the reference run";
  }
  report.operation(error);
  std::filesystem::remove_all(dir);
  return run;
}

}  // namespace

void run_train_workload(const RunArgs& args, Report& report, LayerValues& layers,
                        SpanLog* spans) {
  const rlbf::model::TrainingSpec spec = train_spec_for(args.seed);
  const std::string dir = args.out_dir + "/train-store";
  const auto build_trace = [&] {
    return std::make_shared<const rlbf::swf::Trace>(
        rlbf::exp::build_trace(spec.workload, kTraceSeed));
  };

  if (!args.traced) {
    std::shared_ptr<const rlbf::swf::Trace> trace;
    const std::vector<double> setups = time_setups([&] { trace = build_trace(); });
    std::vector<double> cal_rates, rates, walls, step_rates;
    TrainRun first;
    repeat_passes(args.seconds, [&] {
      TrainRun run = untraced_train(*trace, spec, dir, report,
                                    first.params.empty() ? nullptr : &first.params);
      cal_rates.push_back(run.jobs_per_cal);
      rates.push_back(jobs_per_run(spec) / run.wall_s);
      walls.push_back(run.wall_s);
      step_rates.push_back(static_cast<double>(run.steps) / run.epoch_s);
      if (first.params.empty()) first = std::move(run);
    });
    report.timing("setup_s", setups, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.timing("jobs_per_cal", cal_rates, "jobs/cal");
    report.timing("train.jobs_per_s", rates, "jobs/s", false);
    report.timing("train.wall_s", walls, "s", false);
    report.timing("train.steps_per_s", step_rates, "steps/s", false);
    report.metric("train.eval_bsld", first.eval_bsld, "ratio", false);
    return;
  }

  std::shared_ptr<const rlbf::swf::Trace> trace;
  {
    auto span = SpanLog::scope(spans, "build_trace", "exp");
    const Clock::time_point t0 = Clock::now();
    trace = build_trace();
    layers["exp.build_trace_s"] = seconds_since(t0);
    layers["exp.trace_jobs"] = static_cast<double>(trace->size());
  }
  const TrainRun reference = untraced_train(*trace, spec, dir, report);
  layers["train.wall_s"] = reference.wall_s;
  layers["train.eval_bsld"] = reference.eval_bsld;
  layers["train.steps_per_s"] = static_cast<double>(reference.steps) / reference.epoch_s;

  // Trainer::train, step by step, over a timed collector.
  obs_collect(true);
  const rlbf::core::TrainerConfig& cfg = spec.trainer;
  rlbf::core::TrainerConfig config = cfg;
  config.threads = kThreads;
  const Clock::time_point t0 = Clock::now();
  std::optional<SpanLog::Scope> train_span(std::in_place, spans, "train", "model", 0, 0);
  rlbf::core::Trainer trainer(*trace, config);
  rlbf::util::ThreadPool pool(kThreads);
  rlbf::rl::ThreadCollector threads(pool);
  TimedCollector collector(threads, spans);
  trainer.set_collector(&collector);
  double best = std::numeric_limits<double>::infinity();
  std::unique_ptr<rlbf::rl::ActorCritic> best_model;
  double update_s = 0.0, epoch_s = 0.0, eval_s = 0.0, first_update_s = 0.0;
  std::size_t steps = 0, policy_iters = 0, value_iters = 0;
  for (std::size_t e = 0; e < cfg.epochs; ++e) {
    auto epoch_span = SpanLog::scope(spans, "epoch", "rl", train_span->id(), e + 1);
    collector.parent = epoch_span.id();
    rlbf::core::EpochStats s = trainer.run_epoch();
    const double update = s.wall_seconds - collector.collect_seconds.back();
    if (e == 0) first_update_s = update;
    update_s += update;
    epoch_s += s.wall_seconds;
    steps += s.steps;
    policy_iters += s.ppo.policy_iters;
    value_iters += s.ppo.value_iters;
    if (cfg.eval_every > 0 && (s.epoch % cfg.eval_every == 0 || e + 1 == cfg.epochs)) {
      auto eval_span = SpanLog::scope(spans, "eval_greedy", "core", epoch_span.id(), e + 1);
      const Clock::time_point te = Clock::now();
      s.eval_bsld = trainer.evaluate_greedy();
      eval_s += seconds_since(te);
      if (cfg.keep_best && s.eval_bsld < best) {
        best = s.eval_bsld;
        best_model = trainer.agent().model().clone();
      }
    }
  }
  if (cfg.keep_best && best_model != nullptr) {
    trainer.agent().model().sync_from(*best_model);
  }
  double put_s = 0.0;
  {
    std::filesystem::remove_all(dir);
    rlbf::model::Store store(dir);
    auto span = SpanLog::scope(spans, "store_put", "model", train_span->id());
    const Clock::time_point tp = Clock::now();
    store.put(reference.key, trainer.agent(), spec.name, {});
    put_s = seconds_since(tp);
  }
  train_span.reset();
  const double traced_s = seconds_since(t0);
  obs_collect(false);
  std::filesystem::remove_all(dir);

  std::string verdict;
  if (!same_bits(parameters(trainer.agent()), reference.params)) {
    verdict = "traced run: trained parameters differ from the untraced run";
  } else if (std::memcmp(&best, &reference.eval_bsld, sizeof best) != 0) {
    verdict = "traced run: greedy evaluation bsld differs from the untraced run";
  }
  for (double b : collector.sequence_bsld) {
    if (!(b >= 1.0)) verdict = "traced run: a collected sequence has bsld below 1";
  }
  report.operation(verdict);
  const TrainRun again = untraced_train(*trace, spec, dir, report, &reference.params);

  // One more epoch at one thread: the single-threaded update baseline.
  {
    rlbf::core::TrainerConfig single = config;
    single.threads = 1;
    rlbf::core::Trainer one(*trace, single);
    rlbf::util::ThreadPool one_pool(1);
    rlbf::rl::ThreadCollector one_threads(one_pool);
    TimedCollector one_collector(one_threads, nullptr);
    one.set_collector(&one_collector);
    const rlbf::core::EpochStats s = one.run_epoch();
    const double one_update = s.wall_seconds - one_collector.collect_seconds.back();
    layers["rl.update_parallel_eff"] =
        one_update / (static_cast<double>(kThreads) * first_update_s);
  }

  read_registry_counters(layers);
  double collect_s = 0.0;
  for (double c : collector.collect_seconds) collect_s += c;
  layers["model.store_put_s"] = put_s;
  layers["core.collect_s"] = collect_s;
  layers["core.sequence_s_p50"] = quantile(collector.sequence_seconds, 0.5);
  layers["core.sequence_s_max"] = quantile(collector.sequence_seconds, 1.0);
  layers["core.collect_parallel_eff"] = median(collector.parallel_efficiency);
  layers["core.eval_greedy_s"] = eval_s;
  layers["rl.update_s"] = update_s;
  layers["rl.update_share"] = update_s / epoch_s;
  layers["rl.steps"] = static_cast<double>(steps);
  layers["rl.policy_iters"] = static_cast<double>(policy_iters);
  layers["rl.value_iters"] = static_cast<double>(value_iters);
  layers["obs.trace_overhead_frac"] =
      traced_s / std::min(reference.wall_s, again.wall_s) - 1.0;
}

}  // namespace perfbench
