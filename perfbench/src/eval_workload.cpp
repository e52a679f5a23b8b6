// rlbf-eval: the paper's evaluation protocol with a trained agent choosing
// every backfill. Set-up trains the fixed-seed `sdsc-tiny` agent into a
// scratch store and loads it back. Untraced, each cell runs core::evaluate
// with exactly what core::evaluate_agent builds (FCFS base policy,
// request-time estimator, RlBackfillChooser), the chooser wrapped in a
// ProbeChooser that times every decision and hands every schedule to the
// oracle. Traced, a TracedAgentChooser splits each decision into
// observation build and policy inference; its per-sequence bsld must
// match the untraced run bit for bit.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "calibration.h"
#include "core/evaluation.h"
#include "core/networks.h"
#include "core/rl_backfill.h"
#include "exp/scenario.h"
#include "model/train.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct EvalCell {
  const char* name;
  rlbf::exp::ScenarioSpec workload;
  std::uint64_t trace_seed = 0;
  rlbf::core::EvalProtocol protocol;
};

// SDSC-SP2 at load 1.0 and 1.5, HPC2N (the Table-5 transfer) and
// Lublin-1: queue depth, and so the rows per inference, grows in that
// order. Each row evaluates on its preset's 10k-job trace at trace seed 1
// (what `rlbf_run run --seed=1` builds), and the benchmark seed drives
// the protocol's sampling of kSamples 1024-job sequences. Pinning the
// traces keeps bsld and decision cost comparable from seed to seed: both
// swing with a trace's bursts (see NOTES.md).
constexpr std::size_t kSamples = 64;
constexpr std::uint64_t kTraceSeed = 1;
// Room for one pass's decisions (about 270k), reserved once per run.
constexpr std::size_t kDecisionCapacity = 1 << 19;

std::vector<EvalCell> eval_cells(std::uint64_t seed) {
  const struct {
    const char* name;
    const char* workload;
    double load;
  } rows[] = {{"SDSC-SP2", "SDSC-SP2", 1.0},
              {"SDSC-SP2x1.5", "SDSC-SP2", 1.5},
              {"HPC2N", "HPC2N", 1.0},
              {"Lublin-1", "Lublin-1", 1.0}};
  std::vector<EvalCell> cells;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    EvalCell c;
    c.name = rows[i].name;
    c.workload.workload = rows[i].workload;
    c.workload.trace_jobs = 10000;
    c.workload.load_factor = rows[i].load;
    c.trace_seed = kTraceSeed;
    c.protocol.samples = kSamples;
    c.protocol.sample_jobs = 1024;
    c.protocol.seed = derive_seed(seed, 2000 + i);
    cells.push_back(c);
  }
  return cells;
}

struct Deployed {
  std::vector<std::shared_ptr<const rlbf::swf::Trace>> traces;
  std::unique_ptr<rlbf::core::Agent> agent;
};

/// Trace generation plus the one-off agent training and load.
Deployed set_up(const std::vector<EvalCell>& cells, const std::string& store_dir,
                SpanLog* spans, LayerValues* layers) {
  Deployed d;
  auto setup_span = SpanLog::scope(spans, "setup", "exp");
  Clock::time_point t0 = Clock::now();
  std::size_t jobs = 0;
  for (const EvalCell& c : cells) {
    auto span = SpanLog::scope(spans, "build_trace", "exp", setup_span.id());
    d.traces.push_back(std::make_shared<const rlbf::swf::Trace>(
        rlbf::exp::build_trace(c.workload, c.trace_seed)));
    jobs += d.traces.back()->size();
  }
  const double build_s = seconds_since(t0);

  std::filesystem::remove_all(store_dir);
  rlbf::model::Store store(store_dir);
  rlbf::model::TrainOptions options;
  options.threads = 1;
  t0 = Clock::now();
  rlbf::model::TrainOutcome outcome;
  {
    auto span = SpanLog::scope(spans, "agent_train", "model", setup_span.id());
    outcome = rlbf::model::train_spec(rlbf::model::find_training_spec("sdsc-tiny"), store,
                                      options);
  }
  const double train_s = seconds_since(t0);
  t0 = Clock::now();
  {
    auto span = SpanLog::scope(spans, "agent_load", "model", setup_span.id());
    d.agent = std::make_unique<rlbf::core::Agent>(store.load(outcome.entry.key));
  }
  if (layers != nullptr) {
    (*layers)["exp.build_trace_s"] = build_s;
    (*layers)["exp.trace_jobs"] = static_cast<double>(jobs);
    (*layers)["model.agent_train_s"] = train_s;
    (*layers)["model.agent_load_s"] = seconds_since(t0);
  }
  return d;
}

struct PassResult {
  double seconds = 0.0;  // work wall, calibration kernel runs excluded
  double jobs_per_cal = 0.0;
  std::size_t jobs = 0;
  std::vector<rlbf::core::EvalResult> cells;
  std::vector<double> bsld;           // per schedule, in simulation order
  std::vector<std::string> verdicts;  // the oracle's, per schedule
};

/// Per-sequence bsld of every cell, in the order the schedules ran.
std::vector<double> schedule_bsld(const std::vector<rlbf::core::EvalResult>& cells) {
  std::vector<double> bsld;
  for (const auto& c : cells) bsld.insert(bsld.end(), c.samples.begin(), c.samples.end());
  return bsld;
}

/// One untraced pass. `decision_seconds` is cleared and refilled with the
/// latency of every decision; the caller keeps it across passes so a pass
/// allocates nothing that grows with the decision count.
PassResult untraced_pass(const std::vector<EvalCell>& cells, const Deployed& d,
                         std::vector<double>& decision_seconds) {
  PassResult pass;
  decision_seconds.clear();
  ScheduleLog schedules;
  const auto policy = rlbf::sched::make_policy("FCFS");
  const rlbf::sched::RequestTimeEstimator estimator;
  CalibratedTimer timer;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    rlbf::core::RlBackfillChooser chooser(*d.agent);
    ProbeChooser probe(chooser, schedules, decision_seconds);
    timer.time([&] {
      pass.cells.push_back(rlbf::core::evaluate(*d.traces[i], *policy, estimator, &probe,
                                                cells[i].protocol));
    });
  }
  timer.finish();
  pass.seconds = timer.work_seconds();
  pass.jobs = schedules.jobs;
  pass.jobs_per_cal = timer.jobs_per_cal(static_cast<double>(pass.jobs));
  pass.bsld = schedule_bsld(pass.cells);
  pass.verdicts = std::move(schedules.verdicts);
  return pass;
}

double mean_bsld(const PassResult& pass) {
  double s = 0.0;
  for (const auto& c : pass.cells) s += c.mean;
  return s / static_cast<double>(pass.cells.size());
}

/// 2 x Σ(in x out) over the policy MLP's layers: FLOPs per observation row.
double policy_flops_per_row(const rlbf::core::Agent& agent) {
  const auto* kernel = dynamic_cast<const rlbf::core::KernelActorCritic*>(&agent.model());
  if (kernel == nullptr) return 0.0;
  const auto& dims = kernel->policy_net().dims();
  double macs = 0.0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    macs += static_cast<double>(dims[i]) * static_cast<double>(dims[i + 1]);
  }
  return 2.0 * macs;
}

}  // namespace

void run_eval_workload(const RunArgs& args, Report& report, LayerValues& layers,
                       SpanLog* spans) {
  const std::vector<EvalCell> cells = eval_cells(args.seed);
  const std::string store_dir = args.out_dir + "/eval-agent-store";
  if (!args.traced) {
    Deployed d;
    const std::vector<double> setups =
        time_setups([&] { d = set_up(cells, store_dir, nullptr, nullptr); });
    std::vector<double> cal_rates, rates;
    std::vector<double> decisions;
    decisions.reserve(kDecisionCapacity);
    PassResult first;
    repeat_passes(args.seconds, [&] {
      PassResult pass = untraced_pass(cells, d, decisions);
      cal_rates.push_back(pass.jobs_per_cal);
      rates.push_back(static_cast<double>(pass.jobs) / pass.seconds);
      count_schedules(report, pass.verdicts, pass.bsld,
                      first.cells.empty() ? nullptr : &first.bsld, "untraced pass");
      if (first.cells.empty()) first = std::move(pass);
    });
    std::filesystem::remove_all(store_dir);
    report.timing("setup_s", setups, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.timing("jobs_per_cal", cal_rates, "jobs/cal");
    report.timing("eval.jobs_per_s", rates, "jobs/s", false);
    // Decision latencies of the last pass.
    report.timing("eval.decision_us_p50", decisions, "us", false, 1e6);
    report.metric("eval.decision_us_p99", quantile(decisions, 0.99) * 1e6, "us", false);
    report.metric("eval.bsld", mean_bsld(first), "ratio", false);
    return;
  }

  const Deployed d = set_up(cells, store_dir, spans, &layers);
  std::filesystem::remove_all(store_dir);
  std::vector<double> decisions;
  decisions.reserve(kDecisionCapacity);
  const PassResult reference = untraced_pass(cells, d, decisions);
  count_schedules(report, reference.verdicts, reference.bsld, nullptr, "reference pass");
  layers["eval.bsld"] = mean_bsld(reference);
  layers["eval.decision_us_p50"] = quantile(decisions, 0.50) * 1e6;
  layers["eval.decision_us_p99"] = quantile(decisions, 0.99) * 1e6;
  layers["eval.decision_samples"] = static_cast<double>(decisions.size());

  obs_collect(true);
  const auto policy = rlbf::sched::make_policy("FCFS");
  const rlbf::sched::RequestTimeEstimator estimator;
  ScheduleLog schedules;
  std::size_t n_decisions = 0, obs_rows = 0, infer_rows = 0;
  double obs_build_s = 0.0;
  std::vector<double> infer_seconds;
  std::vector<rlbf::core::EvalResult> results;
  const Clock::time_point t0 = Clock::now();
  std::optional<SpanLog::Scope> pass_span(std::in_place, spans, "traced_pass", "core", 0,
                                          0);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    auto cell_span = SpanLog::scope(spans, "cell", "core", pass_span->id(), i + 1);
    TracedAgentChooser chooser(*d.agent, schedules, spans, cell_span.id(), i + 1);
    results.push_back(rlbf::core::evaluate(*d.traces[i], *policy, estimator, &chooser,
                                           cells[i].protocol));
    n_decisions += chooser.decisions;
    obs_rows += chooser.obs_rows;
    obs_build_s += chooser.obs_build_seconds;
    infer_rows += chooser.infer_rows;
    infer_seconds.insert(infer_seconds.end(), chooser.infer_seconds.begin(),
                         chooser.infer_seconds.end());
  }
  pass_span.reset();
  const double traced_s = seconds_since(t0);
  obs_collect(false);
  count_schedules(report, schedules.verdicts, schedule_bsld(results), &reference.bsld,
                  "traced pass");
  const PassResult again = untraced_pass(cells, d, decisions);
  count_schedules(report, again.verdicts, again.bsld, &reference.bsld,
                  "second reference pass");

  read_registry_counters(layers);
  double infer_s = 0.0;
  for (double s : infer_seconds) infer_s += s;
  layers["core.decisions"] = static_cast<double>(n_decisions);
  layers["core.obs_build_s"] = obs_build_s;
  layers["core.obs_rows_mean"] =
      n_decisions > 0
          ? static_cast<double>(obs_rows) / static_cast<double>(n_decisions)
          : 0.0;
  layers["nn.infer_calls"] = static_cast<double>(infer_seconds.size());
  layers["nn.infer_s"] = infer_s;
  layers["nn.infer_us_p50"] = quantile(infer_seconds, 0.5) * 1e6;
  layers["nn.infer_gflops_computed"] =
      infer_s > 0.0 ? policy_flops_per_row(*d.agent) * static_cast<double>(infer_rows) /
                          infer_s / 1e9
                    : 0.0;
  layers["obs.trace_overhead_frac"] =
      traced_s / std::min(reference.seconds, again.seconds) - 1.0;
}

}  // namespace perfbench
