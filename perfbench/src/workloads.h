// The four benchmark workloads. Each one runs its fixed set of inputs
// (made from the benchmark seed) either untraced — the end-to-end
// metrics — or traced, where the benchmark's decorators time the layer
// seams, the program's obs registry is switched on, and every schedule
// or trained agent must match an untraced reference run bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string out_dir;  // scratch space inside the checkout
};

/// splitmix64 over (seed, stream): independent input seeds from the
/// benchmark seed, one stream per input.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; a layer the workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Per-layer values of one traced run, keyed by layer_metric_units() names.
using LayerValues = std::map<std::string, double>;

/// Counts one operation per schedule. An operation fails on its oracle
/// verdict, or — when it passed the oracle and `reference` is given — on
/// a bsld that differs in any bit from the reference run's.
void count_schedules(Report& report, const std::vector<std::string>& verdicts,
                     const std::vector<double>& bsld, const std::vector<double>* reference,
                     const std::string& what);

/// Runs `setup` at least five times and until two seconds have passed
/// (so a cheap set-up still gets a steady median), returning each wall
/// time in seconds. The last set-up's state is what the run goes on with.
std::vector<double> time_setups(const std::function<void()>& setup);

/// Runs `pass` once, then again while one more pass of the last pass's
/// length still fits in `seconds` from the start.
void repeat_passes(double seconds, const std::function<void()>& pass);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Zero the obs registry and turn metrics collection on or off.
void obs_collect(bool on);
/// Copy the registry's sim.* and nn.* counters into `layers`.
void read_registry_counters(LayerValues& layers);

void run_sim_workload(const RunArgs& args, Report& report, LayerValues& layers,
                      SpanLog* spans);
void run_eval_workload(const RunArgs& args, Report& report, LayerValues& layers,
                       SpanLog* spans);
void run_train_workload(const RunArgs& args, Report& report, LayerValues& layers,
                        SpanLog* spans);

}  // namespace perfbench
