// perfbench: the repository benchmark program (see perfbench/NOTES.md).
//
//   perfbench --workload sim-easy|sim-conservative|rlbf-eval|ppo-train
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes DIR/<workload>.trace.json). The last stdout line is the
// JSON result; the exit code is 0 only when every output check passed.
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "oracle.h"
#include "util/log.h"
#include "workloads.h"

namespace {

perfbench::RunArgs parse_args(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.traced = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes one value");
  if (!have_workload || args.out_dir.empty()) {
    throw std::invalid_argument("--workload and --out-dir are required");
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const RunArgs args = parse_args(argc, argv);
    rlbf::util::set_log_level(rlbf::util::LogLevel::Warn);
    std::filesystem::create_directories(args.out_dir);

    Report report;
    if (const std::string e = oracle_self_test(); !e.empty()) report.fail(e);

    SpanLog span_log;
    SpanLog* spans = args.traced ? &span_log : nullptr;
    LayerValues layers;
    for (const auto& [name, unit] : layer_metric_units()) layers[name] = 0.0;

    if (args.workload == "sim-easy" || args.workload == "sim-conservative") {
      run_sim_workload(args, report, layers, spans);
    } else if (args.workload == "rlbf-eval") {
      run_eval_workload(args, report, layers, spans);
    } else if (args.workload == "ppo-train") {
      run_train_workload(args, report, layers, spans);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }

    report.metric("ops_failed_frac", report.failed_fraction(), "ratio", false);
    if (args.traced) {
      if (layers.size() != layer_metric_units().size()) {
        throw std::logic_error("a workload reported an unlisted layer metric");
      }
      for (const auto& [name, unit] : layer_metric_units()) {
        report.metric(name, layers[name], unit);
      }
      const std::string path = args.out_dir + "/" + args.workload + ".trace.json";
      if (!span_log.save(path)) report.fail("cannot write " + path);
      std::cout << "spans: " << span_log.size() << " written to " << path << "\n";
    }
    report.print(args.workload, args.traced);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
