#include "sched/scheduler.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace rlbf::sched {

ScheduleOutcome run_schedule(const swf::Trace& trace, const sim::PriorityPolicy& policy,
                             const sim::RuntimeEstimator& estimator,
                             sim::BackfillChooser* chooser,
                             const sim::SimulationOptions& options) {
  ScheduleOutcome out;
  out.results = sim::simulate(trace, policy, estimator, chooser, options);
  out.metrics = sim::compute_metrics(out.results, trace.machine_procs());
  return out;
}

std::string SchedulerSpec::label() const {
  std::ostringstream os;
  os << policy;
  if (uses_agent()) {
    os << "+RLBF";
  } else {
    switch (backfill) {
      case BackfillKind::None: os << "+NOBF"; break;
      case BackfillKind::Easy: os << "+EASY"; break;
      case BackfillKind::EasySjf: os << "+EASY-SJF"; break;
      case BackfillKind::EasyBestFit: os << "+EASY-BF"; break;
      case BackfillKind::EasyWorstFit: os << "+EASY-WF"; break;
      case BackfillKind::Conservative: os << "+CONS"; break;
      case BackfillKind::Slack: os << "+SLACK"; break;
    }
  }
  switch (estimate) {
    case EstimateKind::RequestTime: break;  // the default EASY reading
    case EstimateKind::ActualRuntime: os << "-AR"; break;
    case EstimateKind::Noisy:
      os << "+" << static_cast<int>(std::lround(noise_fraction * 100.0)) << "%";
      break;
  }
  return os.str();
}

namespace {

std::unique_ptr<sim::RuntimeEstimator> make_estimator(const SchedulerSpec& spec) {
  switch (spec.estimate) {
    case EstimateKind::RequestTime:
      return std::make_unique<RequestTimeEstimator>();
    case EstimateKind::ActualRuntime:
      return std::make_unique<ActualRuntimeEstimator>();
    case EstimateKind::Noisy:
      return std::make_unique<NoisyEstimator>(spec.noise_fraction, spec.noise_seed);
  }
  return nullptr;
}

}  // namespace

ConfiguredScheduler::ConfiguredScheduler(const SchedulerSpec& spec,
                                         std::unique_ptr<sim::BackfillChooser> chooser)
    : spec_(spec),
      policy_(make_policy(spec.policy)),
      estimator_(make_estimator(spec)),
      chooser_(std::move(chooser)) {}

ConfiguredScheduler::ConfiguredScheduler(const SchedulerSpec& spec)
    : spec_(spec), policy_(make_policy(spec.policy)) {
  if (spec.uses_agent()) {
    throw std::invalid_argument(
        "ConfiguredScheduler: spec references agent '" + spec.agent +
        "'; trained-agent schedulers are resolved by the exp layer "
        "(exp::run_scenario / exp::evaluate_scenario)");
  }
  estimator_ = make_estimator(spec);
  switch (spec.backfill) {
    case BackfillKind::None:
      chooser_ = nullptr;
      break;
    case BackfillKind::Easy:
      chooser_ = std::make_unique<EasyBackfillChooser>(BackfillOrder::QueueOrder);
      break;
    case BackfillKind::EasySjf:
      chooser_ = std::make_unique<EasyBackfillChooser>(BackfillOrder::ShortestFirst);
      break;
    case BackfillKind::EasyBestFit:
      chooser_ = std::make_unique<EasyBackfillChooser>(BackfillOrder::WidestFirst);
      break;
    case BackfillKind::EasyWorstFit:
      chooser_ = std::make_unique<EasyBackfillChooser>(BackfillOrder::NarrowestFirst);
      break;
    case BackfillKind::Conservative:
      chooser_ = std::make_unique<ConservativeBackfillChooser>();
      break;
    case BackfillKind::Slack:
      chooser_ = std::make_unique<SlackBackfillChooser>();
      break;
  }
}

ScheduleOutcome ConfiguredScheduler::run(const swf::Trace& trace) const {
  return run_schedule(trace, *policy_, *estimator_, chooser_.get());
}

}  // namespace rlbf::sched
