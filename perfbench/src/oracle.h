// Independent schedule oracle: judges one schedule from the trace and the
// simulator's JobResults alone, sharing no code with the scheduler that
// produced it.
#pragma once

#include <string>
#include <vector>

#include "sim/metrics.h"
#include "swf/trace.h"

namespace perfbench {

/// Empty when `results` is a valid schedule of `trace`, otherwise a
/// description of the first violation found:
///   * one result per job, in trace order, with the job's submit time
///     and processor count;
///   * start >= submit;
///   * run time equals the job's actual runtime, or its request time when
///     the job was killed (and only a job whose runtime exceeds its
///     request may be killed);
///   * a sweep over start/end events (ends first at equal times) never
///     holds more than machine_procs processors;
///   * every bounded slowdown is >= 1.
std::string check_schedule(const rlbf::swf::Trace& trace,
                           const std::vector<rlbf::sim::JobResult>& results);

/// Feeds the oracle a valid schedule, an over-allocated one and a
/// start-before-submit one. Empty when it accepts the first and rejects
/// the other two, otherwise what went wrong.
std::string oracle_self_test();

}  // namespace perfbench
