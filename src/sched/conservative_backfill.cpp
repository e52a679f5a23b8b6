#include "sched/conservative_backfill.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace rlbf::sched {

AvailabilityProfile::AvailabilityProfile(std::int64_t now, std::int64_t total)
    : now_(now) {
  if (total <= 0) throw std::invalid_argument("profile: total <= 0");
  breakpoints_.push_back({now, total});
}

AvailabilityProfile AvailabilityProfile::from_cluster(const sim::ClusterState& cluster,
                                                      sim::FeatureCache& cache,
                                                      std::int64_t now) {
  AvailabilityProfile profile(now, cluster.total_procs());
  for (const auto& r : cluster.running_jobs()) {
    // Snapshot-only estimated view; see sim::estimated_release.
    const std::int64_t est_end =
        sim::estimated_release(r, cache.estimate(r.job_index), now);
    profile.reserve(now, r.procs, est_end - now);
  }
  return profile;
}

std::size_t AvailabilityProfile::segment_index(std::int64_t t) const {
  // Last breakpoint with time <= t; t >= now_ is a precondition.
  const auto after = std::upper_bound(
      breakpoints_.begin(), breakpoints_.end(), t,
      [](std::int64_t value, const Segment& seg) { return value < seg.time; });
  return static_cast<std::size_t>(after - breakpoints_.begin()) - 1;
}

std::size_t AvailabilityProfile::insert_breakpoint(std::int64_t t) {
  const std::size_t i = segment_index(t);
  if (breakpoints_[i].time == t) return i;
  breakpoints_.insert(breakpoints_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                      {t, breakpoints_[i].free});
  return i + 1;
}

std::int64_t AvailabilityProfile::earliest_start(std::int64_t procs,
                                                 std::int64_t duration) const {
  if (duration <= 0) duration = 1;
  // Only breakpoint times can be optimal starts: between breakpoints the
  // free level is constant, so feasibility cannot improve. Try them in
  // ascending order; a start at breakpoint i needs every segment j >= i
  // that begins before start + duration to have `procs` free. When
  // segment j falls short, every start in (i, j] overlaps it as well,
  // so the next candidate is j + 1 and each segment is scanned once.
  const std::size_t n = breakpoints_.size();
  std::size_t i = 0;
  while (i < n) {
    const std::int64_t end = breakpoints_[i].time + duration;
    std::size_t j = i;
    while (j < n && breakpoints_[j].time < end && breakpoints_[j].free >= procs) ++j;
    if (j == n || breakpoints_[j].time >= end) return breakpoints_[i].time;
    i = j + 1;
  }
  throw std::runtime_error("profile: no feasible start (job wider than machine?)");
}

void AvailabilityProfile::reserve(std::int64_t start, std::int64_t procs,
                                  std::int64_t duration) {
  if (start < now_) {
    throw std::invalid_argument("profile: reservation starts before now");
  }
  if (duration <= 0) duration = 1;
  const std::size_t first = insert_breakpoint(start);
  const std::size_t last = insert_breakpoint(start + duration);
  for (std::size_t k = first; k < last; ++k) {
    breakpoints_[k].free -= procs;
    if (breakpoints_[k].free < 0) {
      throw std::runtime_error("profile: negative capacity");
    }
  }
}

std::int64_t AvailabilityProfile::free_at(std::int64_t t) const {
  return breakpoints_[segment_index(std::max(t, now_))].free;
}

std::vector<std::int64_t> plan_starts(AvailabilityProfile profile,
                                      const std::vector<std::size_t>& order,
                                      const sim::BackfillContext& ctx) {
  std::vector<std::int64_t> starts;
  starts.reserve(order.size());
  for (const std::size_t idx : order) {
    const auto& job = ctx.trace[idx];
    const std::int64_t dur = ctx.cache.estimate(idx);
    const std::int64_t s = profile.earliest_start(job.procs(), dur);
    profile.reserve(s, job.procs(), dur);
    starts.push_back(s);
  }
  return starts;
}

void PlanningBackfillChooser::episode_end(const std::vector<sim::JobResult>&) {
  if (obs::enabled()) {
    obs::counter("sched.plan_queries").add(plan_queries_);
    obs::counter("sched.candidates_tested").add(candidates_tested_);
  }
  plan_queries_ = 0;
  candidates_tested_ = 0;
}

template <class Allowance>
std::optional<std::size_t> PlanningBackfillChooser::choose_with_allowance(
    const sim::BackfillContext& ctx, Allowance allowance) {
  const AvailabilityProfile base =
      AvailabilityProfile::from_cluster(ctx.cluster, ctx.cache, ctx.now);

  // Baseline plan: every queued job packed in priority order.
  const std::vector<std::int64_t> baseline = plan_starts(base, ctx.queue, ctx);
  plan_queries_ += ctx.queue.size();

  for (std::size_t c = 0; c < ctx.candidates.size(); ++c) {
    const std::size_t cand = ctx.candidates[c];
    ++candidates_tested_;
    // Plan again with the candidate running *now*. Each queued job's
    // start depends only on the jobs planned before it, so the first
    // one pushed beyond its delay allowance rejects the candidate
    // without planning the rest of the queue.
    AvailabilityProfile with_cand = base;
    const auto& cjob = ctx.trace[cand];
    with_cand.reserve(ctx.now, cjob.procs(), ctx.cache.estimate(cand));
    bool delays = false;
    for (std::size_t q = 0; q < ctx.queue.size(); ++q) {
      const std::size_t idx = ctx.queue[q];
      if (idx == cand) continue;
      const auto& job = ctx.trace[idx];
      const std::int64_t dur = ctx.cache.estimate(idx);
      const std::int64_t s = with_cand.earliest_start(job.procs(), dur);
      ++plan_queries_;
      if (s > baseline[q] + allowance(idx)) {
        delays = true;
        break;
      }
      with_cand.reserve(s, job.procs(), dur);
    }
    if (!delays) return c;
  }
  return std::nullopt;
}

std::optional<std::size_t> ConservativeBackfillChooser::choose(
    const sim::BackfillContext& ctx) {
  return choose_with_allowance(ctx, [](std::size_t) { return std::int64_t{0}; });
}

SlackBackfillChooser::SlackBackfillChooser(double slack_factor,
                                           std::int64_t fixed_slack)
    : slack_factor_(slack_factor), fixed_slack_(fixed_slack) {
  if (slack_factor < 0.0 || fixed_slack < 0) {
    throw std::invalid_argument("slack backfilling: negative slack");
  }
}

std::int64_t SlackBackfillChooser::allowance(std::int64_t estimate) const {
  const double proportional = slack_factor_ * static_cast<double>(estimate);
  return fixed_slack_ + static_cast<std::int64_t>(proportional);
}

std::optional<std::size_t> SlackBackfillChooser::choose(
    const sim::BackfillContext& ctx) {
  return choose_with_allowance(ctx, [&](std::size_t idx) {
    return allowance(ctx.cache.estimate(idx));
  });
}

}  // namespace rlbf::sched
