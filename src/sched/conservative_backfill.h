// Conservative backfilling (Mu'alem & Feitelson, TPDS'01): a candidate
// may run early only if it delays *no* queued job's planned start, not
// just the head job's. Planned starts are computed by greedily packing
// the whole queue (priority order) into the estimated future availability
// profile. Included as the classic strict baseline the related-work
// section contrasts EASY against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_sim.h"

namespace rlbf::sched {

/// Step-function of free processors over future time. Built from the
/// running set's *estimated* completion times; reservations carve
/// capacity out of it. B below is the number of breakpoints, at most
/// 1 + 2 x (reservations made).
class AvailabilityProfile {
 public:
  /// Profile with `total` processors free from `now` onward.
  AvailabilityProfile(std::int64_t now, std::int64_t total);

  /// Build from the cluster's running set, using estimated end times
  /// read through `cache` (elapsed estimates clamp to now + 1, as in
  /// compute_reservation — both sites share sim::estimated_release,
  /// applied to a snapshot only; the cluster's actual end times must
  /// never be patched).
  static AvailabilityProfile from_cluster(const sim::ClusterState& cluster,
                                          sim::FeatureCache& cache, std::int64_t now);

  /// Earliest time >= now at which `procs` processors stay free for
  /// `duration` seconds (a `duration` <= 0 counts as 1). O(B): one
  /// forward scan that skips past every segment too narrow for `procs`.
  /// Throws std::runtime_error when no start is feasible (`procs` wider
  /// than the machine).
  std::int64_t earliest_start(std::int64_t procs, std::int64_t duration) const;

  /// Subtract `procs` over [start, start + duration) (a `duration` <= 0
  /// counts as 1). Requires start >= now: throws std::invalid_argument
  /// otherwise. Throws std::runtime_error if the reservation would drive
  /// any segment negative. O(log B) to locate the window, plus the
  /// vector inserts of its two boundaries and one pass over the
  /// segments inside it.
  void reserve(std::int64_t start, std::int64_t procs, std::int64_t duration);

  /// Free processors at an instant (for tests/debugging); times before
  /// now read as now. O(log B).
  std::int64_t free_at(std::int64_t t) const;

 private:
  // breakpoints_[i] = {t_i, free from t_i until t_{i+1}} ; last segment
  // extends to infinity. Invariant: t strictly increasing, t_0 = now.
  struct Segment {
    std::int64_t time;
    std::int64_t free;
  };
  std::vector<Segment> breakpoints_;
  std::int64_t now_;

  /// Index of the segment containing t >= now (binary search).
  std::size_t segment_index(std::int64_t t) const;
  /// Split the segment containing t >= now at t; returns the index of
  /// the segment that starts at t.
  std::size_t insert_breakpoint(std::int64_t t);
};

/// Planned start for each job of `order` when greedily packed into the
/// profile in sequence (profile is consumed). One earliest_start and
/// one reserve per job. The conservative and slack-based choosers plan
/// their baseline with it.
std::vector<std::int64_t> plan_starts(AvailabilityProfile profile,
                                      const std::vector<std::size_t>& order,
                                      const sim::BackfillContext& ctx);

/// Shared core of the conservative and slack-based choosers: admit the
/// first candidate that delays no queued job's planned start by more
/// than that job's allowance.
///
/// Per decision with Q queued jobs: one baseline plan (Q queries), then
/// per candidate a re-plan with the candidate running now that stops at
/// the first job pushed beyond its allowance. The head job is planned
/// first, so a candidate that delays it costs a single query.
///
/// Work counters live in plain members and are flushed to the obs
/// registry once per simulation, in episode_end, as `sched.plan_queries`
/// (earliest_start calls) and `sched.candidates_tested`.
class PlanningBackfillChooser : public sim::BackfillChooser {
 public:
  void episode_end(const std::vector<sim::JobResult>& results) override;

 protected:
  /// `allowance(trace_index)` is the delay a queued job may absorb.
  template <class Allowance>
  std::optional<std::size_t> choose_with_allowance(const sim::BackfillContext& ctx,
                                                   Allowance allowance);

 private:
  std::uint64_t plan_queries_ = 0;
  std::uint64_t candidates_tested_ = 0;
};

class ConservativeBackfillChooser final : public PlanningBackfillChooser {
 public:
  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  std::string name() const override { return "CONS"; }
};

/// Slack-based backfilling (Talby & Feitelson, IPPS/SPDP'99, simplified):
/// a candidate may run early as long as it pushes no queued job's planned
/// start beyond that job's *slack allowance*. Conservative backfilling is
/// the zero-slack special case; EASY is the everyone-but-the-head-job-has
/// -infinite-slack extreme. The allowance here is
///     slack(j) = slack_factor * estimated_runtime(j) + fixed_slack
/// — longer jobs tolerate proportionally more queueing delay, which is
/// the scheme's guiding heuristic.
class SlackBackfillChooser final : public PlanningBackfillChooser {
 public:
  explicit SlackBackfillChooser(double slack_factor = 0.5,
                                std::int64_t fixed_slack = 600);

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override;
  std::string name() const override { return "SLACK"; }

  /// The delay allowance for a job with runtime estimate `estimate`.
  std::int64_t allowance(std::int64_t estimate) const;

 private:
  double slack_factor_;
  std::int64_t fixed_slack_;
};

}  // namespace rlbf::sched
