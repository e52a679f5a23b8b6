#include "sched/easy_backfill.h"

#include <algorithm>

namespace rlbf::sched {

EasyBackfillChooser::EasyBackfillChooser(BackfillOrder order) : order_(order) {}

bool EasyBackfillChooser::admissible(const swf::Job& candidate,
                                     const sim::Reservation& res, std::int64_t estimate,
                                     std::int64_t now) {
  const std::int64_t est_end = now + estimate;
  if (est_end <= res.shadow_time) return true;      // done before the reservation
  return candidate.procs() <= res.extra_procs;      // fits the spare processors
}

std::optional<std::size_t> EasyBackfillChooser::choose(const sim::BackfillContext& ctx) {
  // Candidates arrive in priority order; optionally re-rank.
  std::vector<std::size_t> order(ctx.candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  switch (order_) {
    case BackfillOrder::QueueOrder:
      break;
    case BackfillOrder::ShortestFirst:
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ctx.cache.estimate(ctx.candidates[a]) <
               ctx.cache.estimate(ctx.candidates[b]);
      });
      break;
    case BackfillOrder::WidestFirst:
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ctx.trace[ctx.candidates[a]].procs() >
               ctx.trace[ctx.candidates[b]].procs();
      });
      break;
    case BackfillOrder::NarrowestFirst:
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ctx.trace[ctx.candidates[a]].procs() <
               ctx.trace[ctx.candidates[b]].procs();
      });
      break;
  }
  for (const std::size_t i : order) {
    if (admissible(ctx.trace[ctx.candidates[i]], ctx.reservation,
                   ctx.cache.estimate(ctx.candidates[i]), ctx.now)) {
      return i;
    }
  }
  return std::nullopt;
}

std::string EasyBackfillChooser::name() const {
  switch (order_) {
    case BackfillOrder::QueueOrder: return "EASY";
    case BackfillOrder::ShortestFirst: return "EASY-SJF";
    case BackfillOrder::WidestFirst: return "EASY-BestFit";
    case BackfillOrder::NarrowestFirst: return "EASY-WorstFit";
  }
  return "EASY";
}

}  // namespace rlbf::sched
