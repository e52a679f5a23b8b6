// The benchmark's own instrumentation. Nothing here changes what the
// program computes: every decorator forwards each virtual of the seam it
// wraps (BackfillChooser: choose, name, episode_begin, episode_end;
// Collector: slots, collect, and the SequenceFn it hands on), so a
// traced run schedules and trains exactly like an untraced one — which
// the workloads assert.
//
// Spans are kept in memory (name, category, start, end, parent span,
// operation id) and written once at exit in the Chrome trace_event
// format `rlbf_run profile` reads, so self time per span falls out of
// the existing tool.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/agent.h"
#include "rl/collect.h"
#include "sim/event_sim.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span store. Thread-safe; ids start at 1 (0 = no parent).
class SpanLog {
 public:
  SpanLog() : anchor_(Clock::now()) {}

  /// RAII span: open at construction, recorded at destruction.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, const char* category, std::uint64_t parent,
          std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    SpanLog* log_;
    const char* name_;
    const char* category_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_;
    std::uint64_t op_;
    Clock::time_point start_;
  };

  /// A null log records nothing.
  static Scope scope(SpanLog* log, const char* name, const char* category,
                     std::uint64_t parent = 0, std::uint64_t op = 0) {
    return Scope(log, name, category, parent, op);
  }

  /// Writes {"traceEvents": [...]}; false on I/O error.
  bool save(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Record {
    const char* name;
    const char* category;
    std::int64_t start_us;
    std::int64_t end_us;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t op;
    std::uint32_t tid;
  };
  std::uint64_t next_id();
  void add(const Record& r);
  std::uint32_t thread_index();

  Clock::time_point anchor_;
  mutable std::mutex mutex_;  // guards everything below
  std::vector<Record> records_;
  std::uint64_t ids_ = 0;
  std::vector<std::size_t> thread_hashes_;
};

/// Runs the oracle over every schedule handed to it and keeps one verdict
/// per schedule ("" = valid).
class ScheduleLog {
 public:
  void check(const rlbf::swf::Trace& trace,
             const std::vector<rlbf::sim::JobResult>& results);
  std::vector<std::string> verdicts;
  /// Jobs across every checked schedule.
  std::size_t jobs = 0;
};

/// Decorator over any chooser: forwards every virtual, hands each
/// finished schedule to a ScheduleLog, appends the latency of every
/// choose() call to `call_seconds`, and (with a span log) records a
/// "simulate" span per schedule.
class ProbeChooser final : public rlbf::sim::BackfillChooser {
 public:
  ProbeChooser(rlbf::sim::BackfillChooser& inner, ScheduleLog& schedules,
               std::vector<double>& call_seconds, SpanLog* spans = nullptr,
               std::uint64_t parent = 0, std::uint64_t op = 0);

  std::optional<std::size_t> choose(const rlbf::sim::BackfillContext& ctx) override;
  std::string name() const override { return inner_.name(); }
  void episode_begin(const rlbf::swf::Trace& trace) override;
  void episode_end(const std::vector<rlbf::sim::JobResult>& results) override;


 private:
  rlbf::sim::BackfillChooser& inner_;
  ScheduleLog& schedules_;
  std::vector<double>& call_seconds_;
  SpanLog* spans_;
  std::uint64_t parent_;
  std::uint64_t op_;
  const rlbf::swf::Trace* trace_ = nullptr;
  std::optional<SpanLog::Scope> simulate_;
};

/// The traced RL chooser: the two calls Agent::choose_greedy makes —
/// ObservationBuilder::build_policy, then ActorCritic::policy_logits_nograd
/// — timed separately, followed by the same masked argmax and row mapping,
/// so it picks exactly what RlBackfillChooser would.
class TracedAgentChooser final : public rlbf::sim::BackfillChooser {
 public:
  TracedAgentChooser(const rlbf::core::Agent& agent, ScheduleLog& schedules,
                     SpanLog* spans, std::uint64_t parent, std::uint64_t op);

  std::optional<std::size_t> choose(const rlbf::sim::BackfillContext& ctx) override;
  std::string name() const override { return "RLBF"; }
  void episode_begin(const rlbf::swf::Trace& trace) override;
  void episode_end(const std::vector<rlbf::sim::JobResult>& results) override;

  std::size_t decisions = 0;
  double obs_build_seconds = 0.0;
  std::size_t obs_rows = 0;
  std::size_t infer_calls = 0;
  std::size_t infer_rows = 0;
  std::vector<double> infer_seconds;

 private:
  const rlbf::core::Agent& agent_;
  ScheduleLog& schedules_;
  SpanLog* spans_;
  std::uint64_t parent_;
  std::uint64_t op_;
  const rlbf::swf::Trace* trace_ = nullptr;
  std::optional<SpanLog::Scope> simulate_;
};

/// Decorator over a rollout transport: times each collect() and each
/// sequence the SequenceFn produces, forwarding slots() and the results.
class TimedCollector final : public rlbf::rl::Collector {
 public:
  TimedCollector(rlbf::rl::Collector& inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  std::size_t slots(std::size_t n_sequences) const override {
    return inner_.slots(n_sequences);
  }
  std::vector<rlbf::rl::SequenceResult> collect(const rlbf::rl::CollectionPlan& plan,
                                                const rlbf::rl::SequenceFn& fn) override;

  /// Span the next collect() nests under (the epoch span).
  std::uint64_t parent = 0;
  std::vector<double> collect_seconds;   // one per collect()
  std::vector<double> sequence_seconds;  // one per sequence
  /// Σ sequence seconds ÷ (slots × collect seconds), one per collect().
  std::vector<double> parallel_efficiency;
  /// Mean bsld of every collected sequence (must be >= 1).
  std::vector<double> sequence_bsld;

 private:
  rlbf::rl::Collector& inner_;
  SpanLog* spans_;
  std::mutex mutex_;  // guards the per-sequence vectors during collect()
};

}  // namespace perfbench
