#include "probes.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

#include "oracle.h"
#include "rl/ppo.h"

namespace perfbench {

namespace {

std::int64_t micros(Clock::time_point t, Clock::time_point anchor) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - anchor).count();
}

}  // namespace

SpanLog::Scope::Scope(SpanLog* log, const char* name, const char* category,
                      std::uint64_t parent, std::uint64_t op)
    : log_(log), name_(name), category_(category), parent_(parent), op_(op) {
  if (log_ == nullptr) return;
  id_ = log_->next_id();
  start_ = Clock::now();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  log_->add({name_, category_, micros(start_, log_->anchor_), micros(end, log_->anchor_),
             id_, parent_, op_, 0});
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++ids_;
}

std::uint32_t SpanLog::thread_index() {
  // Caller holds mutex_. Small integers in first-span order.
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto it = std::find(thread_hashes_.begin(), thread_hashes_.end(), h);
  if (it != thread_hashes_.end()) {
    return static_cast<std::uint32_t>(it - thread_hashes_.begin());
  }
  thread_hashes_.push_back(h);
  return static_cast<std::uint32_t>(thread_hashes_.size() - 1);
}

void SpanLog::add(const Record& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record copy = r;
  copy.tid = thread_index();
  records_.push_back(copy);
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool SpanLog::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name << "\",\"cat\":\"" << r.category
        << "\",\"ph\":\"X\",\"ts\":" << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
        << ",\"pid\":1,\"tid\":" << r.tid << ",\"args\":{\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"op\":" << r.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void ScheduleLog::check(const rlbf::swf::Trace& trace,
                        const std::vector<rlbf::sim::JobResult>& results) {
  verdicts.push_back(check_schedule(trace, results));
  jobs += results.size();
}

ProbeChooser::ProbeChooser(rlbf::sim::BackfillChooser& inner, ScheduleLog& schedules,
                           std::vector<double>& call_seconds, SpanLog* spans,
                           std::uint64_t parent, std::uint64_t op)
    : inner_(inner),
      schedules_(schedules),
      call_seconds_(call_seconds),
      spans_(spans),
      parent_(parent),
      op_(op) {}

std::optional<std::size_t> ProbeChooser::choose(const rlbf::sim::BackfillContext& ctx) {
  const Clock::time_point t0 = Clock::now();
  const std::optional<std::size_t> pick = inner_.choose(ctx);
  call_seconds_.push_back(seconds_since(t0));
  return pick;
}

void ProbeChooser::episode_begin(const rlbf::swf::Trace& trace) {
  trace_ = &trace;
  if (spans_ != nullptr) simulate_.emplace(spans_, "simulate", "sim", parent_, op_);
  inner_.episode_begin(trace);
}

void ProbeChooser::episode_end(const std::vector<rlbf::sim::JobResult>& results) {
  inner_.episode_end(results);
  simulate_.reset();
  schedules_.check(*trace_, results);
}

TracedAgentChooser::TracedAgentChooser(const rlbf::core::Agent& agent,
                                       ScheduleLog& schedules, SpanLog* spans,
                                       std::uint64_t parent, std::uint64_t op)
    : agent_(agent), schedules_(schedules), spans_(spans), parent_(parent), op_(op) {}

std::optional<std::size_t> TracedAgentChooser::choose(
    const rlbf::sim::BackfillContext& ctx) {
  ++decisions;
  const Clock::time_point t0 = Clock::now();
  const rlbf::core::PolicyObservation po = agent_.observer().build_policy(ctx);
  const Clock::time_point t1 = Clock::now();
  obs_build_seconds += std::chrono::duration<double>(t1 - t0).count();
  obs_rows += po.obs.rows();
  if (!po.any_selectable()) return std::nullopt;
  const rlbf::nn::Tensor logits = agent_.model().policy_logits_nograd(po.obs);
  infer_seconds.push_back(seconds_since(t1));
  ++infer_calls;
  infer_rows += po.obs.rows();
  const std::size_t row = rlbf::rl::argmax_masked(logits, po.mask);
  const std::size_t candidate = po.row_to_candidate[row];
  if (candidate == rlbf::core::kStopAction) return std::nullopt;
  return candidate;
}

void TracedAgentChooser::episode_begin(const rlbf::swf::Trace& trace) {
  trace_ = &trace;
  if (spans_ != nullptr) simulate_.emplace(spans_, "simulate", "sim", parent_, op_);
}

void TracedAgentChooser::episode_end(const std::vector<rlbf::sim::JobResult>& results) {
  simulate_.reset();
  schedules_.check(*trace_, results);
}

std::vector<rlbf::rl::SequenceResult> TimedCollector::collect(
    const rlbf::rl::CollectionPlan& plan, const rlbf::rl::SequenceFn& fn) {
  auto collect_span = SpanLog::scope(spans_, "collect", "core", parent, plan.epoch);
  const std::uint64_t collect_id = collect_span.id();
  double busy = 0.0;
  const rlbf::rl::SequenceFn timed = [&](std::size_t index, std::uint64_t seed,
                                         std::size_t slot) {
    auto span = SpanLog::scope(spans_, "sequence", "core", collect_id, plan.epoch);
    const Clock::time_point t0 = Clock::now();
    rlbf::rl::SequenceResult result = fn(index, seed, slot);
    const double s = seconds_since(t0);
    std::lock_guard<std::mutex> lock(mutex_);
    sequence_seconds.push_back(s);
    sequence_bsld.push_back(result.bsld);
    busy += s;
    return result;
  };
  const Clock::time_point t0 = Clock::now();
  std::vector<rlbf::rl::SequenceResult> results = inner_.collect(plan, timed);
  const double wall = seconds_since(t0);
  collect_seconds.push_back(wall);
  const std::size_t n_slots = std::max<std::size_t>(inner_.slots(plan.seeds.size()), 1);
  parallel_efficiency.push_back(busy / (static_cast<double>(n_slots) * wall));
  return results;
}

}  // namespace perfbench
