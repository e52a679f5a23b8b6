// The process transport of the actor/learner split: a rl::Collector
// that fans an epoch's sequences out to `rlbf_run collect-rollouts`
// worker subprocesses and reassembles their wire-format responses in
// sequence order.
//
// Per epoch: the learner's current model is checkpointed once to the
// scratch dir (save_model hook, exact-text round-trip), sequence i goes
// to worker i % W with its pre-drawn seed, and every worker job runs
// through the same dist::Launcher / dist::run_jobs machinery as the
// sweep/train orchestrator — so retries, failure injection, host
// round-robin, and stderr-tail failure reports come for free. Each
// worker's response file embeds a request fingerprint (worker args +
// epoch + worker index + seed subset), so a stale file from a previous
// epoch on a reused scratch dir can never be consumed.
//
// Because seeds are pre-drawn by the learner and results are indexed by
// sequence, the reassembled epoch is byte-identical to the in-process
// ThreadCollector at any worker count — the determinism contract of
// rl/collect.h.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/job.h"
#include "dist/launcher.h"
#include "rl/collect.h"

namespace rlbf::dist {

/// How the process transport runs its workers. `worker` + `worker_args`
/// must reconstruct the learner's training setup in another process
/// (`rlbf_run collect-rollouts --spec=... --seed=...`); the transport
/// appends the per-epoch flags (--seeds/--model/--out/--fingerprint/
/// --epoch/--epsilon) itself.
struct RolloutTransportOptions {
  /// Worker binary (normally the running rlbf_run itself).
  std::string worker;
  /// Subcommand flags that reconstruct the training setup remotely.
  std::vector<std::string> worker_args;
  /// Scratch directory for model checkpoints, per-job output dirs, and
  /// observability sidecars.
  std::string work_dir;
  /// Worker process count (clamped to the sequence count per epoch).
  /// A ProcessCollector needs >= 1; the default 0 is how
  /// model::TrainOptions says "collect in-process".
  std::size_t workers = 0;
  /// Retries per failed worker job (total attempts = retries + 1).
  std::size_t retries = 1;
  /// Per-attempt wall-clock cap in seconds (0 = no limit).
  double timeout_seconds = 0.0;
  /// Test hook: job id -> leading attempts forced to fail
  /// (dist::OrchestratorOptions::inject_failures).
  std::map<std::size_t, std::size_t> inject_failures;
  /// Ask workers for per-process observability sidecars
  /// (<work_dir>/worker<id>.metrics.json / .trace.json /
  /// .series.jsonl), recorded in the job specs for a later
  /// save_fleet_obs merge.
  bool worker_metrics = false;
  bool worker_trace = false;
  bool worker_series = false;
  /// Heartbeat interval for each epoch's job supervisor
  /// (dist::OrchestratorOptions::heartbeat_seconds); 0 disables it.
  double heartbeat_seconds = 30.0;
  /// Fired on every supervisor heartbeat (registry sampling hook).
  std::function<void()> on_heartbeat;
  /// Remote transport: when command_template is nonempty, jobs run
  /// through a CommandLauncher over these hosts instead of local
  /// fork/exec (same placeholders as `rlbf_run orchestrate`).
  std::vector<std::string> hosts;
  std::string command_template;
  std::string fetch_template;
  /// Serialized progress lines from the orchestrator.
  std::function<void(const std::string&)> on_event;
};

/// The subprocess rollout transport. slots() is 0: workers load the
/// checkpointed model themselves, the in-process SequenceFn never runs.
class ProcessCollector : public rl::Collector {
 public:
  /// Validates options (worker/work_dir/workers, template pairing) and
  /// constructs the launcher up front, so malformed transports fail
  /// before any epoch runs. Throws std::invalid_argument.
  explicit ProcessCollector(RolloutTransportOptions options);

  /// The learner's model writer: called once per epoch with the
  /// checkpoint path workers will load. Must be installed (by the
  /// training executor, which owns the agent) before collect().
  void set_save_model(std::function<void(const std::string&)> save_model) {
    save_model_ = std::move(save_model);
  }

  std::size_t slots(std::size_t n_sequences) const override {
    (void)n_sequences;
    return 0;
  }

  /// Fan plan.seeds out to worker jobs, run them to success or retry
  /// exhaustion, decode and reassemble. Throws std::runtime_error with
  /// the orchestrator's failure summary when any job exhausts its
  /// retries, and rl::WireError on a corrupt or mismatched response.
  std::vector<rl::SequenceResult> collect(const rl::CollectionPlan& plan,
                                          const rl::SequenceFn& fn) override;

  /// Every worker job launched so far (all epochs, launch order) — the
  /// supervisor merges their observability sidecars after training.
  const std::vector<JobSpec>& jobs() const { return jobs_; }

  const RolloutTransportOptions& options() const { return options_; }

 private:
  RolloutTransportOptions options_;
  std::unique_ptr<Launcher> launcher_;
  std::function<void(const std::string&)> save_model_;
  std::vector<JobSpec> jobs_;
};

/// The request fingerprint a worker's response must carry: a hash of
/// the worker args, epoch, worker index, and seed subset. Computed by
/// the supervisor when planning the job AND passed to the worker via
/// --fingerprint, so the wire check binds a file to exactly one request.
std::string rollout_request_fingerprint(
    const std::vector<std::string>& worker_args, std::size_t epoch,
    std::size_t worker_index, const std::vector<std::uint64_t>& seeds);

/// Comma-joined seed list for --seeds (and its inverse; the parser
/// throws std::invalid_argument naming a malformed element).
std::string format_seed_list(const std::vector<std::uint64_t>& seeds);
std::vector<std::uint64_t> parse_seed_list(const std::string& text);

}  // namespace rlbf::dist
