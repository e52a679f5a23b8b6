// The distributed job model: what one worker invocation is.
//
// The primitives are safe to drive blindly — shard outputs are a
// deterministic partition that merges byte-identically, store bundles
// are fingerprint-verified on import, and both are idempotent — so a
// job here is nothing more than a worker command line plus the output
// directory it promises to fill. Every fan-out in the system plans its
// jobs here, through one job loop (one validation, one sidecar rule):
//
//   plan_sweep_jobs    — N jobs `rlbf_run sweep ... --shard=i/N
//                        --out_dir=<work>/shard<i>`; the collector
//                        merges the shard dirs (exp::merge_shard_dirs).
//   plan_train_jobs    — N jobs `rlbf_run train ... --shard=i/N
//                        --store=<work>/worker<i>/store
//                        --export_bundle=<work>/worker<i>/bundle`; the
//                        collector imports every bundle into one shared
//                        store (model::Store::import_bundle).
//   plan_rollout_jobs  — one training epoch's W jobs `rlbf_run
//                        collect-rollouts ... --seeds=<share w> ...`;
//                        dist::ProcessCollector reassembles their wire
//                        files in sequence order.
//
// Plans are pure functions of their options — no clocks, no host state —
// so the same invocation always produces the same jobs, and a retried
// job reruns exactly what failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rlbf::rl {
struct CollectionPlan;
}  // namespace rlbf::rl

namespace rlbf::dist {

struct JobSpec {
  /// Position in the plan; stable across retries (failure logs and the
  /// --inject_fail test hook address jobs by this id).
  std::size_t id = 0;
  /// 1-based attempt number, stamped by the orchestrator on each launch
  /// (planned jobs carry 1). Host-mapping launchers rotate on it, so a
  /// retry lands on a different host than the attempt that just failed.
  std::size_t attempt = 1;
  /// Human name for logs: "sweep-shard0/3", "train-shard1/3".
  std::string name;
  /// The worker command in local argv form; launchers for remote
  /// transports render it into their command template.
  std::vector<std::string> argv;
  /// The directory the job fills — a shard --out_dir or a bundle dir.
  /// Local path for LocalLauncher; for remote launchers also the remote
  /// path the fetch template copies back from.
  std::string output_dir;

  /// Observability sidecars the worker was told to write (empty when
  /// the plan didn't request them). They live at the work_dir root —
  /// NOT inside output_dir — so collectors that merge or import job
  /// outputs never see them; and being under work_dir, local/shared-fs
  /// launchers need no extra fetch step (remote transports that only
  /// copy output_dir back won't retrieve them).
  std::string metrics_path;
  std::string trace_path;
  std::string series_path;

  std::string command_line() const;  // shell-quoted rendering for logs
};

/// Common plan inputs: the worker binary (normally the running rlbf_run
/// itself), the pass-through flags of the underlying subcommand (without
/// the flags the planner owns: --shard/--out_dir/--store/--export_bundle,
/// or a rollout job's per-epoch flags), the partition width, and the
/// scratch directory per-job outputs live under.
struct PlanOptions {
  std::string worker;
  std::vector<std::string> args;
  /// Worker count; a plan needs >= 1. The default 0 is how
  /// model::TrainOptions::rollout says "collect in-process".
  std::size_t workers = 0;
  std::string work_dir;
  /// Ask each worker for per-process observability sidecars
  /// (<work_dir>/worker<id>.metrics.json / .trace.json /
  /// .series.jsonl): the planner appends the matching
  /// --metrics_out/--trace_out/--series_out flags and records the paths
  /// in JobSpec so the supervisor can merge them afterwards (obs::merge
  /// / obs::merge_series).
  bool worker_metrics = false;
  bool worker_trace = false;
  bool worker_series = false;

  /// Throws std::invalid_argument, prefixed with `who`, on an empty
  /// worker or work_dir, or workers == 0. Every planner runs it.
  void validate(const std::string& who) const;
};

/// N shard-sweep jobs over the `run`/`sweep` flags in `options.args`.
/// Shard i writes shard-tagged summaries + per-job CSVs into
/// <work_dir>/shard<i>.
std::vector<JobSpec> plan_sweep_jobs(const PlanOptions& options);

/// N training jobs over the `train` flags in `options.args`. Worker i
/// trains spec-grid shard i/N into its own store and exports the
/// results as <work_dir>/worker<i>/bundle.
std::vector<JobSpec> plan_train_jobs(const PlanOptions& options);

/// The file a rollout job writes inside its output_dir.
inline constexpr const char* kRolloutsFile = "rollouts.bin";

/// The round-robin split of an epoch's seeds over `workers` rollout
/// jobs: share w is {seeds[i] : i % workers == w}, in sequence order.
/// The assignment is part of the determinism contract (store keys
/// identical at any --rollout_workers), not a scheduling choice.
std::vector<std::vector<std::uint64_t>> rollout_seed_shares(
    const std::vector<std::uint64_t>& seeds, std::size_t workers);

/// One training epoch's `collect-rollouts` jobs: W = min(workers,
/// sequences) jobs over the spec-reconstruction flags in `options.args`.
/// Job w collects rollout_seed_shares(epoch.seeds, W)[w] with the model
/// checkpoint at `model_path` into <work_dir>/e<epoch>.w<w>/rollouts.bin,
/// under a request fingerprint (dist::rollout_request_fingerprint) the
/// response must carry; --epsilon rides along only when finite. Job ids
/// are (epoch - 1) * W + w, unique across a run's epochs, so fleet-obs
/// sidecars never collide and --inject_fail=0:1 hits epoch 1 worker 0.
std::vector<JobSpec> plan_rollout_jobs(const PlanOptions& options,
                                       const rl::CollectionPlan& epoch,
                                       const std::string& model_path);

}  // namespace rlbf::dist
