// The supervisor/collector that closes the shard/train loop.
//
// run_jobs() drains a plan through a launcher with a per-job retry
// budget — safe because both distributable workloads are idempotent: a
// reran shard rewrites the same bytes, a reran training job re-exports
// the same content-addressed bundle. Failures are never silent: every
// exhausted job is reported with its name, exit status, and the tail of
// its captured stderr.
//
// The terminal collection step reuses the existing, tested primitives:
// collect_sweep() runs exp::merge_shard_dirs over the shard output
// directories (byte-identical to the unsharded run, validated shard
// set), collect_train_bundles() imports every worker bundle into one
// shared store (fingerprint-verified, idempotent re-imports skipped).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/launcher.h"
#include "exp/shard.h"
#include "model/store.h"
#include "obs/series.h"

namespace rlbf::dist {

struct OrchestratorOptions {
  /// Concurrent jobs in flight (0 = one worker per job).
  std::size_t max_parallel = 0;
  /// Total attempts per job (first run + retries). 0 is coerced to 1.
  std::size_t max_attempts = 2;
  /// Lines of captured stderr quoted in failure logs.
  std::size_t stderr_tail = 10;
  /// Test hook (--inject_fail): job id -> number of leading attempts
  /// forced to fail. An injected attempt launches the real worker with
  /// one extra unknown flag appended, so the failure is a genuine
  /// nonzero exit with a named error on stderr — the full retry path
  /// runs, not a simulation of it.
  std::map<std::size_t, std::size_t> inject_failures;
  /// Serialized progress lines ("[+0.012s] job sweep-shard0/3: attempt
  /// 1 ..."). Every line carries a monotonic timestamp relative to
  /// run_jobs entry, and attempt-completion lines carry the attempt's
  /// duration.
  std::function<void(const std::string&)> on_event;
  /// Interval for the periodic heartbeat summary ("k/N done, r running,
  /// f failed") emitted via util::log_info while jobs run, so long
  /// orchestrations are never silent. 0 disables it.
  double heartbeat_seconds = 30.0;
  /// Fired on every heartbeat tick, after the summary line — the hook
  /// the CLI uses to sample the metrics registry into a series file
  /// (obs::RegistrySampler::sample_once). Called from the heartbeat
  /// thread; must be thread-safe.
  std::function<void()> on_heartbeat;
  /// Time-series recorder for per-job duration analytics (borrowed;
  /// may be null). Each finished job records dist.job_seconds /
  /// dist.queue_wait_seconds keyed by job id, and every attempt records
  /// dist.attempt_seconds keyed by job id (one point per attempt), so
  /// straggler analysis can replay the run's timing shape per job — the
  /// registry histograms only keep the distribution.
  obs::SeriesRecorder* series = nullptr;
};

/// One worker fan-out, as `rlbf_run orchestrate`, `train --workers` and
/// `train --rollout_workers` each configure it: what to plan, how to
/// supervise the planned jobs, and the transport they launch on (a
/// LocalLauncher pool or a CommandLauncher over hosts, built by the
/// caller). model::TrainOptions::rollout carries one; its default
/// (plan.workers == 0) means no fan-out.
struct Fanout {
  PlanOptions plan;
  OrchestratorOptions supervise;
  std::shared_ptr<Launcher> launcher;
};

/// The flag an injected-failure attempt appends; unknown to every
/// rlbf_run subcommand by design (ArgParser exits 2 naming it).
inline constexpr const char* kInjectFailFlag = "--dist-injected-failure";

struct JobOutcome {
  JobSpec job;
  std::size_t attempts = 0;
  bool ok = false;
  /// Last attempt's status: "exit 2", "signal 9", "timeout", "spawn
  /// failed: ...", or "fetch failed: exit 1".
  std::string status;
  /// Tail of the last failed attempt's stderr ("" once the job passed).
  std::string stderr_tail;
  /// The rendered command of the last attempt, for reproduction.
  std::string command;
  /// Seconds between run_jobs entry and this job's first attempt (time
  /// spent queued behind max_parallel).
  double queue_wait_seconds = 0.0;
  /// Seconds from first attempt start to final outcome, all attempts
  /// and fetches included.
  double total_seconds = 0.0;
};

struct OrchestrationReport {
  std::vector<JobOutcome> jobs;  // plan order
  bool all_ok = false;
  std::size_t total_attempts = 0;

  /// One line per failed job: name, attempts, exit status, stderr tail.
  std::string failure_summary() const;
};

/// Run every job to success or retry exhaustion. Never throws on job
/// failure — the report carries the outcome — so partial progress is
/// always visible; throws std::invalid_argument only on an empty plan.
OrchestrationReport run_jobs(const std::vector<JobSpec>& jobs,
                             Launcher& launcher,
                             const OrchestratorOptions& options = {});

/// Merge the collected shard output dirs of a sweep plan into
/// `out_dir`'s canonical summary files. Throws std::runtime_error with
/// the report's failure summary when any job exhausted its retries
/// (collection over an incomplete shard set must never run), and
/// propagates exp::merge_shard_dirs errors.
exp::MergeReport collect_sweep(const OrchestrationReport& report,
                               const std::string& out_dir);

struct BundleImportTotals {
  std::size_t bundles = 0;
  std::size_t imported = 0;
  std::size_t skipped_existing = 0;
  /// (bundle dir, its import report) per worker, plan order.
  std::vector<std::pair<std::string, model::Store::ImportReport>> per_bundle;
};

/// Import every train job's bundle into `store`. Same
/// all-jobs-succeeded precondition as collect_sweep.
BundleImportTotals collect_train_bundles(const OrchestrationReport& report,
                                         model::Store& store);

}  // namespace rlbf::dist
