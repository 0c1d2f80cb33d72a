#ifndef CERTA_SERVICE_JOB_RUNNER_H_
#define CERTA_SERVICE_JOB_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/explain_request.h"
#include "core/certa_explainer.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "persist/score_store.h"

namespace certa::service {

/// One explanation request, as admitted by the serve loop — the
/// versioned api::ExplainRequest is the single spec shared by the CLI,
/// the wire protocol (src/net) and job checkpoints; the service layer
/// uses it directly. `id` is the job-dir name under the runner's job
/// root (empty = assigned "job-0001", ...); `deadline_ms` is the
/// whole-job deadline: admission rejects a job whose estimated queue
/// wait already exceeds it, and the watchdog parks a *running* job
/// that overruns it (its paid work survives in the journal).
using JobSpec = api::ExplainRequest;

/// Reconstructs the request a checkpoint was written under — the
/// resume path: `certa serve --resume <job-dir>` needs only the
/// directory.
JobSpec SpecFromCheckpoint(const persist::JobCheckpoint& checkpoint);

/// The one spec → explainer translation (shared by the durable runner
/// and the CLI's in-process explain). `include_deadline` applies
/// request.deadline_ms as a resilience deadline — the in-process path
/// wants that; durable runs leave it false because the runner's
/// watchdog owns the job deadline (park + resume, not truncate).
/// Durability hooks (cancel/observer/progress) are the caller's to
/// fill in afterwards.
core::CertaExplainer::Options ExplainerOptionsFromRequest(
    const api::ExplainRequest& request, bool include_deadline);

/// Terminal state of one job.
enum class JobState {
  /// Finished; result.json written atomically.
  kComplete = 0,
  /// Stopped cooperatively (watchdog deadline/stall, or shutdown) with
  /// journal + checkpoint flushed; resumable.
  kParked = 1,
  /// Unrunnable (bad dataset/model/pair, I/O failure). Not resumable.
  kFailed = 2,
};

std::string JobStateName(JobState state);

/// What one durable run produced.
struct JobOutcome {
  JobState state = JobState::kFailed;
  std::string job_id;
  std::string job_dir;
  std::string error;
  /// True when an existing journal was found and replayed.
  bool resumed = false;
  /// Journal entries replayed at start / fresh model scores paid by
  /// this run (the resume savings are `replayed` calls never re-paid).
  long long replayed_scores = 0;
  long long fresh_scores = 0;
  /// Cache misses served from the cross-job score store instead of the
  /// model (0 when no store is attached). Like replayed_scores these
  /// are calls never re-paid; unlike them they survive across jobs and
  /// server restarts.
  long long store_hits = 0;
  /// Subset of store_hits served by an entry a *sibling* worker paid
  /// for (absorbed from its stream in a shared store directory); 0
  /// outside shared-store fleet mode.
  long long store_peer_hits = 0;
  /// The result.json document, as RunDurableExplain returns it when
  /// state == kComplete. JobRunner retains summaries only: its outcomes
  /// carry an empty result_json, and result.json in job_dir is the one
  /// copy of a finished job's result.
  std::string result_json;
};

/// Knobs for one durable explain run.
struct DurableRunOptions {
  /// Journal fsync + checkpoint after this many fresh scores (phase
  /// boundaries always checkpoint). Smaller = less repaid work after a
  /// crash, more fsync overhead (bench_durability quantifies).
  int checkpoint_every = 256;
  /// Cooperative stop (not owned): when set, the run parks at the next
  /// poll point with durable state flushed.
  const std::atomic<bool>* cancel = nullptr;
  /// Checkpoint `state` recorded when cancelled: "parked" (watchdog)
  /// or "interrupted" (signal-driven shutdown). Both resume the same.
  const char* cancelled_state = "parked";
  /// Invoked on every fresh score and phase boundary — the runner's
  /// watchdog heartbeat.
  std::function<void()> heartbeat;
  /// Observes the same ExplainProgress snapshots the checkpoint is fed
  /// from (phase boundaries and per-triangle frontier advances) — the
  /// network layer streams progress events from here. Pointer fields
  /// inside the snapshot are valid only for the callback's duration.
  std::function<void(const core::ExplainProgress&)> progress;
  /// Observability (not owned; nullptr = uninstrumented). Flows into
  /// the journal (journal.*), checkpoint writes (checkpoint.*), and the
  /// explainer/engine underneath (explain.*, scoring.*). Results and
  /// durable state are bit-identical either way.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Cross-job durable prediction store (not owned; nullptr = none).
  /// Scoped to (model, dataset fingerprint): the run probes it on
  /// cache misses — skipping the paid model call on a hit — and feeds
  /// every fresh score back. Synced on the checkpoint cadence.
  /// Results are byte-identical with or without a store attached.
  persist::ScoreStore* store = nullptr;
  /// Answer support discovery from the inverted candidate index
  /// (byte-identical to the linear reference scan; see
  /// CertaExplainer::Options::use_candidate_index).
  bool use_candidate_index = true;
  /// When set, supplies the job's dataset instead of the default
  /// load-from-disk/benchmark path — the streaming coordinator's hook
  /// (service::StreamCoordinator::ProvideDataset): it materializes the
  /// live overlay tables and durably registers the job's record
  /// dependencies at the snapshot it hands out. False + *error fails
  /// the job.
  std::function<bool(const api::ExplainRequest&, data::Dataset*,
                     std::string*)>
      dataset_provider;
};

/// Runs one explanation job durably inside `job_dir`:
///   - replays any existing journal (torn tails discarded) into the
///     prediction cache, so already-paid model calls are never re-paid;
///   - write-ahead journals every fresh score, fsync'd on the
///     checkpoint cadence;
///   - checkpoints progress (phase, triangle frontier, tagged-lattice
///     antichains) atomically alongside;
///   - on completion writes result.json atomically and marks the
///     checkpoint "complete".
/// Kill this process at any instruction and re-run: the result is
/// bit-identical, with strictly fewer model calls.
JobOutcome RunDurableExplain(const JobSpec& spec, const std::string& job_dir,
                             const DurableRunOptions& options);

/// Serve-loop configuration.
struct JobRunnerOptions {
  /// Job dirs are created under here.
  std::string job_root = "jobs";
  /// Prepended to auto-assigned job ids ("job-0001" → "w2-job-0001").
  /// Fleet workers set their slot prefix so ids stay unique across the
  /// whole fleet even though every worker numbers from 1.
  std::string job_id_prefix;
  /// Bounded admission queue; a full queue sheds new jobs with a clear
  /// rejection instead of degrading the ones already running.
  size_t queue_capacity = 8;
  int workers = 1;
  int checkpoint_every = 256;
  /// Default whole-job deadline applied to specs without one; 0 = none.
  long long default_deadline_ms = 0;
  /// Park a running job with no heartbeat for this long; 0 = off.
  long long stall_timeout_ms = 0;
  /// Watchdog poll period.
  long long watchdog_poll_ms = 20;
  /// Observability (not owned; nullptr = uninstrumented). The runner
  /// keeps the service.* gauges/counters/histograms live and passes the
  /// same registry/recorder down to every durable run.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Write a JSON metrics snapshot to `stats_path` after every N
  /// terminal job outcomes (plus a final dump on Shutdown); 0 = only
  /// the final dump. Requires both `metrics` and a non-empty path.
  int stats_every = 0;
  std::string stats_path;
  /// Directory of the cross-job score store; empty = no store. The
  /// runner opens it once, shares it across workers (the store is
  /// internally locked), and closes it (final sync) on Shutdown. It
  /// holds the store's writer lock (persist::DirLock) for its lifetime,
  /// so two processes can never attach the same store namespace; in
  /// shared-stream mode the lock covers only this runner's stream
  /// (".lock-w<slot>"), so fleet siblings coexist in one directory.
  std::string store_dir;
  /// >= 0 opens the store in shared-stream mode with this stream slot
  /// (fleet workers pass their worker slot): the runner appends only
  /// to its own segment stream and absorbs sibling streams read-only,
  /// at job start and on the checkpoint/sync cadence. -1 = the store
  /// directory is this runner's single-writer namespace.
  int store_stream_slot = -1;
  /// Forwarded to every durable run (see DurableRunOptions).
  bool use_candidate_index = true;
  /// Forwarded to every durable run (see DurableRunOptions): streaming
  /// deployments point this at StreamCoordinator::ProvideDataset so
  /// jobs explain against the live overlays.
  std::function<bool(const api::ExplainRequest&, data::Dataset*,
                     std::string*)>
      dataset_provider;
  /// Progress/terminal event hooks (the network front-end's feed).
  /// Both are invoked from worker threads — on_progress from inside a
  /// running job, on_terminal after its outcome is recorded (never
  /// under the runner's lock) — so sinks must be thread-safe.
  std::function<void(const std::string& job_id,
                     const core::ExplainProgress& progress)>
      on_progress;
  std::function<void(const JobOutcome& outcome)> on_terminal;
};

/// Where one job currently is, as seen by JobRunner::Query.
enum class JobQueryState {
  /// Never submitted to this runner (or id unknown).
  kUnknown = 0,
  kQueued = 1,
  kRunning = 2,
  /// Terminal states mirror JobState; Query carries the outcome.
  kComplete = 3,
  kParked = 4,
  kFailed = 5,
};

std::string JobQueryStateName(JobQueryState state);

/// Bounded-queue job service: admission control in front, durable
/// worker runs in the middle, a watchdog on the side. Overload policy
/// (docs/OPERATIONS.md): reject new work first; a job that was admitted
/// either completes or parks with a resumable checkpoint — no admitted
/// job is ever silently lost.
class JobRunner {
 public:
  /// Machine-readable admission verdict (the wire protocol maps these
  /// to stable error codes; `reason` stays the human-readable text).
  enum class RejectCode {
    kNone = 0,
    kClosed = 1,
    kQueueFull = 2,
    kDeadline = 3,
    /// The admission checkpoint could not be written, so the job could
    /// not be made durable before the ack.
    kStorage = 4,
  };

  struct SubmitResult {
    bool accepted = false;
    std::string job_id;
    /// Why admission refused ("admission closed", "queue full ...",
    /// "deadline unmeetable ...", "cannot persist ...").
    std::string reason;
    RejectCode reject_code = RejectCode::kNone;
  };

  struct Counters {
    long long submitted = 0;
    long long accepted = 0;
    long long rejected_closed = 0;
    long long rejected_queue_full = 0;
    long long rejected_deadline = 0;
    long long rejected_storage = 0;
    long long completed = 0;
    long long parked = 0;
    long long failed = 0;
  };

  explicit JobRunner(JobRunnerOptions options);
  /// Graceful: equivalent to Shutdown(/*drain=*/true).
  ~JobRunner();

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Admission control; never blocks. Accepted specs are queued and
  /// will run to completion or a resumable park.
  SubmitResult Submit(JobSpec spec);

  /// Stops admission. drain=true lets queued + running jobs finish;
  /// drain=false cancels running jobs (they park with flushed state)
  /// and fails queued ones back as parked-in-queue outcomes. Joins all
  /// threads; idempotent.
  void Shutdown(bool drain);

  /// Blocks until every accepted job has a terminal outcome (admission
  /// stays open).
  void Wait();

  /// Point-in-time lookup of one job by id. For terminal states
  /// *outcome (optional) receives the recorded outcome.
  JobQueryState Query(const std::string& job_id,
                      JobOutcome* outcome = nullptr) const;

  /// Cooperative cancel: a queued job is removed and parked with a
  /// spec-only resumable checkpoint; a running job is flagged and
  /// parks at its next poll point (journal + checkpoint flushed).
  /// False (with *reason) for unknown or already-terminal jobs.
  bool Cancel(const std::string& job_id, std::string* reason);

  Counters counters() const;
  /// Terminal outcomes so far, in completion order (summaries: see
  /// JobOutcome::result_json).
  std::vector<JobOutcome> outcomes() const;

  /// Sweeps `partition_root` for job dirs whose checkpoint is not
  /// "complete" and enqueues each for a resume run *in place* (the job
  /// keeps its original directory, so its journal and checkpoint are
  /// reused and the result lands where the original submitter will look
  /// for it). Bypasses queue capacity — adopted jobs were already
  /// admitted once, by a worker that since died; re-shedding them would
  /// break the admitted-jobs-complete-or-park invariant. Jobs already
  /// queued or running under the same id are skipped. Returns the
  /// number adopted. This is both the fleet master's orphan-adoption
  /// path and every serving process's startup resume sweep of its own
  /// partition.
  int AdoptParked(const std::string& partition_root);

  /// The cross-job score store (null when options_.store_dir is empty
  /// or the directory could not be opened).
  const persist::ScoreStore* store() const { return store_.get(); }

  /// Absorbs sibling score streams now (no-op without a shared store).
  /// The scoring engine refreshes on its own periodic cadence; read
  /// paths (result/match fetches) call this so a reader never waits a
  /// full cadence for scores a sibling already published. Thread-safe.
  void RefreshStorePeers();

 private:
  struct QueuedJob {
    JobSpec spec;
    int64_t enqueued_micros = 0;
    /// Non-empty for adopted jobs: run in this existing directory
    /// instead of options_.job_root + "/" + id (the adopted dir lives
    /// in a dead worker's partition).
    std::string job_dir;
  };

  /// Watchdog view of one in-flight job.
  struct RunningJob {
    std::string id;
    std::atomic<bool> cancel{false};
    std::atomic<int64_t> last_heartbeat_micros{0};
    int64_t started_micros = 0;
    long long deadline_ms = 0;
  };

  void WorkerLoop();
  void WatchdogLoop();
  int64_t NowMicros() const;
  /// Writes a metrics snapshot to options_.stats_path (no-op without a
  /// registry or path). Called outside mutex_ — ToJson locks only the
  /// registry.
  void DumpStats();

  /// Registry handles, resolved once in the constructor (all null when
  /// options_.metrics is null).
  struct MetricHandles {
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* running = nullptr;
    obs::Counter* submitted = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected_closed = nullptr;
    obs::Counter* rejected_queue_full = nullptr;
    obs::Counter* rejected_deadline = nullptr;
    obs::Counter* rejected_storage = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* parked = nullptr;
    obs::Counter* failed = nullptr;
    obs::Histogram* job_us = nullptr;
  };

  JobRunnerOptions options_;
  MetricHandles metric_;
  /// Cross-job score store shared by every worker; see
  /// JobRunnerOptions::store_dir.
  std::unique_ptr<persist::ScoreStore> store_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<QueuedJob> queue_;
  std::vector<std::shared_ptr<RunningJob>> running_;
  std::vector<JobOutcome> outcomes_;
  Counters counters_;
  bool closed_ = false;
  bool cancel_running_ = false;
  bool stop_ = false;
  int next_job_number_ = 1;
  /// EMA of completed-job wall time, for deadline-aware admission.
  double ema_job_micros_ = 0.0;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace certa::service

#endif  // CERTA_SERVICE_JOB_RUNNER_H_
