#include "service/job_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "data/benchmarks.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "models/matcher_cache.h"
#include "models/trainer.h"
#include "persist/dir_lock.h"
#include "persist/journal.h"
#include "util/atomic_file.h"
#include "util/string_utils.h"

namespace certa::service {
namespace {

bool ModelKindFromName(const std::string& name, models::ModelKind* kind) {
  std::string lowered = ToLowerAscii(name);
  if (lowered == "deeper") *kind = models::ModelKind::kDeepEr;
  else if (lowered == "deepmatcher") *kind = models::ModelKind::kDeepMatcher;
  else if (lowered == "ditto") *kind = models::ModelKind::kDitto;
  else if (lowered == "svm") *kind = models::ModelKind::kSvm;
  else return false;
  return true;
}

persist::JobCheckpoint CheckpointFromSpec(const JobSpec& spec) {
  persist::JobCheckpoint checkpoint;
  checkpoint.request = spec;
  return checkpoint;
}

}  // namespace

JobSpec SpecFromCheckpoint(const persist::JobCheckpoint& checkpoint) {
  return checkpoint.request;
}

core::CertaExplainer::Options ExplainerOptionsFromRequest(
    const api::ExplainRequest& request, bool include_deadline) {
  core::CertaExplainer::Options options;
  options.num_triangles = std::max(2, request.triangles);
  options.num_threads = std::max(1, request.threads);
  options.use_cache = request.use_cache;
  options.seed = request.seed;
  options.resilience.enabled =
      request.budget > 0 || request.fault_rate > 0.0 ||
      (include_deadline && request.deadline_ms > 0);
  options.resilience.max_model_calls = request.budget;
  options.resilience.deadline_micros =
      include_deadline ? request.deadline_ms * 1000 : 0;
  return options;
}

std::string JobStateName(JobState state) {
  switch (state) {
    case JobState::kComplete:
      return "complete";
    case JobState::kParked:
      return "parked";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string JobQueryStateName(JobQueryState state) {
  switch (state) {
    case JobQueryState::kUnknown:
      return "unknown";
    case JobQueryState::kQueued:
      return "queued";
    case JobQueryState::kRunning:
      return "running";
    case JobQueryState::kComplete:
      return "complete";
    case JobQueryState::kParked:
      return "parked";
    case JobQueryState::kFailed:
      return "failed";
  }
  return "unknown";
}

JobOutcome RunDurableExplain(const JobSpec& spec, const std::string& job_dir,
                             const DurableRunOptions& options) {
  JobOutcome outcome;
  outcome.job_id = spec.id;
  outcome.job_dir = job_dir;
  auto fail = [&](const std::string& error) {
    outcome.state = JobState::kFailed;
    outcome.error = error;
    return outcome;
  };
  std::string request_error;
  if (!spec.Validate(&request_error)) {
    return fail("invalid request: " + request_error);
  }
  if (spec.fault_rate > 0.0) {
    // Journaled scores must come from the real model: a replayed fault
    // would poison every future resume of this job dir.
    return fail("fault_rate is not supported for durable jobs");
  }
  if (!util::EnsureDirectory(job_dir)) {
    return fail("cannot create job directory " + job_dir);
  }
  // Exclusivity: two runs in one job dir would interleave journal
  // appends and checkpoint writes. Held for the rest of this run (flock
  // dies with the process, so a SIGKILL never wedges the dir). A busy
  // lock is the fleet's double-execution safety net — the master
  // guarantees restart XOR adopt per partition, and if that ever
  // breaks, the loser parks here without touching durable state.
  persist::DirLock job_lock;
  std::string lock_error;
  if (!job_lock.Acquire(job_dir, &lock_error)) {
    outcome.state = JobState::kParked;
    outcome.error = "job dir busy: " + lock_error;
    return outcome;
  }

  // -- inputs (validated before any durable state is touched) --
  data::Dataset dataset;
  if (options.dataset_provider) {
    // Streaming: the coordinator materializes the live overlays and
    // durably registers this job's record dependencies at the snapshot
    // it hands out (the staleness contract).
    std::string provider_error;
    if (!options.dataset_provider(spec, &dataset, &provider_error)) {
      return fail("dataset provider: " + provider_error);
    }
  } else if (!spec.data_dir.empty()) {
    if (!data::LoadDatasetDirectory(spec.data_dir, spec.dataset, &dataset)) {
      return fail("cannot load dataset directory " + spec.data_dir);
    }
  } else {
    bool known = false;
    for (const std::string& code : data::BenchmarkCodes()) {
      if (code == spec.dataset) known = true;
    }
    if (!known) return fail("unknown dataset code " + spec.dataset);
    dataset = data::MakeBenchmark(spec.dataset);
  }
  if (spec.pair_index < 0 ||
      spec.pair_index >= static_cast<int>(dataset.test.size())) {
    return fail("pair index out of range (test set has " +
                std::to_string(dataset.test.size()) + " pairs)");
  }
  models::ModelKind kind;
  if (!ModelKindFromName(spec.model, &kind)) {
    return fail("unknown model " + spec.model);
  }

  // -- journal: recover, replay, compact --
  const std::string journal_path = persist::JournalPathInDir(job_dir);
  persist::JournalReplay replay;
  persist::JournalWriter journal;
  journal.BindMetrics(options.metrics);
  if (!journal.Open(journal_path, &replay)) {
    return fail("cannot open journal " + journal_path);
  }
  outcome.resumed = !replay.entries.empty();
  outcome.replayed_scores = static_cast<long long>(replay.entries.size());
  // Every score this job already paid, served back through the store
  // probe below so the resumed run skips those model calls.
  std::unordered_map<models::PairKey, double, models::PairKeyHasher>
      replayed;
  std::vector<persist::JournalEntry> unique;
  for (const persist::JournalEntry& entry : replay.entries) {
    if (replayed.emplace(entry.key, entry.score).second) {
      unique.push_back(entry);
    }
  }
  if (replay.duplicates > 0) {
    // A run without the cache (or past a shard eviction) pays and logs
    // some pairs more than once; compact so the journal stays
    // proportional to the unique work. The rewrite is atomic — a crash
    // here leaves the old journal.
    journal.Close();
    if (!persist::CompactJournal(journal_path, unique) ||
        !journal.Open(journal_path, nullptr)) {
      return fail("cannot compact journal " + journal_path);
    }
  }

  // -- model: training is seeded and deterministic, so (kind, training
  // inputs) is the matcher's identity. Its fingerprint keys both the
  // process's trained-matcher cache and the score-store scope below. --
  const uint64_t fingerprint = models::TrainingFingerprint(dataset);
  const std::shared_ptr<const models::Matcher> model =
      models::MatcherCache::Process().Get(kind, fingerprint, dataset,
                                          options.metrics, options.trace);

  // -- durable run --
  persist::JobCheckpoint checkpoint = CheckpointFromSpec(spec);
  checkpoint.state = "running";
  checkpoint.replayed_scores = outcome.replayed_scores;
  const std::string checkpoint_path = persist::CheckpointPathInDir(job_dir);
  obs::Counter* checkpoint_saves =
      options.metrics != nullptr
          ? options.metrics->counter("checkpoint.saves")
          : nullptr;
  obs::Histogram* checkpoint_save_us =
      options.metrics != nullptr
          ? options.metrics->histogram("checkpoint.save_us",
                                        obs::LatencyBuckets())
          : nullptr;
  long long fresh = 0;
  int since_flush = 0;
  auto flush = [&] {
    journal.Sync();
    // The cross-job store shares the journal's durability cadence: a
    // score that survived a crash in one is in the other too. The same
    // beat absorbs whatever sibling streams have published since the
    // last flush (no-op outside shared-store fleet mode), so a
    // long-running job keeps benefiting from scores its siblings are
    // paying for right now.
    if (options.store != nullptr) {
      options.store->Sync();
      options.store->RefreshPeers();
    }
    checkpoint.fresh_scores = fresh;
    const bool timed =
        checkpoint_save_us != nullptr && options.metrics->enabled();
    const auto save_start = timed ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point();
    persist::SaveCheckpoint(checkpoint_path, checkpoint);
    if (checkpoint_saves != nullptr) checkpoint_saves->Increment();
    if (timed) {
      checkpoint_save_us->Record(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - save_start)
              .count()));
    }
  };
  flush();  // job dir is self-describing before the first model call

  // The runner's watchdog owns deadline_ms for durable jobs (park and
  // resume, not truncate), so the adapter leaves it out here.
  core::CertaExplainer::Options explainer_options =
      ExplainerOptionsFromRequest(spec, /*include_deadline=*/false);
  explainer_options.cancel = options.cancel;
  explainer_options.metrics = options.metrics;
  explainer_options.trace = options.trace;
  explainer_options.use_candidate_index = options.use_candidate_index;
  persist::ScoreStore* store = options.store;
  if (store != nullptr && !store->is_open()) store = nullptr;
  // Scope store entries to the model's identity, so jobs over the same
  // benchmark share paid scores while different models/data can never
  // collide.
  const uint64_t scope = persist::HashScope(spec.model, fingerprint);
  // One replay hook: a cache miss is answered from this job's journal
  // first, then from the cross-job store. Either way it counts one
  // cache miss plus one store hit in the engine and is inserted where a
  // computed score would be, so results and cache counters match an
  // uninterrupted run, with or without use_cache. outcome.store_hits
  // counts the score store alone.
  explainer_options.store_probe = [&replayed, store, scope, &outcome](
                                      const models::PairKey& key,
                                      double* score) {
    if (auto it = replayed.find(key); it != replayed.end()) {
      *score = it->second;
      return 1;
    }
    bool from_peer = false;
    if (store == nullptr || !store->Lookup(scope, key, score, &from_peer)) {
      return 0;
    }
    ++outcome.store_hits;
    if (from_peer) ++outcome.store_peer_hits;
    return from_peer ? 2 : 1;
  };
  if (store != nullptr) {
    // Start the run with the freshest view of sibling streams a shared
    // store can offer (no-op for a single-writer store).
    store->RefreshPeers();
    explainer_options.store_write = [store, scope](const models::PairKey& key,
                                                   double score) {
      store->Put(scope, key, score);
    };
  }
  explainer_options.score_observer = [&](const models::PairKey& key,
                                         double score) {
    journal.Append(key, score);
    ++fresh;
    if (options.heartbeat) options.heartbeat();
    if (options.checkpoint_every > 0 &&
        ++since_flush >= options.checkpoint_every) {
      since_flush = 0;
      flush();
    }
  };
  explainer_options.progress = [&](const core::ExplainProgress& progress) {
    checkpoint.phase = progress.phase;
    checkpoint.triangles_total = progress.triangles_total;
    checkpoint.triangles_tagged = progress.triangles_tagged;
    checkpoint.predictions_performed = progress.predictions_performed;
    checkpoint.total_flips = progress.total_flips;
    if (progress.last_tags != nullptr) {
      // Tagged-antichain record of the triangle just finished.
      checkpoint.tagged_lattices.push_back(
          progress.last_lattice->SerializeTags(*progress.last_tags));
    } else {
      flush();  // phase boundaries are always durable
    }
    if (options.heartbeat) options.heartbeat();
    if (options.progress) options.progress(progress);
  };

  explain::ExplainContext context{model.get(), &dataset.left,
                                  &dataset.right};
  core::CertaExplainer explainer(context, explainer_options);
  const data::LabeledPair& pair =
      dataset.test[static_cast<size_t>(spec.pair_index)];
  core::CertaResult result = explainer.Explain(
      dataset.left.record(pair.left_index),
      dataset.right.record(pair.right_index));
  outcome.fresh_scores = fresh;

  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    // Parked (watchdog) or interrupted (shutdown): flush everything so
    // the next run resumes from exactly here.
    checkpoint.state = options.cancelled_state;
    flush();
    outcome.state = JobState::kParked;
    return outcome;
  }

  outcome.result_json = core::CertaResultToJson(result, dataset.left.schema(),
                                                dataset.right.schema());
  if (!util::AtomicWriteFile(persist::ResultPathInDir(job_dir),
                             outcome.result_json)) {
    flush();
    return fail("cannot write result file");
  }
  checkpoint.state = "complete";
  checkpoint.phase = "done";
  flush();
  outcome.state = JobState::kComplete;
  return outcome;
}

JobRunner::JobRunner(JobRunnerOptions options)
    : options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  util::EnsureDirectory(options_.job_root);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    metric_.queue_depth = reg.gauge("service.queue.depth");
    metric_.running = reg.gauge("service.jobs.running");
    metric_.submitted = reg.counter("service.jobs.submitted");
    metric_.accepted = reg.counter("service.jobs.accepted");
    metric_.rejected_closed = reg.counter("service.rejected.closed");
    metric_.rejected_queue_full = reg.counter("service.rejected.queue_full");
    metric_.rejected_deadline = reg.counter("service.rejected.deadline");
    metric_.rejected_storage = reg.counter("service.rejected.storage");
    metric_.completed = reg.counter("service.jobs.completed");
    metric_.parked = reg.counter("service.jobs.parked");
    metric_.failed = reg.counter("service.jobs.failed");
    metric_.job_us = reg.histogram("service.job_us", obs::LatencyBuckets());
  }
  if (!options_.store_dir.empty()) {
    auto store = std::make_unique<persist::ScoreStore>();
    persist::ScoreStore::Options store_options;
    store_options.exclusive_lock = true;
    store_options.stream_slot = options_.store_stream_slot;
    if (store->Open(options_.store_dir, store_options)) {
      store->BindMetrics(options_.metrics);
      store_ = std::move(store);
    } else {
      std::fprintf(stderr, "warning: cannot open score store %s (%s); running without\n",
                   options_.store_dir.c_str(), store->open_error().c_str());
    }
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

JobRunner::~JobRunner() { Shutdown(/*drain=*/true); }

int64_t JobRunner::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

JobRunner::SubmitResult JobRunner::Submit(JobSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.submitted;
  if (metric_.submitted != nullptr) metric_.submitted->Increment();
  if (closed_) {
    ++counters_.rejected_closed;
    if (metric_.rejected_closed != nullptr) {
      metric_.rejected_closed->Increment();
    }
    return {false, "", "admission closed (shutting down)",
            RejectCode::kClosed};
  }
  if (queue_.size() >= options_.queue_capacity) {
    ++counters_.rejected_queue_full;
    if (metric_.rejected_queue_full != nullptr) {
      metric_.rejected_queue_full->Increment();
    }
    return {false, "",
            "queue full (" + std::to_string(queue_.size()) +
                " jobs waiting, capacity " +
                std::to_string(options_.queue_capacity) + ")",
            RejectCode::kQueueFull};
  }
  if (spec.deadline_ms == 0) spec.deadline_ms = options_.default_deadline_ms;
  if (spec.deadline_ms > 0 && ema_job_micros_ > 0.0) {
    // Deadline-aware shedding: if the queue wait alone is already past
    // the client's deadline, reject now — cheaper for everyone than
    // admitting work that can only be parked later.
    const double estimated_wait_micros =
        static_cast<double>(queue_.size() + running_.size()) *
        ema_job_micros_;
    if (estimated_wait_micros > static_cast<double>(spec.deadline_ms) * 1000.0) {
      ++counters_.rejected_deadline;
      if (metric_.rejected_deadline != nullptr) {
        metric_.rejected_deadline->Increment();
      }
      return {false, "",
              "deadline unmeetable (~" +
                  std::to_string(
                      static_cast<long long>(estimated_wait_micros / 1000.0)) +
                  "ms estimated wait exceeds " +
                  std::to_string(spec.deadline_ms) + "ms deadline)",
              RejectCode::kDeadline};
    }
  }
  if (spec.id.empty()) {
    // Skip dirs an earlier process left (the startup sweep re-admits
    // them): a new job must never replay another job's journal.
    do {
      char id[32];
      std::snprintf(id, sizeof(id), "job-%04d", next_job_number_++);
      spec.id = options_.job_id_prefix + id;
    } while (util::PathExists(options_.job_root + "/" + spec.id));
  }
  // Durable admission: a spec-only checkpoint written before the accept
  // response means even a SIGKILL of this process loses nothing — the
  // resume sweep (or an adopting sibling worker) re-admits the job from
  // disk exactly as it re-admits parked work. A job that cannot get
  // that checkpoint is refused rather than acked without it.
  std::string job_dir = options_.job_root + "/" + spec.id;
  persist::JobCheckpoint checkpoint = CheckpointFromSpec(spec);
  checkpoint.state = "queued";
  if (!util::EnsureDirectory(job_dir) ||
      !persist::SaveCheckpoint(persist::CheckpointPathInDir(job_dir),
                               checkpoint)) {
    ++counters_.rejected_storage;
    if (metric_.rejected_storage != nullptr) {
      metric_.rejected_storage->Increment();
    }
    return {false, "",
            "cannot persist the admission checkpoint in " + job_dir,
            RejectCode::kStorage};
  }
  ++counters_.accepted;
  if (metric_.accepted != nullptr) metric_.accepted->Increment();
  queue_.push_back(QueuedJob{std::move(spec), NowMicros(),
                             std::move(job_dir)});
  if (metric_.queue_depth != nullptr) {
    metric_.queue_depth->Set(static_cast<long long>(queue_.size()));
  }
  work_available_.notify_one();
  return {true, queue_.back().spec.id, "", RejectCode::kNone};
}

void JobRunner::WorkerLoop() {
  for (;;) {
    std::shared_ptr<RunningJob> running;
    JobSpec spec;
    std::string job_dir;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stop_ || closed_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_ || closed_) return;
        continue;
      }
      spec = std::move(queue_.front().spec);
      job_dir = std::move(queue_.front().job_dir);
      queue_.pop_front();
      if (metric_.queue_depth != nullptr) {
        metric_.queue_depth->Set(static_cast<long long>(queue_.size()));
      }
      running = std::make_shared<RunningJob>();
      running->id = spec.id;
      running->started_micros = NowMicros();
      running->last_heartbeat_micros.store(running->started_micros,
                                           std::memory_order_relaxed);
      running->deadline_ms = spec.deadline_ms;
      if (cancel_running_) running->cancel.store(true);
      running_.push_back(running);
      if (metric_.running != nullptr) {
        metric_.running->Set(static_cast<long long>(running_.size()));
      }
    }

    DurableRunOptions run_options;
    run_options.checkpoint_every = options_.checkpoint_every;
    run_options.cancel = &running->cancel;
    run_options.cancelled_state = "parked";
    run_options.metrics = options_.metrics;
    run_options.trace = options_.trace;
    run_options.store = store_.get();
    run_options.use_candidate_index = options_.use_candidate_index;
    run_options.dataset_provider = options_.dataset_provider;
    RunningJob* heartbeat_target = running.get();
    run_options.heartbeat = [this, heartbeat_target] {
      heartbeat_target->last_heartbeat_micros.store(
          NowMicros(), std::memory_order_relaxed);
    };
    if (options_.on_progress) {
      const std::string job_id = spec.id;
      run_options.progress = [this,
                              job_id](const core::ExplainProgress& progress) {
        options_.on_progress(job_id, progress);
      };
    }
    JobOutcome outcome;
    {
      obs::TraceSpan job_span(options_.trace, "job:" + spec.id);
      if (job_dir.empty()) job_dir = options_.job_root + "/" + spec.id;
      outcome = RunDurableExplain(spec, job_dir, run_options);
      // Retain the summary only; result.json is on disk.
      outcome.result_json = std::string();
      job_span.AddArg("state", static_cast<long long>(outcome.state));
      job_span.AddArg("fresh_scores", outcome.fresh_scores);
      job_span.AddArg("replayed_scores", outcome.replayed_scores);
    }
    if (metric_.job_us != nullptr) {
      metric_.job_us->Record(
          static_cast<double>(NowMicros() - running->started_micros));
    }

    bool dump_stats = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (size_t i = 0; i < running_.size(); ++i) {
        if (running_[i].get() == running.get()) {
          running_.erase(running_.begin() + static_cast<ptrdiff_t>(i));
          break;
        }
      }
      if (metric_.running != nullptr) {
        metric_.running->Set(static_cast<long long>(running_.size()));
      }
      switch (outcome.state) {
        case JobState::kComplete: {
          ++counters_.completed;
          if (metric_.completed != nullptr) metric_.completed->Increment();
          const double duration = static_cast<double>(
              NowMicros() - running->started_micros);
          ema_job_micros_ = ema_job_micros_ == 0.0
                                ? duration
                                : 0.7 * ema_job_micros_ + 0.3 * duration;
          break;
        }
        case JobState::kParked:
          ++counters_.parked;
          if (metric_.parked != nullptr) metric_.parked->Increment();
          break;
        case JobState::kFailed:
          ++counters_.failed;
          if (metric_.failed != nullptr) metric_.failed->Increment();
          break;
      }
      outcomes_.push_back(outcome);
      dump_stats = options_.stats_every > 0 &&
                   outcomes_.size() %
                           static_cast<size_t>(options_.stats_every) ==
                       0;
      idle_.notify_all();
    }
    if (options_.on_terminal) options_.on_terminal(outcome);
    if (dump_stats) DumpStats();
  }
}

void JobRunner::DumpStats() {
  if (options_.metrics == nullptr || options_.stats_path.empty()) return;
  util::AtomicWriteFile(options_.stats_path,
                        options_.metrics->ToJson() + "\n");
}

void JobRunner::WatchdogLoop() {
  for (;;) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<long long>(1, options_.watchdog_poll_ms)));
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    const int64_t now = NowMicros();
    for (const std::shared_ptr<RunningJob>& job : running_) {
      if (job->cancel.load(std::memory_order_relaxed)) continue;
      const bool over_deadline =
          job->deadline_ms > 0 &&
          now - job->started_micros > job->deadline_ms * 1000;
      const bool stalled =
          options_.stall_timeout_ms > 0 &&
          now - job->last_heartbeat_micros.load(std::memory_order_relaxed) >
              options_.stall_timeout_ms * 1000;
      if (over_deadline || stalled) {
        // Park, don't kill: the job checkpoints at its next poll point
        // and every paid model call stays in its journal.
        job->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
}

void JobRunner::Shutdown(bool drain) {
  std::vector<JobOutcome> parked_in_queue;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ && workers_.empty()) return;  // already shut down
    closed_ = true;
    if (!drain) {
      for (const std::shared_ptr<RunningJob>& job : running_) {
        job->cancel.store(true, std::memory_order_relaxed);
      }
      cancel_running_ = true;
      // Queued jobs never started; leave each a spec-only checkpoint so
      // nothing admitted is lost without a resumable trail.
      for (const QueuedJob& queued : queue_) {
        const std::string job_dir =
            queued.job_dir.empty() ? options_.job_root + "/" + queued.spec.id
                                   : queued.job_dir;
        if (util::EnsureDirectory(job_dir)) {
          persist::JobCheckpoint checkpoint =
              CheckpointFromSpec(queued.spec);
          checkpoint.state = "interrupted";
          persist::SaveCheckpoint(persist::CheckpointPathInDir(job_dir),
                                  checkpoint);
        }
        JobOutcome outcome;
        outcome.state = JobState::kParked;
        outcome.job_id = queued.spec.id;
        outcome.job_dir = job_dir;
        outcome.error = "interrupted before start (resumable checkpoint written)";
        outcomes_.push_back(outcome);
        parked_in_queue.push_back(std::move(outcome));
        ++counters_.parked;
      }
      queue_.clear();
    }
    work_available_.notify_all();
  }
  if (options_.on_terminal) {
    for (const JobOutcome& outcome : parked_in_queue) {
      options_.on_terminal(outcome);
    }
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    idle_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
  if (store_ != nullptr) store_->Sync();  // every worker has stopped
  DumpStats();  // final snapshot: every terminal outcome is in
}

void JobRunner::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && running_.empty(); });
}

JobQueryState JobRunner::Query(const std::string& job_id,
                               JobOutcome* outcome) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const QueuedJob& queued : queue_) {
    if (queued.spec.id == job_id) return JobQueryState::kQueued;
  }
  for (const std::shared_ptr<RunningJob>& job : running_) {
    if (job->id == job_id) return JobQueryState::kRunning;
  }
  // Latest outcome wins: a parked job can be re-submitted and finish.
  for (auto it = outcomes_.rbegin(); it != outcomes_.rend(); ++it) {
    if (it->job_id != job_id) continue;
    if (outcome != nullptr) *outcome = *it;
    switch (it->state) {
      case JobState::kComplete:
        return JobQueryState::kComplete;
      case JobState::kParked:
        return JobQueryState::kParked;
      case JobState::kFailed:
        return JobQueryState::kFailed;
    }
  }
  return JobQueryState::kUnknown;
}

bool JobRunner::Cancel(const std::string& job_id, std::string* reason) {
  JobOutcome cancelled;
  bool notify_terminal = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].spec.id != job_id) continue;
      // Same trail as a drain-less shutdown: the job never started, so
      // a spec-only resumable checkpoint is its whole durable state.
      const JobSpec spec = queue_[i].spec;
      const std::string job_dir =
          queue_[i].job_dir.empty() ? options_.job_root + "/" + spec.id
                                    : queue_[i].job_dir;
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
      if (metric_.queue_depth != nullptr) {
        metric_.queue_depth->Set(static_cast<long long>(queue_.size()));
      }
      if (util::EnsureDirectory(job_dir)) {
        persist::JobCheckpoint checkpoint = CheckpointFromSpec(spec);
        checkpoint.state = "interrupted";
        persist::SaveCheckpoint(persist::CheckpointPathInDir(job_dir),
                                checkpoint);
      }
      cancelled.state = JobState::kParked;
      cancelled.job_id = spec.id;
      cancelled.job_dir = job_dir;
      cancelled.error = "cancelled before start (resumable checkpoint written)";
      outcomes_.push_back(cancelled);
      ++counters_.parked;
      if (metric_.parked != nullptr) metric_.parked->Increment();
      notify_terminal = true;
      idle_.notify_all();
      break;
    }
    if (!notify_terminal) {
      for (const std::shared_ptr<RunningJob>& job : running_) {
        if (job->id != job_id) continue;
        job->cancel.store(true, std::memory_order_relaxed);
        return true;  // parks at its next poll point
      }
    }
  }
  if (notify_terminal) {
    if (options_.on_terminal) options_.on_terminal(cancelled);
    return true;
  }
  if (reason != nullptr) *reason = "job is not queued or running";
  return false;
}

int JobRunner::AdoptParked(const std::string& partition_root) {
  namespace fs = std::filesystem;
  struct Candidate {
    JobSpec spec;
    std::string job_dir;
    persist::JobCheckpoint checkpoint;
  };
  std::vector<Candidate> candidates;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(partition_root, ec)) {
    if (ec) break;
    if (!entry.is_directory(ec)) continue;
    const std::string job_dir = entry.path().string();
    persist::JobCheckpoint checkpoint;
    if (!persist::LoadCheckpoint(persist::CheckpointPathInDir(job_dir),
                                 &checkpoint)) {
      continue;  // no (or corrupt) checkpoint: nothing admitted to honor
    }
    if (checkpoint.state == "complete" || checkpoint.state == "failed") {
      continue;
    }
    Candidate candidate;
    candidate.spec = SpecFromCheckpoint(checkpoint);
    if (candidate.spec.id.empty()) {
      candidate.spec.id = entry.path().filename().string();
    }
    candidate.job_dir = job_dir;
    candidate.checkpoint = std::move(checkpoint);
    candidates.push_back(std::move(candidate));
  }
  // Deterministic adoption order regardless of readdir order.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.job_dir < b.job_dir;
            });

  int adopted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return 0;
    for (Candidate& candidate : candidates) {
      bool in_flight = false;
      for (const QueuedJob& queued : queue_) {
        if (queued.spec.id == candidate.spec.id) in_flight = true;
      }
      for (const std::shared_ptr<RunningJob>& job : running_) {
        if (job->id == candidate.spec.id) in_flight = true;
      }
      if (in_flight) continue;
      // Deliberately past queue_capacity: these jobs were admitted once
      // (by the dead worker); shedding them now would silently lose
      // admitted work.
      ++counters_.submitted;
      ++counters_.accepted;
      if (metric_.submitted != nullptr) metric_.submitted->Increment();
      if (metric_.accepted != nullptr) metric_.accepted->Increment();
      // Rewrite the durable state before the job enters the queue:
      // sibling workers answer status polls from this checkpoint, and a
      // re-admitted job must read as active ("queued"), not still
      // "parked"/"interrupted", while it waits for a worker thread.
      // Progress fields are preserved — this re-saves the loaded
      // checkpoint, only flipping the state label.
      candidate.checkpoint.state = "queued";
      persist::SaveCheckpoint(persist::CheckpointPathInDir(candidate.job_dir),
                              candidate.checkpoint);
      queue_.push_back(QueuedJob{std::move(candidate.spec), NowMicros(),
                                 std::move(candidate.job_dir)});
      ++adopted;
    }
    if (adopted > 0) {
      if (metric_.queue_depth != nullptr) {
        metric_.queue_depth->Set(static_cast<long long>(queue_.size()));
      }
      work_available_.notify_all();
    }
  }
  return adopted;
}

void JobRunner::RefreshStorePeers() {
  // The store is internally locked; no runner state is touched.
  if (store_ != nullptr) store_->RefreshPeers();
}

JobRunner::Counters JobRunner::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::vector<JobOutcome> JobRunner::outcomes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outcomes_;
}

}  // namespace certa::service
