// Durability cost/benefit bench (docs/OPERATIONS.md):
//   1. checkpoint overhead vs interval — what journaling + fsync
//      cadence costs on top of an in-memory run;
//   2. recovery time vs journal size — what replay costs on resume;
//   3. model calls saved vs kill point — what the journal buys when a
//      job dies at 25/50/75% of its paid work.
// Prints a table and writes BENCH_durability.json (atomically, through
// the same writer the service uses). Also a check: it exits nonzero
// unless every resume of a complete journal pays no fresh score, every
// kill-point resume completes with replayed + fresh equal to the
// uninterrupted run's calls and a byte-identical result, and
// CompactJournal succeeds.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "explain/json_export.h"
#include "models/trainer.h"
#include "persist/journal.h"
#include "service/job_runner.h"
#include "util/json_writer.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

fs::path FreshDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("certa_bench_durability_" + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

certa::service::JobSpec BenchJob(int triangles) {
  certa::service::JobSpec spec;
  spec.id = "bench";
  spec.dataset = "BA";
  spec.model = "svm";
  spec.pair_index = 1;
  spec.triangles = triangles;
  return spec;
}

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

/// Counts and reports a failed durability check.
int failed_checks = 0;
void Check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_checks;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace

int main() {
  const int triangles = EnvInt("CERTA_BENCH_TRIANGLES", 200);

  certa::JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("durability");
  json.Key("triangles");
  json.Int(triangles);

  // -- 1. checkpoint overhead vs interval ------------------------------
  // In-memory baseline covers the same whole pipeline a durable run
  // pays (dataset + training + explain), just without any persistence.
  Clock::time_point start = Clock::now();
  {
    certa::data::Dataset dataset = certa::data::MakeBenchmark("BA");
    auto model =
        certa::models::TrainMatcher(certa::models::ModelKind::kSvm, dataset);
    certa::models::ScoringEngine engine(model.get());
    certa::explain::ExplainContext context{&engine, &dataset.left,
                                           &dataset.right};
    certa::core::CertaExplainer::Options baseline_options;
    baseline_options.num_triangles = triangles;
    certa::core::CertaExplainer explainer(context, baseline_options);
    const certa::data::LabeledPair& pair = dataset.test[1];
    (void)explainer.Explain(dataset.left.record(pair.left_index),
                            dataset.right.record(pair.right_index));
  }
  const double baseline_ms = MillisSince(start);

  std::printf("durability bench (BA, svm, pair 1, %d triangles)\n\n",
              triangles);
  std::printf("checkpoint overhead vs interval (in-memory baseline %.1f ms)\n",
              baseline_ms);
  std::printf("%-12s %10s %10s %10s\n", "interval", "ms", "overhead",
              "fresh");
  json.Key("baseline_ms");
  json.Number(baseline_ms);
  json.Key("checkpoint_overhead");
  json.BeginArray();
  // 0 = flush only at phase boundaries; 1 = fsync after every score.
  for (int interval : {0, 256, 16, 1}) {
    const fs::path dir =
        FreshDir("interval_" + std::to_string(interval));
    certa::service::DurableRunOptions options;
    options.checkpoint_every = interval;
    start = Clock::now();
    certa::service::JobOutcome outcome = certa::service::RunDurableExplain(
        BenchJob(triangles), dir.string(), options);
    const double ms = MillisSince(start);
    if (outcome.state != certa::service::JobState::kComplete) {
      std::fprintf(stderr, "bench job failed: %s\n", outcome.error.c_str());
      return 1;
    }
    const char* label = interval == 0 ? "phase-only" : nullptr;
    std::printf("%-12s %10.1f %9.1f%% %10lld\n",
                label != nullptr ? label : std::to_string(interval).c_str(),
                ms, baseline_ms > 0.0 ? 100.0 * (ms - baseline_ms) / baseline_ms
                                      : 0.0,
                outcome.fresh_scores);
    json.BeginObject();
    json.Key("interval");
    json.Int(interval);
    json.Key("ms");
    json.Number(ms);
    json.Key("overhead_pct");
    json.Number(baseline_ms > 0.0 ? 100.0 * (ms - baseline_ms) / baseline_ms
                                  : 0.0);
    json.EndObject();
    fs::remove_all(dir);
  }
  json.EndArray();

  // -- 2. recovery time vs journal size --------------------------------
  std::printf("\nrecovery time vs journal size\n");
  std::printf("%-10s %10s %12s %12s\n", "triangles", "entries", "replay_ms",
              "resume_ms");
  json.Key("recovery");
  json.BeginArray();
  for (int t : {triangles / 4, triangles, triangles * 4}) {
    const fs::path dir = FreshDir("recovery_" + std::to_string(t));
    certa::service::JobOutcome full = certa::service::RunDurableExplain(
        BenchJob(t), dir.string(), certa::service::DurableRunOptions());
    if (full.state != certa::service::JobState::kComplete) {
      std::fprintf(stderr, "bench job failed: %s\n", full.error.c_str());
      return 1;
    }
    const std::string journal_path =
        certa::persist::JournalPathInDir(dir.string());
    start = Clock::now();
    certa::persist::JournalReplay replay =
        certa::persist::ReplayJournal(journal_path);
    const double replay_ms = MillisSince(start);
    start = Clock::now();
    certa::service::JobOutcome resumed = certa::service::RunDurableExplain(
        BenchJob(t), dir.string(), certa::service::DurableRunOptions());
    const double resume_ms = MillisSince(start);
    std::printf("%-10d %10zu %12.2f %12.1f\n", t, replay.entries.size(),
                replay_ms, resume_ms);
    Check(resumed.state == certa::service::JobState::kComplete &&
              resumed.fresh_scores == 0,
          "resuming a complete journal at " + std::to_string(t) +
              " triangles paid " + std::to_string(resumed.fresh_scores) +
              " fresh scores");
    json.BeginObject();
    json.Key("triangles");
    json.Int(t);
    json.Key("journal_entries");
    json.Int(static_cast<long long>(replay.entries.size()));
    json.Key("replay_ms");
    json.Number(replay_ms);
    json.Key("resume_ms");
    json.Number(resume_ms);
    json.Key("resume_fresh_scores");
    json.Int(resumed.fresh_scores);
    json.EndObject();
    fs::remove_all(dir);
  }
  json.EndArray();

  // -- 3. model calls saved vs kill point ------------------------------
  // Simulate a SIGKILL at k% of the paid work by seeding a fresh job
  // dir with the first k% of a complete run's journal, then resuming.
  const fs::path full_dir = FreshDir("kill_full");
  certa::service::JobOutcome full = certa::service::RunDurableExplain(
      BenchJob(triangles), full_dir.string(),
      certa::service::DurableRunOptions());
  if (full.state != certa::service::JobState::kComplete) {
    std::fprintf(stderr, "bench job failed: %s\n", full.error.c_str());
    return 1;
  }
  certa::persist::JournalReplay full_journal = certa::persist::ReplayJournal(
      certa::persist::JournalPathInDir(full_dir.string()));
  const size_t total = full_journal.entries.size();
  std::printf("\nmodel calls saved vs kill point (%zu total calls)\n",
              total);
  std::printf("%-10s %10s %10s %10s\n", "kill@", "replayed", "fresh",
              "saved");
  json.Key("kill_points");
  json.BeginArray();
  for (size_t pct : {25u, 50u, 75u}) {
    const fs::path dir = FreshDir("kill_" + std::to_string(pct));
    std::vector<certa::persist::JournalEntry> prefix(
        full_journal.entries.begin(),
        full_journal.entries.begin() +
            static_cast<long>(total * pct / 100));
    Check(certa::persist::CompactJournal(
              certa::persist::JournalPathInDir(dir.string()), prefix),
          "CompactJournal failed at kill point " + std::to_string(pct) + "%");
    certa::service::JobOutcome resumed = certa::service::RunDurableExplain(
        BenchJob(triangles), dir.string(),
        certa::service::DurableRunOptions());
    const std::string at = " at kill point " + std::to_string(pct) + "%";
    Check(resumed.state == certa::service::JobState::kComplete,
          "resume did not complete" + at + ": " + resumed.error);
    Check(resumed.replayed_scores + resumed.fresh_scores ==
              full.fresh_scores,
          "replayed + fresh != " + std::to_string(full.fresh_scores) +
              " uninterrupted calls" + at);
    Check(resumed.result_json == full.result_json,
          "resumed result differs from the uninterrupted run" + at);
    const double saved =
        100.0 * static_cast<double>(resumed.replayed_scores) /
        static_cast<double>(resumed.replayed_scores + resumed.fresh_scores);
    std::printf("%8zu%% %10lld %10lld %9.1f%%\n", pct,
                resumed.replayed_scores, resumed.fresh_scores, saved);
    json.BeginObject();
    json.Key("kill_pct");
    json.Int(static_cast<long long>(pct));
    json.Key("replayed");
    json.Int(resumed.replayed_scores);
    json.Key("fresh");
    json.Int(resumed.fresh_scores);
    json.Key("saved_pct");
    json.Number(saved);
    json.EndObject();
    fs::remove_all(dir);
  }
  json.EndArray();
  json.EndObject();
  fs::remove_all(full_dir);

  const char* path_env = std::getenv("CERTA_BENCH_DURABILITY_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_durability.json";
  if (!certa::explain::SaveJsonFile(path, json.str())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nsummary written to %s\n", path.c_str());
  if (failed_checks > 0) {
    std::fprintf(stderr, "%d durability check(s) failed\n", failed_checks);
    return 1;
  }
  return 0;
}
