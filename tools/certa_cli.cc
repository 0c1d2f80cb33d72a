// certa — command-line driver for the CERTA explanation library.
//
// Subcommands:
//   certa datasets
//       List the built-in synthetic benchmarks with their statistics.
//   certa train --dataset AB [--model ditto] [--save FILE]
//       Train a model, report train/test F1, optionally persist it.
//   certa explain --dataset AB [--model ditto | --model-file FILE]
//                 [--pair N] [--triangles 100] [--json] [--tokens]
//       Explain one test-pair prediction with CERTA: text report (or
//       --json), optionally with token-level drill-down of the top
//       attribute.
//   certa export --dataset AB --out DIR
//       Write the synthetic benchmark as DeepMatcher-format CSVs.
//   certa profile --dataset AB
//       Per-attribute statistics of both sources.
//   certa rules --dataset FZ
//       Learn and print an interpretable rule-set matcher (SystemER
//       style) for the dataset.
//   certa global --dataset AB [--model ditto] [--pairs N]
//       Aggregate CERTA explanations over the test split: mean
//       saliency per predicted class + representative pairs.
//   certa serve [--job-root DIR] [--queue N] [--workers K] ...
//       Durable job service: resumes the job root's unfinished jobs,
//       reads job lines from stdin, answers ACCEPT/REJECT per admission
//       control, runs each job crash-safely in its own job dir (see
//       docs/OPERATIONS.md).
//   certa serve --listen PORT [--host ADDR] [--max-connections N] ...
//       Same durable service behind a TCP socket speaking the
//       line-delimited JSON protocol of docs/SERVICE.md (submit /
//       status / result / cancel / stats, streamed progress events).
//       Pair with tools/certa_client. With --workers K >= 2, a fleet of
//       K processes, each set up like a single one.
//   certa serve --resume JOBDIR
//       Resume a single interrupted/parked job from its directory (the
//       same single-job run as `explain --job-dir`).
//
// Every explanation entry point — `explain` flags, serve job lines,
// and the socket protocol — parses into the same versioned
// api::ExplainRequest, so validation and defaults cannot drift.
//
// A --data DIR pointing at a DeepMatcher-format directory (tableA.csv,
// tableB.csv, train.csv, test.csv) replaces the synthetic benchmark in
// any subcommand.
//
// `explain --job-dir DIR` makes that one explanation durable: scores
// are write-ahead journaled and progress checkpointed in DIR, so the
// same command re-run after a crash (or SIGINT — exit code 3) resumes
// without re-paying model calls and produces a bit-identical result.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/explain_request.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"

#include "persist/checkpoint.h"
#include "persist/dir_lock.h"
#include "persist/score_store.h"
#include "service/job_runner.h"
#include "service/signals.h"
#include "service/supervisor.h"
#include "util/json_writer.h"

#include "certa.h"
#include "core/token_explainer.h"
#include "models/resilience.h"
#include "data/profiling.h"
#include "explain/aggregate.h"
#include "models/rule_model.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

namespace {

using certa::data::Dataset;
using certa::models::ModelKind;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback) const {
    auto it = options.find(key);
    return it != options.end() ? it->second : fallback;
  }
};

bool Parse(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* token = argv[i];
    if (std::strncmp(token, "--", 2) != 0) return false;
    std::string key(token + 2);
    // Flags without values: --json, --tokens, --no-cache, --no-index.
    if (key == "json" || key == "tokens" || key == "no-cache" ||
        key == "no-index") {
      args->options[key] = "1";
      continue;
    }
    if (i + 1 >= argc) return false;
    args->options[key] = argv[++i];
  }
  return true;
}

int Usage() {
  std::cerr
      << "usage:\n"
         "  certa datasets\n"
         "  certa train   --dataset CODE [--model NAME] [--save FILE]\n"
         "  certa explain --dataset CODE [--model NAME | --model-file F]\n"
         "                [--pair N] [--triangles T] [--threads K]\n"
         "                [--seed N] [--no-cache] [--json] [--tokens]\n"
         "                [--data-dir DIR] [--budget N] [--deadline-ms N]\n"
         "                [--fault-rate X] [--metrics-out FILE]\n"
         "                [--trace-out FILE] [--no-index]\n"
         "  certa export  --dataset CODE --out DIR\n"
         "  certa profile --dataset CODE [--data DIR]\n"
         "  certa rules   --dataset CODE [--data DIR]\n"
         "  certa global  --dataset CODE [--model NAME] [--pairs N]\n"
         "                [--threads K] [--no-cache]\n"
         "  certa serve   [--job-root DIR] [--queue N] [--workers K]\n"
         "                [--checkpoint-every N] [--deadline-ms N]\n"
         "                [--stall-timeout-ms N] [--jobs FILE]\n"
         "                [--stats-every N] [--metrics-out FILE]\n"
         "                [--trace-out FILE] [--store-dir DIR] [--no-index]\n"
         "                (first resumes the job root's unfinished jobs)\n"
         "  certa serve   --listen PORT [--host ADDR]\n"
         "                [--max-connections N] [--stream-dir DIR]\n"
         "                [...same serve flags]\n"
         "                (--workers K >= 2 forks a fleet; --store-dir and\n"
         "                 --stream-dir are each one directory shared by\n"
         "                 every worker; worker k writes its metrics and\n"
         "                 trace into <job-root>/wk; --stream-dir enables\n"
         "                 the v2 streaming verbs: upsert / remove /\n"
         "                 match / invalidations)\n"
         "  certa serve   --resume JOBDIR [--checkpoint-every N]\n"
         "                [--store-dir DIR] [--metrics-out FILE]\n"
         "                [--trace-out FILE]\n"
         "durable explain: explain ... --job-dir DIR [--checkpoint-every N]\n"
         "                 [--store-dir DIR] (cross-job score store)\n"
         "models: deeper | deepmatcher | ditto | svm\n"
         "dataset codes: ";
  for (const std::string& code : certa::data::BenchmarkCodes()) {
    std::cerr << code << " ";
  }
  std::cerr << "\n";
  return 2;
}

// Checked flag parsing. std::atoi was the previous implementation and
// silently mapped garbage to 0 ("--pair=abc" explained pair 0, and
// "--pair=-1" reached indexing as a negative); every integer flag and
// job-line key now goes through these, which print a clear error and
// make the command exit nonzero.

bool ParseIntFlag(const Args& args, const std::string& key,
                  long long fallback, long long min_value, long long* out) {
  if (!args.Has(key)) {
    *out = fallback;
    return true;
  }
  const std::string text = args.Get(key, "");
  long long value = 0;
  if (!certa::ParseInt64(text, &value)) {
    std::cerr << "error: --" << key << "=" << text
              << " is not an integer\n";
    return false;
  }
  if (value < min_value) {
    std::cerr << "error: --" << key << " must be >= " << min_value
              << " (got " << value << ")\n";
    return false;
  }
  *out = value;
  return true;
}

bool ParseIntFlag(const Args& args, const std::string& key, int fallback,
                  int min_value, int* out) {
  long long value = 0;
  if (!ParseIntFlag(args, key, static_cast<long long>(fallback),
                    static_cast<long long>(min_value), &value)) {
    return false;
  }
  if (value > std::numeric_limits<int>::max()) {
    std::cerr << "error: --" << key << " is out of range (got " << value
              << ")\n";
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

/// Shared observability wiring: builds the registry/recorder when the
/// corresponding output flag is present, and writes both files (via the
/// atomic writer) when the command finishes.
struct ObsSink {
  std::unique_ptr<certa::obs::MetricsRegistry> metrics;
  std::unique_ptr<certa::obs::TraceRecorder> trace;
  std::string metrics_path;
  std::string trace_path;

  void InitFromArgs(const Args& args) {
    metrics_path = args.Get("metrics-out", "");
    trace_path = args.Get("trace-out", "");
    if (!metrics_path.empty()) {
      metrics = std::make_unique<certa::obs::MetricsRegistry>();
    }
    if (!trace_path.empty()) {
      trace = std::make_unique<certa::obs::TraceRecorder>();
    }
  }

  /// Final dump; returns false (with a message) when a write fails.
  bool Flush() const {
    if (metrics != nullptr &&
        !certa::util::AtomicWriteFile(metrics_path,
                                      metrics->ToJson() + "\n")) {
      std::cerr << "error: cannot write metrics to " << metrics_path << "\n";
      return false;
    }
    if (trace != nullptr && !trace->SaveToFile(trace_path)) {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      return false;
    }
    return true;
  }
};

/// The one single-job durable run, behind `explain --job-dir` and
/// `serve --resume`: scores are write-ahead journaled and progress
/// checkpointed in `job_dir`, SIGINT/SIGTERM parks the job, and
/// --metrics-out/--trace-out record it. --store-dir is opened with the
/// writer lock, so a store another process is writing (a live serve or
/// fleet) is left untouched: that is a warning, and the job runs
/// without the store — the result is byte-identical either way, only
/// the model-call count changes (docs/PERSISTENCE.md). Exit code 0 =
/// complete, 1 = failed, 3 = interrupted and resumable.
int RunSingleJob(const Args& args, const certa::service::JobSpec& spec,
                 const std::string& job_dir) {
  certa::service::DurableRunOptions run_options;
  if (!ParseIntFlag(args, "checkpoint-every", 256, 1,
                    &run_options.checkpoint_every)) {
    return 2;
  }
  ObsSink obs;
  obs.InitFromArgs(args);
  run_options.cancel = certa::service::ShutdownFlag();
  run_options.cancelled_state = "interrupted";
  run_options.metrics = obs.metrics.get();
  run_options.trace = obs.trace.get();
  run_options.use_candidate_index = !args.Has("no-index");
  certa::persist::ScoreStore store;
  if (args.Has("store-dir")) {
    certa::persist::ScoreStore::Options store_options;
    store_options.exclusive_lock = true;
    if (store.Open(args.Get("store-dir", ""), store_options)) {
      store.BindMetrics(obs.metrics.get());
      run_options.store = &store;
    } else {
      std::cerr << "warning: cannot open score store in "
                << args.Get("store-dir", "") << " (" << store.open_error()
                << "); running without it\n";
    }
  }
  const certa::service::JobOutcome outcome =
      certa::service::RunDurableExplain(spec, job_dir, run_options);
  if (run_options.store != nullptr) store.Sync();
  if (!obs.Flush()) return 1;
  if (outcome.state == certa::service::JobState::kFailed) {
    std::cerr << "error: " << outcome.error << "\n";
    return 1;
  }
  if (outcome.state == certa::service::JobState::kParked) {
    std::cerr << "interrupted: journal + checkpoint flushed in "
              << outcome.job_dir << "; re-run the same command to resume\n";
    return certa::service::kInterruptedExitCode;
  }
  if (args.Has("json")) {
    std::cout << outcome.result_json << "\n";
    return 0;
  }
  std::cout << "durable explain complete ("
            << (outcome.resumed ? "resumed: " : "fresh run: ")
            << outcome.replayed_scores << " scores replayed, "
            << outcome.fresh_scores << " fresh";
  if (run_options.store != nullptr) {
    std::cout << ", " << outcome.store_hits << " store hits";
  }
  std::cout << "); result at "
            << certa::persist::ResultPathInDir(outcome.job_dir) << "\n";
  return 0;
}

bool ParseModel(const std::string& name, ModelKind* kind) {
  std::string lowered = certa::ToLowerAscii(name);
  if (lowered == "deeper") *kind = ModelKind::kDeepEr;
  else if (lowered == "deepmatcher") *kind = ModelKind::kDeepMatcher;
  else if (lowered == "ditto") *kind = ModelKind::kDitto;
  else if (lowered == "svm") *kind = ModelKind::kSvm;
  else return false;
  return true;
}

/// The explain-request flags, in one place. Each key funnels through
/// api::ApplyField, so `certa explain` flags, serve job lines, and the
/// socket protocol accept the same fields with the same validation —
/// the flag spelling (dashes) and the wire spelling (underscores) are
/// normalized to the same field.
constexpr const char* kRequestFlagKeys[] = {
    "dataset", "data", "data-dir", "model",       "pair",
    "pair-index", "triangles", "threads", "seed", "budget",
    "deadline-ms", "fault-rate"};

bool BuildRequestFromArgs(const Args& args,
                          certa::api::ExplainRequest* request) {
  for (const char* key : kRequestFlagKeys) {
    if (!args.Has(key)) continue;
    std::string error;
    if (!certa::api::ApplyField(key, args.Get(key, ""), request, &error)) {
      std::cerr << "error: --" << key << ": " << error << "\n";
      return false;
    }
    // Old spellings still work, with a nudge toward the canonical one.
    const std::string note = certa::api::DeprecationNote(key);
    if (!note.empty()) std::cerr << "warning: " << note << "\n";
  }
  if (args.Has("no-cache")) request->use_cache = false;
  std::string error;
  if (!request->Validate(&error)) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  return true;
}

/// Loads the request's dataset: a DeepMatcher-format directory when
/// data_dir is set, else the synthetic benchmark named by its code.
bool LoadDataForRequest(const certa::api::ExplainRequest& request,
                        Dataset* dataset) {
  if (!request.data_dir.empty()) {
    if (!certa::data::LoadDatasetDirectory(request.data_dir, request.dataset,
                                           dataset)) {
      std::cerr << "error: cannot load dataset directory "
                << request.data_dir << "\n";
      return false;
    }
    return true;
  }
  bool known = false;
  for (const std::string& candidate : certa::data::BenchmarkCodes()) {
    if (candidate == request.dataset) known = true;
  }
  if (!known) {
    std::cerr << "error: unknown dataset code " << request.dataset << "\n";
    return false;
  }
  *dataset = certa::data::MakeBenchmark(request.dataset);
  return true;
}

/// LoadDataForRequest for the subcommands without a request: --dataset
/// (default AB) and --data DIR.
bool LoadData(const Args& args, Dataset* dataset) {
  certa::api::ExplainRequest request;
  request.dataset = args.Get("dataset", "AB");
  request.data_dir = args.Get("data", "");
  return LoadDataForRequest(request, dataset);
}

int CmdDatasets() {
  certa::TablePrinter table(
      {"Code", "Name", "Matches", "Attr.s", "Records", "Values"});
  for (const std::string& code : certa::data::BenchmarkCodes()) {
    Dataset dataset = certa::data::MakeBenchmark(code);
    certa::data::DatasetStats stats = certa::data::ComputeStats(dataset);
    table.AddRow({code, dataset.full_name, std::to_string(stats.matches),
                  std::to_string(stats.attributes),
                  std::to_string(stats.left_records) + " - " +
                      std::to_string(stats.right_records),
                  std::to_string(stats.left_values) + " - " +
                      std::to_string(stats.right_values)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdTrain(const Args& args) {
  Dataset dataset;
  if (!LoadData(args, &dataset)) return 1;
  ModelKind kind;
  if (!ParseModel(args.Get("model", "ditto"), &kind)) return Usage();
  auto model = certa::models::TrainMatcher(kind, dataset);
  if (args.Has("save")) {
    if (!certa::models::SaveMatcher(*model, kind, args.Get("save", ""))) {
      std::cerr << "error: cannot save model to " << args.Get("save", "")
                << "\n";
      return 1;
    }
    std::cout << "saved model to " << args.Get("save", "") << "\n";
  }
  std::cout << "trained " << model->name() << " on " << dataset.code
            << ": train F1 = "
            << certa::FormatDouble(
                   certa::models::EvaluateF1(*model, dataset.left,
                                             dataset.right, dataset.train),
                   3)
            << ", test F1 = "
            << certa::FormatDouble(
                   certa::models::EvaluateF1(*model, dataset.left,
                                             dataset.right, dataset.test),
                   3)
            << "\n";
  return 0;
}

int CmdExplain(const Args& args) {
  certa::api::ExplainRequest request;
  // The CLI's historical default model is ditto (the request type
  // itself defaults to svm, which serve job lines keep).
  request.model = "ditto";
  if (!BuildRequestFromArgs(args, &request)) return 2;
  Dataset dataset;
  if (!LoadDataForRequest(request, &dataset)) return 1;
  ModelKind kind;
  if (!ParseModel(request.model, &kind)) return Usage();
  if (request.pair_index >= static_cast<int>(dataset.test.size())) {
    std::cerr << "error: --pair out of range (test set has "
              << dataset.test.size() << " pairs)\n";
    return 1;
  }
  if (args.Has("job-dir")) {
    // Durable path: re-running the same command after a crash (or ^C)
    // resumes without re-paying model calls and yields a bit-identical
    // result.
    if (args.Has("model-file")) {
      std::cerr << "error: --job-dir resumes by retraining --model NAME "
                   "deterministically; --model-file is not supported\n";
      return 1;
    }
    certa::service::JobSpec spec = request;
    spec.id = "cli";
    return RunSingleJob(args, spec, args.Get("job-dir", ""));
  }
  ObsSink obs;
  obs.InitFromArgs(args);
  std::unique_ptr<certa::models::Matcher> model;
  if (args.Has("model-file")) {
    certa::models::ModelKind loaded_kind;
    model = certa::models::LoadMatcher(args.Get("model-file", ""),
                                       &loaded_kind);
    if (model == nullptr) {
      std::cerr << "error: cannot load model from "
                << args.Get("model-file", "") << "\n";
      return 1;
    }
  } else {
    model = certa::models::TrainMatcher(kind, dataset);
  }
  certa::models::ScoringEngine::Options engine_options;
  engine_options.enable_cache = request.use_cache;
  certa::models::ScoringEngine engine(model.get(), engine_options);
  // With --fault-rate the explainer scores through the injector
  // directly (un-cached, like the remote service it simulates); the
  // clean engine still provides the report-header score below.
  std::unique_ptr<certa::models::FaultInjectingMatcher> faulty;
  const certa::models::Matcher* context_model = &engine;
  if (request.fault_rate > 0.0) {
    certa::models::FaultOptions fault_options;
    fault_options.fault_rate = request.fault_rate;
    faulty = std::make_unique<certa::models::FaultInjectingMatcher>(
        model.get(), fault_options);
    context_model = faulty.get();
  }
  certa::explain::ExplainContext context{context_model, &dataset.left,
                                         &dataset.right};
  // The in-process path honors --deadline-ms as a resilience deadline
  // (truncate-and-report); durable runs leave it to the watchdog.
  certa::core::CertaExplainer::Options options =
      certa::service::ExplainerOptionsFromRequest(request,
                                                  /*include_deadline=*/true);
  options.metrics = obs.metrics.get();
  options.trace = obs.trace.get();
  options.use_candidate_index = !args.Has("no-index");
  certa::core::CertaExplainer explainer(context, options);

  const certa::data::LabeledPair& pair =
      dataset.test[static_cast<size_t>(request.pair_index)];
  const certa::data::Record& u = dataset.left.record(pair.left_index);
  const certa::data::Record& v = dataset.right.record(pair.right_index);
  certa::core::CertaResult result = explainer.Explain(u, v);

  if (args.Has("json")) {
    std::cout << certa::core::CertaResultToJson(
                     result, dataset.left.schema(), dataset.right.schema())
              << "\n";
  } else {
    std::cout << certa::explain::RenderReport(
        u, v, dataset.left.schema(), dataset.right.schema(),
        engine.Score(u, v), result.saliency, result.counterfactuals);
    std::cout << certa::explain::RenderStatusLine(
        certa::core::ExplainStatusName(result.status),
        result.triangle_phase.calls + result.lattice_phase.calls +
            result.cf_phase.calls,
        result.triangle_phase.retries + result.lattice_phase.retries +
            result.cf_phase.retries,
        result.triangle_phase.failures + result.lattice_phase.failures +
            result.cf_phase.failures,
        result.triangle_phase.cells_skipped +
            result.lattice_phase.cells_skipped +
            result.cf_phase.cells_skipped);
  }

  if (args.Has("tokens") && !result.saliency.Ranked().empty()) {
    certa::explain::AttributeRef top = result.saliency.Ranked().front();
    certa::core::TokenExplainer tokens(context);
    certa::core::TokenExplanation explanation =
        tokens.Explain(u, v, top);
    std::cout << "token-level saliency for "
              << certa::explain::QualifiedAttributeName(
                     dataset.left.schema(), dataset.right.schema(), top)
              << ":\n";
    for (int t : explanation.Ranked()) {
      std::cout << "  " << explanation.tokens[t] << " = "
                << certa::FormatDouble(explanation.scores[t], 3) << "\n";
    }
  }
  if (!obs.Flush()) return 1;
  return 0;
}

int CmdExport(const Args& args) {
  Dataset dataset;
  if (!LoadData(args, &dataset)) return 1;
  if (!args.Has("out")) return Usage();
  if (!certa::data::SaveDatasetDirectory(args.Get("out", ""), dataset)) {
    std::cerr << "error: cannot write to " << args.Get("out", "")
              << " (directory must exist)\n";
    return 1;
  }
  std::cout << "wrote " << dataset.code << " ("
            << dataset.left.size() << " + " << dataset.right.size()
            << " records, " << dataset.train.size() << "/"
            << dataset.test.size() << " train/test pairs) to "
            << args.Get("out", "") << "\n";
  return 0;
}

int CmdProfile(const Args& args) {
  Dataset dataset;
  if (!LoadData(args, &dataset)) return 1;
  std::cout << "table " << dataset.left.name() << " ("
            << dataset.left.size() << " records):\n"
            << certa::data::RenderProfiles(
                   certa::data::ProfileTable(dataset.left))
            << "table " << dataset.right.name() << " ("
            << dataset.right.size() << " records):\n"
            << certa::data::RenderProfiles(
                   certa::data::ProfileTable(dataset.right));
  return 0;
}

int CmdRules(const Args& args) {
  Dataset dataset;
  if (!LoadData(args, &dataset)) return 1;
  certa::models::RuleModel model;
  model.Fit(dataset);
  std::cout << "learned rule set (test F1 = "
            << certa::FormatDouble(
                   certa::models::EvaluateF1(model, dataset.left,
                                             dataset.right, dataset.test),
                   3)
            << "):\n"
            << model.Describe(dataset.left.schema());
  return 0;
}

int CmdGlobal(const Args& args) {
  Dataset dataset;
  if (!LoadData(args, &dataset)) return 1;
  ModelKind kind;
  if (!ParseModel(args.Get("model", "ditto"), &kind)) return Usage();
  int max_pairs = 0;
  int threads = 0;
  if (!ParseIntFlag(args, "pairs", 20, 1, &max_pairs) ||
      !ParseIntFlag(args, "threads", 1, 1, &threads)) {
    return 2;
  }
  auto model = certa::models::TrainMatcher(kind, dataset);
  certa::models::ScoringEngine::Options engine_options;
  engine_options.enable_cache = !args.Has("no-cache");
  certa::models::ScoringEngine engine(model.get(), engine_options);
  certa::explain::ExplainContext context{&engine, &dataset.left,
                                         &dataset.right};
  certa::core::CertaExplainer::Options options;
  options.num_threads = threads;
  options.use_cache = !args.Has("no-cache");
  options.use_candidate_index = !args.Has("no-index");
  certa::core::CertaExplainer explainer(context, options);
  std::vector<certa::data::LabeledPair> pairs = dataset.test;
  if (static_cast<int>(pairs.size()) > max_pairs) {
    pairs.resize(static_cast<size_t>(max_pairs));
  }
  std::vector<certa::explain::SaliencyExplanation> explanations;
  for (const auto& pair : pairs) {
    explanations.push_back(explainer.ExplainSaliency(
        dataset.left.record(pair.left_index),
        dataset.right.record(pair.right_index)));
  }
  certa::explain::GlobalExplanation global =
      certa::explain::AggregateExplanations(context, pairs, dataset.left,
                                            dataset.right, explanations);
  std::cout << "global CERTA explanation of " << model->name() << " on "
            << dataset.code << " (" << pairs.size() << " pairs):\n"
            << certa::explain::RenderGlobalExplanation(
                   global, dataset.left.schema(), dataset.right.schema());
  return 0;
}

/// One worker's STATS payload for the fleet control channel: the same
/// counter names the wire-protocol stats frame uses, so the master can
/// sum every numeric field without a schema of its own.
std::string WorkerStatsJson(int slot,
                            const certa::service::JobRunner::Counters& c,
                            const certa::net::ServerStats& s,
                            const certa::persist::ScoreStore* store) {
  certa::JsonWriter json;
  json.BeginObject();
  json.Key("slot");
  json.Int(slot);
  json.Key("pid");
  json.Int(static_cast<long long>(::getpid()));
  json.Key("runner");
  json.BeginObject();
  json.Key("submitted");
  json.Int(c.submitted);
  json.Key("accepted");
  json.Int(c.accepted);
  json.Key("rejected_closed");
  json.Int(c.rejected_closed);
  json.Key("rejected_queue_full");
  json.Int(c.rejected_queue_full);
  json.Key("rejected_deadline");
  json.Int(c.rejected_deadline);
  json.Key("completed");
  json.Int(c.completed);
  json.Key("parked");
  json.Int(c.parked);
  json.Key("failed");
  json.Int(c.failed);
  json.EndObject();
  json.Key("server");
  json.BeginObject();
  json.Key("connections_accepted");
  json.Int(s.connections_accepted);
  json.Key("connections_active");
  json.Int(s.connections_active);
  json.Key("frames_in");
  json.Int(s.frames_in);
  json.Key("bytes_in");
  json.Int(s.bytes_in);
  json.Key("bytes_out");
  json.Int(s.bytes_out);
  json.Key("events_dropped");
  json.Int(s.events_dropped);
  json.Key("slow_reader_closes");
  json.Int(s.slow_reader_closes);
  json.EndObject();
  if (store != nullptr) {
    const certa::persist::ScoreStore::Stats st = store->stats();
    json.Key("store");
    json.BeginObject();
    json.Key("entries");
    json.Int(static_cast<long long>(st.entries));
    json.Key("lookups");
    json.Int(st.lookups);
    json.Key("hits");
    json.Int(st.hits);
    json.Key("peer_hits");
    json.Int(st.peer_hits);
    json.Key("peer_records");
    json.Int(st.peer_records);
    json.Key("appends");
    json.Int(st.appends);
    json.Key("compactions");
    json.Int(st.compactions);
    json.EndObject();
  }
  json.EndObject();
  return json.str();
}

/// The serve flags every serving process of one `certa serve` shares.
struct ServeConfig {
  /// Runner settings; `job_root` is the whole job root and `store_dir`
  /// the whole store (SetUpServeRunner narrows them per process).
  certa::service::JobRunnerOptions runner;
  std::string host = "127.0.0.1";
  int port = 0;
  int max_connections = 64;
  int max_write_buffer = 1 << 20;
  std::string stream_dir;
  /// Cadence of a fleet worker's STATS pushes to its master.
  long long stats_interval_ms = 200;
};

/// A serving process is a fleet worker when it has a control channel
/// to a master. Otherwise it is a single process: a fleet of one
/// without the fork (see SingleProcessLaunch).
bool IsFleetWorker(const certa::service::WorkerLaunch& launch) {
  return launch.control_fd >= 0;
}

/// The prefix of a serving process's stderr lines.
std::string ProcessLabel(const certa::service::WorkerLaunch& launch) {
  return IsFleetWorker(launch) ? "worker " + std::to_string(launch.slot) + ": "
                               : "serve: ";
}

/// A single serving process's place: slot 0 (its stream slot), the job
/// root as its partition, no control channel, and the store dir as its
/// own single-writer namespace. Its job dirs stay `<job-root>/<id>`.
certa::service::WorkerLaunch SingleProcessLaunch(const ServeConfig& config) {
  certa::service::WorkerLaunch launch;
  launch.partition_root = config.runner.job_root;
  launch.store_dir = config.runner.store_dir;
  launch.stream_dir = config.stream_dir;
  launch.listen_port = config.port;
  return launch;
}

/// The setup every serving process shares (the stdin loop, a single
/// `--listen` process, each fleet worker): locks its partition — one
/// serving process per job root, so a second one fails fast instead of
/// corrupting it — and derives its runner options. The runner locks
/// its store itself.
bool SetUpServeRunner(const ServeConfig& config, const ObsSink& obs,
                      const certa::service::WorkerLaunch& launch,
                      certa::persist::DirLock* lock,
                      certa::service::JobRunnerOptions* runner) {
  std::string error;
  if (!lock->Acquire(launch.partition_root, &error)) {
    std::cerr << ProcessLabel(launch) << "job root " << launch.partition_root
              << " is busy: " << error << "\n";
    return false;
  }
  *runner = config.runner;
  runner->job_root = launch.partition_root;
  runner->store_dir = launch.store_dir;
  runner->metrics = obs.metrics.get();
  runner->trace = obs.trace.get();
  runner->stats_path = obs.metrics_path;
  if (IsFleetWorker(launch)) {
    // One runner thread per worker process. The whole fleet shares the
    // store dir; the slot picks the one segment stream this worker may
    // write (and locks only that stream, so siblings coexist while a
    // second fleet cannot steal a slot), and prefixes job ids so they
    // stay unique fleet-wide although every worker numbers from 1.
    runner->workers = 1;
    runner->store_stream_slot = launch.slot;
    runner->job_id_prefix = "w" + std::to_string(launch.slot) + "-";
  }
  return true;
}

/// The startup resume sweep: re-admits every non-terminal job of the
/// partition — acked before a SIGKILL or a signal, or parked by a
/// predecessor in the slot — before the process reports ready.
void ResumeSweep(certa::service::JobRunner* runner,
                 const certa::service::WorkerLaunch& launch) {
  const int resumed = runner->AdoptParked(launch.partition_root);
  if (resumed > 0) {
    std::cerr << ProcessLabel(launch) << "resuming " << resumed
              << " parked job(s)\n";
  }
}

/// Ends every serving process the same way: one DONE line per job with
/// its latest outcome (a job that parked and later completed reports
/// complete), written at once so the lines of concurrent fleet workers
/// never interleave; a counters line on stderr; then the metrics and
/// trace files. Sets *parked when some job's latest outcome is parked.
/// False when a metrics or trace write failed.
bool FinishServe(const certa::service::JobRunner& runner, const ObsSink& obs,
                 const std::string& label, bool* parked) {
  std::map<std::string, certa::service::JobOutcome> latest;
  for (const certa::service::JobOutcome& outcome : runner.outcomes()) {
    latest[outcome.job_id] = outcome;
  }
  std::string done;
  *parked = false;
  for (const auto& [job_id, outcome] : latest) {
    if (outcome.state == certa::service::JobState::kParked) *parked = true;
    done += "DONE " + job_id + " " +
            certa::service::JobStateName(outcome.state) +
            " replayed=" + std::to_string(outcome.replayed_scores) +
            " fresh=" + std::to_string(outcome.fresh_scores) +
            " store=" + std::to_string(outcome.store_hits) +
            " peer=" + std::to_string(outcome.store_peer_hits);
    if (!outcome.error.empty()) done += " (" + outcome.error + ")";
    done += "\n";
  }
  std::cout << done << std::flush;
  const certa::service::JobRunner::Counters counters = runner.counters();
  std::cerr << label + "submitted=" + std::to_string(counters.submitted) +
                   " accepted=" + std::to_string(counters.accepted) +
                   " rejected_queue_full=" +
                   std::to_string(counters.rejected_queue_full) +
                   " rejected_deadline=" +
                   std::to_string(counters.rejected_deadline) +
                   " completed=" + std::to_string(counters.completed) +
                   " parked=" + std::to_string(counters.parked) +
                   " failed=" + std::to_string(counters.failed) + "\n";
  return obs.Flush();
}

/// The one serving process behind `--listen`: each fleet worker runs
/// it in its forked child, and a single process calls it in-process as
/// a fleet of one. It locks its partition, builds the runner, the
/// stream coordinator and the socket server, re-admits the partition's
/// non-terminal jobs, and only then reports ready: READY on a fleet
/// worker's control channel, or a `LISTENING host:port` line (tests and
/// scripts scrape the port when --listen 0 asked for an ephemeral one).
/// A SIGINT/SIGTERM closes the listener, parks running jobs resumable,
/// and ends the process through FinishServe. Exit code 3 when a signal
/// stopped a single process, or when a fleet worker leaves parked work
/// (the master exits 3 iff some worker did); else 0.
int ServeWorker(const ServeConfig& config, const ObsSink& obs,
                const certa::service::WorkerLaunch& launch,
                const std::vector<std::string>& peers) {
  const bool fleet = IsFleetWorker(launch);
  const std::string label = ProcessLabel(launch);
  certa::persist::DirLock partition_lock;
  certa::service::JobRunnerOptions runner_options;
  if (!SetUpServeRunner(config, obs, launch, &partition_lock,
                        &runner_options)) {
    return 1;
  }

  // --stream-dir turns on the v2 streaming verbs. The directory is
  // shared like the score store: this process appends record ops to
  // its own slot's WAL and absorbs its siblings' WALs read-only, so an
  // upsert acked by any worker reaches every worker's overlays; the
  // runner's dataset hook materializes jobs from the live overlays.
  certa::service::StreamCoordinator coordinator;
  if (!launch.stream_dir.empty()) {
    certa::service::StreamCoordinator::Options stream_options;
    stream_options.dir = launch.stream_dir;
    stream_options.slot = launch.slot;
    stream_options.metrics = obs.metrics.get();
    std::string stream_error;
    if (!coordinator.Open(stream_options, &stream_error)) {
      std::cerr << label << "cannot open stream dir " << launch.stream_dir
                << ": " << stream_error << "\n";
      return 1;
    }
    runner_options.dataset_provider =
        [&coordinator](const certa::api::ExplainRequest& request,
                       certa::data::Dataset* dataset, std::string* error) {
          return coordinator.ProvideDataset(request, dataset, error);
        };
  }

  certa::net::NetServerOptions server_options;
  server_options.host = config.host;
  server_options.port = launch.listen_port;
  server_options.max_connections = config.max_connections;
  server_options.max_write_buffer =
      static_cast<size_t>(config.max_write_buffer);
  server_options.reuse_port = fleet && launch.inherited_listen_fd < 0;
  server_options.inherited_listen_fd = launch.inherited_listen_fd;
  server_options.peer_job_roots = peers;
  server_options.stop_flag = certa::service::ShutdownFlag();
  server_options.stream = coordinator.is_open() ? &coordinator : nullptr;
  server_options.fleet_workers = fleet ? static_cast<int>(peers.size()) : 1;
  server_options.runner = std::move(runner_options);
  certa::net::NetServer server(std::move(server_options));
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << label << error << "\n";
    return 1;
  }
  ResumeSweep(&server.runner(), launch);

  std::unique_ptr<certa::service::WorkerControl> control;
  if (fleet) {
    control = std::make_unique<certa::service::WorkerControl>(
        launch.control_fd, config.stats_interval_ms);
    control->SendReady(server.port());
    certa::service::WorkerControl::Hooks hooks;
    hooks.on_adopt = [&server, label](const std::string& dir) {
      const int adopted = server.runner().AdoptParked(dir);
      std::cerr << label << "adopted " << adopted << " job(s) from " << dir
                << "\n";
    };
    hooks.on_fleet = [&server](const std::string& fleet_json) {
      server.SetFleetStats(fleet_json);
    };
    hooks.stats_provider = [&server, slot = launch.slot] {
      return WorkerStatsJson(slot, server.runner().counters(),
                             server.stats(), server.runner().store());
    };
    control->Start(std::move(hooks));
  } else {
    std::cout << "LISTENING " << config.host << ":" << server.port() << "\n"
              << std::flush;
  }
  server.Run();
  if (control != nullptr) control->Stop();
  // Final checkpoint: the next process in this slot replays only WAL
  // tails.
  coordinator.Close();

  bool parked = false;
  if (!FinishServe(server.runner(), obs, label, &parked)) return 1;
  const bool stopped = fleet ? parked : certa::service::ShutdownRequested();
  return stopped ? certa::service::kInterruptedExitCode : 0;
}

/// Fleet mode: `--listen` with `--workers N` (N >= 2) forks N worker
/// processes that each run ServeWorker over a private job partition
/// (`<job-root>/w<slot>`) plus ONE shared `--store-dir`: every worker
/// appends paid scores to its own segment stream inside the directory
/// and absorbs its siblings' streams read-only, so a score any worker
/// pays is a hit for the whole fleet (`peer_hits` in the stats counts
/// the cross-worker reuse). Workers share the TCP port (SO_REUSEPORT,
/// or one inherited listener as fallback) and write their metrics and
/// trace files into their partitions. The master process only
/// supervises: crash restarts with backoff, flap-capped abandonment
/// with partition adoption, SIGHUP rolling restart, SIGTERM fleet
/// drain, stats fan-in. See docs/SERVICE.md.
int ServeFleet(const Args& args, ServeConfig config, const ObsSink& obs) {
  certa::service::SupervisorOptions sup;
  if (!ParseIntFlag(args, "restart-backoff-ms", 200LL, 1LL,
                    &sup.restart_backoff_initial_ms) ||
      !ParseIntFlag(args, "flap-limit", 5, 1, &sup.flap_limit) ||
      !ParseIntFlag(args, "stable-after-ms", 2000LL, 1LL,
                    &sup.stable_after_ms) ||
      !ParseIntFlag(args, "shutdown-grace-ms", 30000LL, 100LL,
                    &sup.shutdown_grace_ms) ||
      !ParseIntFlag(args, "stats-interval-ms", 200LL, 20LL,
                    &config.stats_interval_ms)) {
    return 2;
  }
  sup.restart_backoff_max_ms =
      std::max(sup.restart_backoff_max_ms, sup.restart_backoff_initial_ms);
  sup.host = config.host;
  sup.port = config.port;
  sup.stats_interval_ms = config.stats_interval_ms;
  sup.workers = config.runner.workers;
  sup.job_root = config.runner.job_root;
  sup.store_dir = config.runner.store_dir;
  sup.stream_dir = config.stream_dir;
  if (const char* env = std::getenv("CERTA_FLEET_NO_REUSEPORT")) {
    sup.disable_reuse_port = env[0] != '\0' && std::string_view(env) != "0";
  }

  // One fleet per job root / store root — and the lock fds must not
  // leak into workers (flock is shared across fork, so an inheriting
  // child would keep the root "busy" after the master died). The
  // master's store lock is the whole-directory ".lock", which is what
  // a single-process serve or durable explain would take: a fleet and
  // a single-process writer can never share the directory, while the
  // fleet's own workers lock only their streams (".lock-w<slot>") and
  // so coexist under it.
  certa::persist::DirLock root_lock;
  certa::persist::DirLock store_lock;
  std::string lock_error;
  if (!root_lock.Acquire(sup.job_root, &lock_error)) {
    std::cerr << "error: job root " << sup.job_root
              << " is busy: " << lock_error << "\n";
    return 1;
  }
  sup.close_in_child.push_back(root_lock.fd());
  if (!sup.store_dir.empty()) {
    if (!store_lock.Acquire(sup.store_dir, &lock_error)) {
      std::cerr << "error: store dir " << sup.store_dir
                << " is busy: " << lock_error << "\n";
      return 1;
    }
    sup.close_in_child.push_back(store_lock.fd());
  }

  std::vector<std::string> partitions;
  for (int slot = 0; slot < sup.workers; ++slot) {
    partitions.push_back(sup.job_root + "/w" + std::to_string(slot));
  }
  auto worker_main = [&](const certa::service::WorkerLaunch& launch) {
    // Each worker records into its own sinks and writes them into its
    // partition: <job-root>/w<slot>/metrics.json and trace.json.
    ObsSink worker_obs;
    if (obs.metrics != nullptr) {
      worker_obs.metrics = std::make_unique<certa::obs::MetricsRegistry>();
      worker_obs.metrics_path = launch.partition_root + "/metrics.json";
    }
    if (obs.trace != nullptr) {
      worker_obs.trace = std::make_unique<certa::obs::TraceRecorder>();
      worker_obs.trace_path = launch.partition_root + "/trace.json";
    }
    return ServeWorker(config, worker_obs, launch, partitions);
  };

  certa::service::Supervisor supervisor(std::move(sup));
  std::string error;
  if (!supervisor.Start(worker_main, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cerr << "serve: fleet of " << config.runner.workers
            << " worker(s) on " << config.host << ":" << supervisor.port()
            << " ("
            << (supervisor.reuse_port_mode() ? "SO_REUSEPORT"
                                             : "inherited listener")
            << ")\n";
  return supervisor.Run();
}

/// `certa serve` without --listen: one ACCEPT/REJECT line per job line
/// of stdin (or --jobs FILE), in input order, over a runner set up like
/// every other serving process's. EOF drains; a signal parks running
/// jobs with flushed state and exits 3.
int ServeJobLines(const Args& args, const ServeConfig& config,
                  const ObsSink& obs) {
  std::istream* in = &std::cin;
  std::ifstream jobs_file;
  if (args.Has("jobs")) {
    jobs_file.open(args.Get("jobs", ""));
    if (!jobs_file) {
      std::cerr << "error: cannot open jobs file " << args.Get("jobs", "")
                << "\n";
      return 1;
    }
    in = &jobs_file;
  }
  const certa::service::WorkerLaunch launch = SingleProcessLaunch(config);
  certa::persist::DirLock job_root_lock;
  certa::service::JobRunnerOptions options;
  if (!SetUpServeRunner(config, obs, launch, &job_root_lock, &options)) {
    return 1;
  }
  certa::service::JobRunner runner(options);
  ResumeSweep(&runner, launch);

  // '#' comments and blank lines are skipped.
  std::string line;
  while (!certa::service::ShutdownRequested() && std::getline(*in, line)) {
    const std::string_view trimmed = certa::StripAsciiWhitespace(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    // Job lines share the api::ExplainRequest field set; legacy keys
    // ("data", "pair-index") still parse as aliases.
    certa::service::JobSpec spec;
    std::string parse_error;
    if (!certa::api::ParseKeyValueLine(trimmed, &spec, &parse_error)) {
      std::cout << "REJECT - " << parse_error << "\n" << std::flush;
      continue;
    }
    certa::service::JobRunner::SubmitResult submitted =
        runner.Submit(std::move(spec));
    if (submitted.accepted) {
      std::cout << "ACCEPT " << submitted.job_id << "\n" << std::flush;
    } else {
      std::cout << "REJECT - " << submitted.reason << "\n" << std::flush;
    }
  }

  const bool interrupted = certa::service::ShutdownRequested();
  runner.Shutdown(/*drain=*/!interrupted);
  bool parked = false;
  if (!FinishServe(runner, obs, ProcessLabel(launch), &parked)) return 1;
  return interrupted ? certa::service::kInterruptedExitCode : 0;
}

int CmdServe(const Args& args) {
  if (args.Has("resume")) {
    // One parked job dir: the checkpoint carries the whole spec, and
    // the job runs through the same single-job path as
    // `explain --job-dir`.
    const std::string job_dir = args.Get("resume", "");
    certa::persist::JobCheckpoint checkpoint;
    if (!certa::persist::LoadCheckpoint(
            certa::persist::CheckpointPathInDir(job_dir), &checkpoint)) {
      std::cerr << "error: no readable checkpoint in " << job_dir << "\n";
      return 1;
    }
    if (checkpoint.state == "complete") {
      std::cout << "job " << checkpoint.request.id
                << " already complete; result at "
                << certa::persist::ResultPathInDir(job_dir) << "\n";
      return 0;
    }
    return RunSingleJob(args, certa::service::SpecFromCheckpoint(checkpoint),
                        job_dir);
  }

  ServeConfig config;
  certa::service::JobRunnerOptions& options = config.runner;
  options.job_root = args.Get("job-root", "jobs");
  int queue = 0;
  if (!ParseIntFlag(args, "checkpoint-every", 256, 1,
                    &options.checkpoint_every) ||
      !ParseIntFlag(args, "queue", 8, 1, &queue) ||
      !ParseIntFlag(args, "workers", 1, 1, &options.workers) ||
      !ParseIntFlag(args, "deadline-ms", 0LL, 0LL,
                    &options.default_deadline_ms) ||
      !ParseIntFlag(args, "stall-timeout-ms", 0LL, 0LL,
                    &options.stall_timeout_ms) ||
      !ParseIntFlag(args, "stats-every", 0, 0, &options.stats_every) ||
      !ParseIntFlag(args, "listen", 0, 0, &config.port) ||
      !ParseIntFlag(args, "max-connections", 64, 1,
                    &config.max_connections) ||
      !ParseIntFlag(args, "max-write-buffer", 1 << 20, 64,
                    &config.max_write_buffer)) {
    return 2;
  }
  options.queue_capacity = static_cast<size_t>(queue);
  options.store_dir = args.Get("store-dir", "");
  options.use_candidate_index = !args.Has("no-index");
  config.host = args.Get("host", "127.0.0.1");
  config.stream_dir = args.Get("stream-dir", "");
  // Stats export: --stats-every N snapshots the registry after every N
  // terminal jobs (and always once at shutdown); --metrics-out names
  // the file (default <job-root>/metrics.json).
  ObsSink obs;
  obs.InitFromArgs(args);
  if (options.stats_every > 0 && obs.metrics == nullptr) {
    obs.metrics_path = options.job_root + "/metrics.json";
    obs.metrics = std::make_unique<certa::obs::MetricsRegistry>();
  }

  if (!args.Has("listen")) return ServeJobLines(args, config, obs);
  if (options.workers >= 2) {
    // Fleet mode forks per-worker processes; the master takes the root
    // locks itself and each worker locks its own partition.
    return ServeFleet(args, std::move(config), obs);
  }
  return ServeWorker(config, obs, SingleProcessLaunch(config), {});
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return Usage();
  // Durable modes trap SIGINT/SIGTERM from the very start, so a signal
  // during dataset load / training still parks instead of killing.
  if (args.command == "serve" ||
      (args.command == "explain" && args.Has("job-dir"))) {
    certa::service::InstallShutdownHandlers();
  }
  if (args.command == "datasets") return CmdDatasets();
  if (args.command == "train") return CmdTrain(args);
  if (args.command == "explain") return CmdExplain(args);
  if (args.command == "export") return CmdExport(args);
  if (args.command == "profile") return CmdProfile(args);
  if (args.command == "rules") return CmdRules(args);
  if (args.command == "global") return CmdGlobal(args);
  if (args.command == "serve") return CmdServe(args);
  return Usage();
}
