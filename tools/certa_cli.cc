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
//       Durable job service: reads job lines from stdin, answers
//       ACCEPT/REJECT per admission control, runs each job crash-safely
//       in its own job dir (see docs/OPERATIONS.md).
//   certa serve --listen PORT [--host ADDR] [--max-connections N] ...
//       Same durable service behind a TCP socket speaking the
//       line-delimited JSON protocol of docs/SERVICE.md (submit /
//       status / result / cancel / stats, streamed progress events).
//       Pair with tools/certa_client.
//   certa serve --resume JOBDIR
//       Resume a single interrupted/parked job from its directory.
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
         "  certa serve   --listen PORT [--host ADDR]\n"
         "                [--max-connections N] [--stream-dir DIR]\n"
         "                [...same serve flags]\n"
         "                (--workers K >= 2 forks a fleet; --store-dir and\n"
         "                 --stream-dir are each one directory shared by\n"
         "                 every worker; --stream-dir enables the v2\n"
         "                 streaming verbs: upsert / remove / match /\n"
         "                 invalidations)\n"
         "  certa serve   --resume JOBDIR [--checkpoint-every N]\n"
         "                [--store-dir DIR]\n"
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

/// Opens the cross-job prediction store named by --store-dir. Returns
/// nullptr when the flag is absent or the directory cannot be opened;
/// an open failure warns and the command runs without the store — the
/// result is byte-identical either way, only the model-call count
/// changes (docs/PERSISTENCE.md).
std::unique_ptr<certa::persist::ScoreStore> OpenStoreFromArgs(
    const Args& args) {
  if (!args.Has("store-dir")) return nullptr;
  auto store = std::make_unique<certa::persist::ScoreStore>();
  if (!store->Open(args.Get("store-dir", ""))) {
    std::cerr << "warning: cannot open score store in "
              << args.Get("store-dir", "") << "; running without it\n";
    return nullptr;
  }
  return store;
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

bool LoadData(const Args& args, Dataset* dataset) {
  std::string code = args.Get("dataset", "AB");
  if (args.Has("data")) {
    if (!certa::data::LoadDatasetDirectory(args.Get("data", ""), code,
                                           dataset)) {
      std::cerr << "error: cannot load dataset directory "
                << args.Get("data", "") << "\n";
      return false;
    }
    return true;
  }
  bool known = false;
  for (const std::string& candidate : certa::data::BenchmarkCodes()) {
    if (candidate == code) known = true;
  }
  if (!known) {
    std::cerr << "error: unknown dataset code " << code << "\n";
    return false;
  }
  *dataset = certa::data::MakeBenchmark(code);
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

/// LoadData for the request path: same lookup, keyed off the parsed
/// request instead of raw flags.
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
  ObsSink obs;
  obs.InitFromArgs(args);
  if (args.Has("job-dir")) {
    // Durable path: scores are write-ahead journaled and progress
    // checkpointed inside --job-dir. Re-running the same command after
    // a crash (or ^C) resumes without re-paying model calls and yields
    // a bit-identical result.
    if (args.Has("model-file")) {
      std::cerr << "error: --job-dir resumes by retraining --model NAME "
                   "deterministically; --model-file is not supported\n";
      return 1;
    }
    certa::service::InstallShutdownHandlers();
    certa::service::JobSpec spec = request;
    spec.id = "cli";
    certa::service::DurableRunOptions run_options;
    if (!ParseIntFlag(args, "checkpoint-every", 256, 1,
                      &run_options.checkpoint_every)) {
      return 2;
    }
    run_options.cancel = certa::service::ShutdownFlag();
    run_options.cancelled_state = "interrupted";
    run_options.metrics = obs.metrics.get();
    run_options.trace = obs.trace.get();
    std::unique_ptr<certa::persist::ScoreStore> store =
        OpenStoreFromArgs(args);
    run_options.store = store.get();
    run_options.use_candidate_index = !args.Has("no-index");
    certa::service::JobOutcome outcome = certa::service::RunDurableExplain(
        spec, args.Get("job-dir", ""), run_options);
    if (store != nullptr) store->Sync();
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
    } else {
      std::cout << "durable explain complete ("
                << (outcome.resumed ? "resumed: " : "fresh run: ")
                << outcome.replayed_scores << " scores replayed, "
                << outcome.fresh_scores << " fresh";
      if (store != nullptr) {
        std::cout << ", " << outcome.store_hits << " store hits";
      }
      std::cout << "); result at "
                << certa::persist::ResultPathInDir(outcome.job_dir) << "\n";
    }
    return 0;
  }
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

/// Fleet mode: `--listen` with `--workers N` (N >= 2) forks N worker
/// processes that each run ServeOverSocket's machinery over a private
/// job partition (`<job-root>/w<slot>`) plus ONE shared `--store-dir`:
/// every worker appends paid scores to its own segment stream inside
/// the directory and absorbs its siblings' streams read-only, so a
/// score any worker pays is a hit for the whole fleet (`peer_hits` in
/// the stats counts the cross-worker reuse). Workers share the TCP
/// port (SO_REUSEPORT, or one inherited listener as fallback). The
/// master process only supervises: crash restarts with backoff,
/// flap-capped abandonment with partition adoption, SIGHUP rolling
/// restart, SIGTERM fleet drain, stats fan-in. See docs/SERVICE.md.
int ServeFleet(const Args& args,
               certa::service::JobRunnerOptions runner_options) {
  certa::service::SupervisorOptions sup;
  sup.host = args.Get("host", "127.0.0.1");
  int max_connections = 0;
  int max_write_buffer = 0;
  if (!ParseIntFlag(args, "listen", 0, 0, &sup.port) ||
      !ParseIntFlag(args, "max-connections", 64, 1, &max_connections) ||
      !ParseIntFlag(args, "max-write-buffer", 1 << 20, 64,
                    &max_write_buffer) ||
      !ParseIntFlag(args, "restart-backoff-ms", 200LL, 1LL,
                    &sup.restart_backoff_initial_ms) ||
      !ParseIntFlag(args, "flap-limit", 5, 1, &sup.flap_limit) ||
      !ParseIntFlag(args, "stable-after-ms", 2000LL, 1LL,
                    &sup.stable_after_ms) ||
      !ParseIntFlag(args, "shutdown-grace-ms", 30000LL, 100LL,
                    &sup.shutdown_grace_ms) ||
      !ParseIntFlag(args, "stats-interval-ms", 200LL, 20LL,
                    &sup.stats_interval_ms)) {
    return 2;
  }
  sup.restart_backoff_max_ms =
      std::max(sup.restart_backoff_max_ms, sup.restart_backoff_initial_ms);
  sup.workers = runner_options.workers;
  sup.job_root = runner_options.job_root;
  sup.store_dir = runner_options.store_dir;
  sup.stream_dir = args.Get("stream-dir", "");
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
  const std::string host = sup.host;
  const long long stats_interval_ms = sup.stats_interval_ms;
  const int fleet_workers = sup.workers;

  auto worker_main = [&](const certa::service::WorkerLaunch& launch) -> int {
    certa::service::JobRunnerOptions worker_runner = runner_options;
    worker_runner.workers = 1;
    worker_runner.job_root = launch.partition_root;
    // The whole fleet shares launch.store_dir; this worker's slot picks
    // the one segment stream it may write (and locks only that stream,
    // so siblings coexist while a second fleet cannot steal a slot).
    worker_runner.store_dir = launch.store_dir;
    worker_runner.store_stream_slot = launch.slot;
    worker_runner.job_id_prefix = "w" + std::to_string(launch.slot) + "-";
    worker_runner.store_exclusive_lock = true;
    if (!worker_runner.stats_path.empty()) {
      worker_runner.stats_path = launch.partition_root + "/metrics.json";
    }

    certa::persist::DirLock partition_lock;
    std::string error;
    if (!partition_lock.Acquire(launch.partition_root, &error)) {
      std::cerr << "worker " << launch.slot << ": partition busy: " << error
                << "\n";
      return 1;
    }

    // Shared stream directory, same discipline as the score store: this
    // worker appends record ops to its own ops-w<slot>.wal and absorbs
    // the siblings' streams read-only, so an upsert acked by any worker
    // reaches every worker's overlays.
    certa::service::StreamCoordinator coordinator;
    if (!launch.stream_dir.empty()) {
      certa::service::StreamCoordinator::Options stream_options;
      stream_options.dir = launch.stream_dir;
      stream_options.slot = launch.slot;
      stream_options.metrics = worker_runner.metrics;
      std::string stream_error;
      if (!coordinator.Open(stream_options, &stream_error)) {
        std::cerr << "worker " << launch.slot << ": cannot open stream dir "
                  << launch.stream_dir << ": " << stream_error << "\n";
        return 1;
      }
      worker_runner.dataset_provider =
          [&coordinator](const certa::api::ExplainRequest& request,
                         certa::data::Dataset* dataset,
                         std::string* provider_error) {
            return coordinator.ProvideDataset(request, dataset,
                                              provider_error);
          };
    }

    certa::net::NetServerOptions server_options;
    server_options.host = host;
    server_options.port = launch.listen_port;
    server_options.max_connections = max_connections;
    server_options.max_write_buffer = static_cast<size_t>(max_write_buffer);
    server_options.reuse_port = launch.inherited_listen_fd < 0;
    server_options.inherited_listen_fd = launch.inherited_listen_fd;
    server_options.peer_job_roots = partitions;
    server_options.stop_flag = certa::service::ShutdownFlag();
    server_options.drain_on_stop_flag = false;
    server_options.stream = coordinator.is_open() ? &coordinator : nullptr;
    server_options.fleet_workers = fleet_workers;
    server_options.runner = std::move(worker_runner);

    certa::net::NetServer server(std::move(server_options));
    if (!server.Start(&error)) {
      std::cerr << "worker " << launch.slot << ": " << error << "\n";
      return 1;
    }

    // Resume sweep: whatever a predecessor in this slot left parked on
    // disk (crash or rolling restart) is re-admitted before READY.
    const int resumed = server.runner().AdoptParked(launch.partition_root);
    if (resumed > 0) {
      std::cerr << "worker " << launch.slot << ": resuming " << resumed
                << " parked job(s)\n";
    }

    certa::service::WorkerControl control(launch.control_fd,
                                          stats_interval_ms);
    control.SendReady(server.port());
    certa::service::WorkerControl::Hooks hooks;
    hooks.on_adopt = [&server, slot = launch.slot](const std::string& dir) {
      const int adopted = server.runner().AdoptParked(dir);
      std::cerr << "worker " << slot << ": adopted " << adopted
                << " job(s) from " << dir << "\n";
    };
    hooks.on_fleet = [&server](const std::string& fleet_json) {
      server.SetFleetStats(fleet_json);
    };
    hooks.stats_provider = [&server, slot = launch.slot] {
      return WorkerStatsJson(slot, server.runner().counters(),
                             server.stats(), server.runner().store());
    };
    control.Start(std::move(hooks));

    server.Run();
    control.Stop();
    // Final checkpoint: the slot's successor replays only WAL tails.
    coordinator.Close();

    // DONE lines, one write per worker so concurrent drains don't
    // interleave mid-line. A job that parked and then completed after
    // adoption reports per-outcome here; the exit code judges only the
    // latest state of each job this worker owned at the end.
    std::string done;
    bool any_parked = false;
    std::map<std::string, certa::service::JobOutcome> latest;
    for (const certa::service::JobOutcome& outcome :
         server.runner().outcomes()) {
      latest[outcome.job_id] = outcome;
    }
    for (const auto& [job_id, outcome] : latest) {
      if (outcome.state == certa::service::JobState::kParked) {
        any_parked = true;
      }
      done += "DONE " + job_id + " " +
              std::string(certa::service::JobStateName(outcome.state)) +
              " replayed=" + std::to_string(outcome.replayed_scores) +
              " fresh=" + std::to_string(outcome.fresh_scores) +
              " store=" + std::to_string(outcome.store_hits) +
              " peer=" + std::to_string(outcome.store_peer_hits);
      if (!outcome.error.empty()) done += " (" + outcome.error + ")";
      done += "\n";
    }
    std::cout << done << std::flush;
    return any_parked ? certa::service::kInterruptedExitCode : 0;
  };

  certa::service::Supervisor supervisor(std::move(sup));
  std::string error;
  if (!supervisor.Start(worker_main, &error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cerr << "serve: fleet of " << runner_options.workers << " worker(s) on "
            << host << ":" << supervisor.port() << " ("
            << (supervisor.reuse_port_mode() ? "SO_REUSEPORT"
                                             : "inherited listener")
            << ")\n";
  return supervisor.Run();
}

/// Socket front-end: the same runner, behind `--listen PORT` speaking
/// the docs/SERVICE.md line-delimited JSON protocol. A SIGINT/SIGTERM
/// closes the listener, parks running jobs resumable, and exits with
/// kInterruptedExitCode — identical drain semantics to the stdin loop.
int ServeOverSocket(const Args& args,
                    certa::service::JobRunnerOptions runner_options,
                    const ObsSink& obs) {
  certa::net::NetServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  int max_write_buffer = 0;
  if (!ParseIntFlag(args, "listen", 0, 0, &options.port) ||
      !ParseIntFlag(args, "max-connections", 64, 1,
                    &options.max_connections) ||
      !ParseIntFlag(args, "max-write-buffer", 1 << 20, 64,
                    &max_write_buffer)) {
    return 2;
  }
  options.max_write_buffer = static_cast<size_t>(max_write_buffer);
  options.stop_flag = certa::service::ShutdownFlag();

  // --stream-dir turns on the v2 streaming verbs: one coordinator owns
  // the stream directory (slot 0 — single-process serving), the server
  // routes upsert/remove/match/invalidations through it, and the
  // runner's dataset hook materializes jobs from the live overlays so
  // explanations see every acked record op.
  certa::service::StreamCoordinator coordinator;
  if (args.Has("stream-dir")) {
    certa::service::StreamCoordinator::Options stream_options;
    stream_options.dir = args.Get("stream-dir", "");
    stream_options.slot = 0;
    stream_options.metrics = obs.metrics.get();
    std::string stream_error;
    if (!coordinator.Open(stream_options, &stream_error)) {
      std::cerr << "error: cannot open stream dir " << stream_options.dir
                << ": " << stream_error << "\n";
      return 1;
    }
    options.stream = &coordinator;
    runner_options.dataset_provider =
        [&coordinator](const certa::api::ExplainRequest& request,
                       certa::data::Dataset* dataset, std::string* error) {
          return coordinator.ProvideDataset(request, dataset, error);
        };
  }

  options.runner = std::move(runner_options);
  certa::net::NetServer server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  // Machine-parseable (tests and scripts scrape the port when
  // --listen 0 asked for an ephemeral one).
  std::cout << "LISTENING " << args.Get("host", "127.0.0.1") << ":"
            << server.port() << "\n"
            << std::flush;
  server.Run();
  // Final checkpoint: the next serve replays only WAL tails.
  coordinator.Close();

  const bool interrupted = certa::service::ShutdownRequested();
  for (const certa::service::JobOutcome& outcome :
       server.runner().outcomes()) {
    std::cout << "DONE " << outcome.job_id << " "
              << certa::service::JobStateName(outcome.state)
              << " replayed=" << outcome.replayed_scores
              << " fresh=" << outcome.fresh_scores;
    if (!outcome.error.empty()) std::cout << " (" << outcome.error << ")";
    std::cout << "\n";
  }
  const certa::service::JobRunner::Counters counters =
      server.runner().counters();
  const certa::net::ServerStats net_stats = server.stats();
  std::cerr << "serve: submitted=" << counters.submitted
            << " accepted=" << counters.accepted
            << " rejected_queue_full=" << counters.rejected_queue_full
            << " rejected_deadline=" << counters.rejected_deadline
            << " completed=" << counters.completed
            << " parked=" << counters.parked
            << " failed=" << counters.failed
            << " connections=" << net_stats.connections_accepted
            << " frames=" << net_stats.frames_in
            << " events_dropped=" << net_stats.events_dropped << "\n";
  if (!obs.Flush()) return 1;
  return interrupted ? certa::service::kInterruptedExitCode : 0;
}

int CmdServe(const Args& args) {
  certa::service::InstallShutdownHandlers();
  int checkpoint_every = 0;
  if (!ParseIntFlag(args, "checkpoint-every", 256, 1, &checkpoint_every)) {
    return 2;
  }

  if (args.Has("resume")) {
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
    certa::service::DurableRunOptions run_options;
    run_options.checkpoint_every = checkpoint_every;
    run_options.cancel = certa::service::ShutdownFlag();
    run_options.cancelled_state = "interrupted";
    std::unique_ptr<certa::persist::ScoreStore> store =
        OpenStoreFromArgs(args);
    run_options.store = store.get();
    run_options.use_candidate_index = !args.Has("no-index");
    certa::service::JobOutcome outcome = certa::service::RunDurableExplain(
        certa::service::SpecFromCheckpoint(checkpoint), job_dir, run_options);
    if (store != nullptr) store->Sync();
    if (outcome.state == certa::service::JobState::kFailed) {
      std::cerr << "error: " << outcome.error << "\n";
      return 1;
    }
    if (outcome.state == certa::service::JobState::kParked) {
      std::cerr << "interrupted again: state flushed in " << outcome.job_dir
                << "\n";
      return certa::service::kInterruptedExitCode;
    }
    std::cout << "resumed job " << outcome.job_id << " to completion ("
              << outcome.replayed_scores << " scores replayed, "
              << outcome.fresh_scores << " fresh); result at "
              << certa::persist::ResultPathInDir(outcome.job_dir) << "\n";
    return 0;
  }

  certa::service::JobRunnerOptions options;
  options.job_root = args.Get("job-root", "jobs");
  int queue = 0;
  if (!ParseIntFlag(args, "queue", 8, 1, &queue) ||
      !ParseIntFlag(args, "workers", 1, 1, &options.workers) ||
      !ParseIntFlag(args, "deadline-ms", 0LL, 0LL,
                    &options.default_deadline_ms) ||
      !ParseIntFlag(args, "stall-timeout-ms", 0LL, 0LL,
                    &options.stall_timeout_ms) ||
      !ParseIntFlag(args, "stats-every", 0, 0, &options.stats_every)) {
    return 2;
  }
  options.queue_capacity = static_cast<size_t>(queue);
  options.checkpoint_every = checkpoint_every;
  options.store_dir = args.Get("store-dir", "");
  options.use_candidate_index = !args.Has("no-index");
  // Stats export: --stats-every N snapshots the registry after every N
  // terminal jobs (and always once at shutdown); --metrics-out names
  // the file (default <job-root>/metrics.json).
  ObsSink obs;
  obs.InitFromArgs(args);
  if (options.stats_every > 0 && obs.metrics == nullptr) {
    obs.metrics_path = options.job_root + "/metrics.json";
    obs.metrics = std::make_unique<certa::obs::MetricsRegistry>();
  }
  options.metrics = obs.metrics.get();
  options.trace = obs.trace.get();
  options.stats_every = std::max(options.stats_every, 0);
  options.stats_path = obs.metrics_path;

  if (args.Has("listen") && options.workers >= 2) {
    // Fleet mode forks per-worker processes; it takes its own root
    // locks (a lock acquired here would conflict with the master's).
    return ServeFleet(args, std::move(options));
  }

  // One serve process per job root: a second `certa serve` pointed at
  // the same namespace fails fast instead of corrupting it.
  certa::persist::DirLock job_root_lock;
  std::string lock_error;
  if (!job_root_lock.Acquire(options.job_root, &lock_error)) {
    std::cerr << "error: job root " << options.job_root
              << " is busy: " << lock_error << "\n";
    return 1;
  }
  options.store_exclusive_lock = true;

  if (args.Has("listen")) {
    return ServeOverSocket(args, std::move(options), obs);
  }

  certa::service::JobRunner runner(options);

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

  // One ACCEPT/REJECT line per job line, in input order. '#' comments
  // and blank lines are skipped.
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

  // EOF drains; a signal parks running jobs with flushed state instead.
  const bool interrupted = certa::service::ShutdownRequested();
  runner.Shutdown(/*drain=*/!interrupted);
  for (const certa::service::JobOutcome& outcome : runner.outcomes()) {
    std::cout << "DONE " << outcome.job_id << " "
              << certa::service::JobStateName(outcome.state)
              << " replayed=" << outcome.replayed_scores
              << " fresh=" << outcome.fresh_scores;
    if (!outcome.error.empty()) std::cout << " (" << outcome.error << ")";
    std::cout << "\n";
  }
  const certa::service::JobRunner::Counters counters = runner.counters();
  std::cerr << "serve: submitted=" << counters.submitted
            << " accepted=" << counters.accepted
            << " rejected_queue_full=" << counters.rejected_queue_full
            << " rejected_deadline=" << counters.rejected_deadline
            << " completed=" << counters.completed
            << " parked=" << counters.parked
            << " failed=" << counters.failed << "\n";
  if (!obs.Flush()) return 1;
  return interrupted ? certa::service::kInterruptedExitCode : 0;
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
