// The in-process side: re-runs every served request, byte-checks the
// served answers against it, and turns the recorded client timings
// and the traced replay into the run's metrics (replay.json).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "data/dataset.h"
#include "loadgen.h"
#include "net/wire.h"
#include "service/job_runner.h"
#include "text/simd.h"
#include "traced.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/json_writer.h"

namespace certa::e2ebench {
namespace {

namespace fs = std::filesystem;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = 0;
};

struct Check {
  std::string name;
  long long checked = 0;
  long long failed = 0;
};

struct PhaseCount {
  long long sent = 0;
  long long ok = 0;
  std::map<std::string, long long> failures;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(position));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double frac = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * frac;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::string Strip(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

/// The result frame the server must have sent for `job_id`, as
/// (CRC-32, length) of its line without the newline.
std::pair<uint32_t, long long> ExpectedFrame(const std::string& job_id,
                                             const std::string& result_json) {
  std::string frame = net::ResultFrame(job_id, Strip(result_json));
  frame.pop_back();
  return {util::Crc32(frame), static_cast<long long>(frame.size())};
}

std::string Text(const JsonValue& value, const char* key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->is_string() ? field->string_value() : "";
}

long long Int(const JsonValue& value, const char* key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->is_number() ? field->int_value() : 0;
}

bool Bool(const JsonValue& value, const char* key) {
  const JsonValue* field = value.Find(key);
  return field != nullptr && field->is_bool() && field->bool_value();
}

/// Score store of one replay, in the same deployment as the server's:
/// a fresh single-writer store, or (explain_warm) a copy of the
/// fleet's prewarmed shared store opened as one more stream slot.
std::unique_ptr<persist::ScoreStore> OpenReplayStore(
    const Plan& plan, const std::string& server_dir,
    const std::string& root) {
  const std::string dir = root + "/store";
  persist::ScoreStore::Options options;
  options.exclusive_lock = true;
  if (plan.workload == "explain_warm") {
    std::error_code ec;
    fs::copy(server_dir + "/store", dir, fs::copy_options::recursive, ec);
    if (ec) return nullptr;
    options.stream_slot = 2;
  }
  auto store = std::make_unique<persist::ScoreStore>();
  if (!store->Open(dir, options)) return nullptr;
  return store;
}

struct Replay {
  Plan plan;
  std::string dir;
  std::string server_dir;
  bool trace = false;
  std::string corrupt;

  std::vector<JobRecord> jobs;  // setup + timed
  std::vector<JsonValue> ops, refreshes, probes;
  int64_t window_start = 0;

  /// Requests to re-run, in the order the server first ran them.
  std::vector<int> requests;
  std::map<int, std::string> reference_json;  // per request
  std::map<int, double> untraced_ms;
  std::map<int, TracedJob> traced;
  /// Served ok timed jobs per request (the traced means' weights).
  std::map<int, double> weight;

  std::deque<Check> checks;  // stable references for AddCheck
  std::map<std::string, PhaseCount> phases;
  std::vector<Metric> report;
  std::vector<Metric> layers;
  // In-process op replay (stream_mixed, traced): per-kind op times,
  // request-frame parse and reply-frame build times, and the dataset
  // provisions the refreshes trigger.
  std::map<char, std::vector<double>> op_us;
  std::vector<double> parse_us;
  std::vector<double> build_us;
  std::vector<double> provide_ms;
  std::string failure;

  bool stream() const { return plan.workload == "stream_mixed"; }

  Check& AddCheck(const std::string& name) {
    checks.push_back({name, 0, 0});
    return checks.back();
  }
  void Count(const std::string& phase, bool ok, const std::string& code) {
    PhaseCount& count = phases[phase];
    ++count.sent;
    if (ok) {
      ++count.ok;
    } else {
      ++count.failures[code.empty() ? "unknown" : code];
    }
  }

  bool Load();
  bool RunReferences();
  void CheckServedBytes(bool traced_run);
  void CheckWorkloadInvariants();
  void ExplainMetrics();
  void StreamMetrics();
  void ExplainLayers();
  void StreamLayers();
  void ReplayOps(service::StreamCoordinator* coordinator);
  void AddJobLayers(const std::vector<const JobRecord*>& served,
                    double net_per_job_ms);
  void Add(std::vector<Metric>* into, const std::string& name, double value,
           const std::string& unit, long long samples) {
    into->push_back({name, value, unit, samples});
  }
  std::string ToJson() const;
};

bool Replay::Load() {
  std::string error;
  if (!ReadPlan(dir + "/plan.json", &plan, &error)) {
    failure = error;
    return false;
  }
  std::vector<JsonValue> lines = ReadJsonLines(dir + "/setup.jsonl");
  for (JsonValue& line : ReadJsonLines(dir + "/drive.jsonl")) {
    lines.push_back(std::move(line));
  }
  for (const JsonValue& line : lines) {
    const std::string rec = Text(line, "rec");
    if (rec == "job") {
      jobs.push_back(JobRecordFromJson(line));
      Count(jobs.back().phase, jobs.back().ok, jobs.back().code);
    } else if (rec == "op") {
      Count(Text(line, "phase"), Bool(line, "ok"), Text(line, "code"));
      if (Text(line, "phase") == "timed") ops.push_back(line);
    } else if (rec == "refresh") {
      Count("refresh", Bool(line, "ok"), Text(line, "code"));
      refreshes.push_back(line);
    } else if (rec == "probe") {
      Count("check", Bool(line, "ok"), Text(line, "code"));
      probes.push_back(line);
    } else if (rec == "window") {
      window_start = Int(line, "start");
    }
  }
  std::vector<const JobRecord*> by_send;
  for (const JobRecord& job : jobs) {
    if (job.ok && job.req >= 0) by_send.push_back(&job);
    if (job.ok && job.phase == "timed") weight[job.req] += 1.0;
  }
  std::stable_sort(by_send.begin(), by_send.end(),
                   [](const JobRecord* a, const JobRecord* b) {
                     return a->send < b->send;
                   });
  std::set<int> seen;
  if (stream()) {
    for (size_t i = 0; i < plan.requests.size(); ++i) {
      requests.push_back(static_cast<int>(i));
      weight[static_cast<int>(i)] = 1.0;
    }
  } else {
    for (const JobRecord* job : by_send) {
      if (seen.insert(job->req).second) requests.push_back(job->req);
    }
  }
  return true;
}

/// One in-process copy of the server's state: job root, score store
/// and (stream_mixed) stream coordinator.
struct ReplayTarget {
  std::string root;
  std::unique_ptr<persist::ScoreStore> store;
  std::unique_ptr<service::StreamCoordinator> coordinator;
};

bool OpenTarget(const Plan& plan, const std::string& server_dir,
                const std::string& root, ReplayTarget* target,
                std::string* failure) {
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  target->root = root;
  target->store = OpenReplayStore(plan, server_dir, root);
  if (target->store == nullptr) {
    *failure = "cannot open the replay score store under " + root;
    return false;
  }
  if (plan.workload == "stream_mixed") {
    target->coordinator = std::make_unique<service::StreamCoordinator>();
    service::StreamCoordinator::Options options;
    options.dir = root + "/stream";
    std::string error;
    if (!target->coordinator->Open(options, &error)) {
      *failure = "cannot open the replay stream dir: " + error;
      return false;
    }
  }
  return true;
}

/// Re-runs every request in-process through the server's own
/// service::RunDurableExplain and, with tracing, right after it through
/// the traced composition — interleaved per request, so drift in the
/// machine's speed affects both alike.
bool Replay::RunReferences() {
  ReplayTarget plain;
  ReplayTarget traced_target;
  if (!OpenTarget(plan, server_dir, dir + "/replay/plain", &plain, &failure) ||
      (trace && !OpenTarget(plan, server_dir, dir + "/replay/traced",
                            &traced_target, &failure))) {
    return false;
  }
  Check& ran = AddCheck("replay_completes");
  for (int req : requests) {
    const api::ExplainRequest& spec = plan.requests[static_cast<size_t>(req)];
    const std::string job_name = "/jobs/r" + std::to_string(req);
    ++ran.checked;
    service::DurableRunOptions options;
    options.store = plain.store.get();
    if (plain.coordinator != nullptr) {
      service::StreamCoordinator* live = plain.coordinator.get();
      options.dataset_provider = [live](const api::ExplainRequest& request,
                                        data::Dataset* dataset,
                                        std::string* error) {
        return live->ProvideDataset(request, dataset, error);
      };
    }
    const int64_t start = NowNs();
    const service::JobOutcome outcome =
        service::RunDurableExplain(spec, plain.root + job_name, options);
    untraced_ms[req] = static_cast<double>(NowNs() - start) / 1e6;
    bool ok = outcome.state == service::JobState::kComplete;
    if (ok) reference_json[req] = outcome.result_json;
    if (trace) {
      TracedJob job = TracedRunDurableExplain(
          spec, traced_target.root + job_name, traced_target.store.get(),
          traced_target.coordinator.get());
      ok = ok && job.ok;
      traced[req] = std::move(job);
    }
    if (!ok) {
      ++ran.failed;
      std::fprintf(stderr, "replay of request %d failed: %s%s\n", req,
                   outcome.error.c_str(),
                   trace ? traced[req].error.c_str() : "");
    }
  }
  if (trace && stream()) {
    // The op schedule continues on the coordinator the seed jobs
    // registered their dependencies with, as on the server.
    ReplayOps(traced_target.coordinator.get());
  }
  for (ReplayTarget* target : {&plain, &traced_target}) {
    if (target->coordinator != nullptr) target->coordinator->Close();
  }
  return true;
}

void Replay::CheckServedBytes(bool traced_run) {
  Check& check = AddCheck(traced_run ? "traced_result_bytes_equal_served"
                                     : "result_bytes_equal_served");
  bool corrupted = false;
  for (const JobRecord& job : jobs) {
    if (!job.ok || job.req < 0) continue;
    ++check.checked;
    std::string reference;
    if (traced_run) {
      auto it = traced.find(job.req);
      if (it != traced.end()) reference = it->second.result_json;
    } else {
      auto it = reference_json.find(job.req);
      if (it != reference_json.end()) reference = it->second;
    }
    if (reference.empty()) {
      ++check.failed;
      continue;
    }
    if (corrupt == "result" && !corrupted) {
      reference[reference.size() / 2] ^= 1;
      corrupted = true;
    }
    const auto [crc, bytes] = ExpectedFrame(job.job_id, reference);
    if (crc != job.crc || bytes != job.bytes) ++check.failed;
  }
}

void Replay::CheckWorkloadInvariants() {
  if (plan.workload == "explain_warm") {
    Check& check = AddCheck("warm_terminal_fresh_scores_zero");
    for (const JobRecord& job : jobs) {
      if (!job.ok || job.phase != "timed") continue;
      long long fresh = job.fresh;
      if (corrupt == "fresh" && check.checked == 0) fresh = 1;
      ++check.checked;
      if (fresh != 0) ++check.failed;
    }
    if (trace) {
      Check& served = AddCheck("warm_store_serves_every_score");
      for (const auto& [req, job] : traced) {
        ++served.checked;
        if (job.times.pairs != 0 ||
            job.times.store_hits != job.times.cache_misses) {
          ++served.failed;
        }
      }
    }
  }
  if (!stream()) return;
  Check& matchable = AddCheck("acked_upserts_matchable");
  for (const JsonValue& probe : probes) {
    bool found = false;
    if (const JsonValue* ids = probe.Find("ids")) {
      for (const JsonValue& id : ids->array_items()) {
        if (id.int_value() == Int(probe, "id")) found = true;
      }
    }
    if (corrupt == "match" && matchable.checked == 0) found = false;
    ++matchable.checked;
    if (!found) ++matchable.failed;
  }
  Check& refreshed = AddCheck("refreshes_complete_and_fresh");
  for (const JsonValue& refresh : refreshes) {
    bool complete = Bool(refresh, "ok") && Bool(refresh, "complete");
    if (corrupt == "refresh" && refreshed.checked == 0) complete = false;
    ++refreshed.checked;
    if (!complete) ++refreshed.failed;
  }
  if (refreshes.empty()) {
    // The schedule always hits a dependency, so no refresh at all means
    // the invalidation path is broken.
    refreshed.checked = 1;
    refreshed.failed = 1;
  }
}

/// Wall-clock figures. throughput_per_s and latency_p50_ms are medians
/// over a run's parts — the rounds of the closed loops, the seconds of
/// the open loop — so a few seconds of interference move them little;
/// the whole-run figures follow.
void Replay::ExplainMetrics() {
  std::vector<const JobRecord*> timed;
  for (const JobRecord& job : jobs) {
    if (job.phase == "timed") timed.push_back(&job);
  }
  std::sort(timed.begin(), timed.end(),
            [](const JobRecord* a, const JobRecord* b) {
              return a->send < b->send;
            });
  std::vector<double> latency_ms;
  std::vector<double> round_rate, round_p50;
  int64_t first_send = timed.empty() ? 0 : timed.front()->send;
  int64_t last_result = first_send;
  const size_t round = static_cast<size_t>(std::max(1, plan.round));
  for (size_t start = 0; start < timed.size(); start += round) {
    std::vector<double> round_ms;
    int64_t round_start = timed[start]->send;
    int64_t round_end = round_start;
    for (size_t i = start; i < std::min(timed.size(), start + round); ++i) {
      const JobRecord& job = *timed[i];
      if (!job.ok) continue;
      const double ms = static_cast<double>(job.res - job.send) / 1000.0;
      latency_ms.push_back(ms);
      round_ms.push_back(ms);
      round_end = std::max(round_end, job.res);
    }
    last_result = std::max(last_result, round_end);
    if (round_ms.size() != round || round_end <= round_start) continue;
    round_rate.push_back(static_cast<double>(round) * 1e6 /
                         static_cast<double>(round_end - round_start));
    round_p50.push_back(Percentile(round_ms, 0.5));
  }
  const long long n = static_cast<long long>(latency_ms.size());
  const long long rounds = static_cast<long long>(round_rate.size());
  const double window_s = std::max<double>(
      1e-9, static_cast<double>(last_result - first_send) / 1e6);
  Add(&report, "throughput_per_s", Percentile(round_rate, 0.5), "1/s", rounds);
  Add(&report, "latency_p50_ms", Percentile(round_p50, 0.5), "ms", rounds);
  Add(&report, "jobs_per_s", static_cast<double>(n) / window_s, "1/s", n);
  Add(&report, "job_p50_ms", Percentile(latency_ms, 0.5), "ms", n);
  Add(&report, "job_p90_ms", Percentile(latency_ms, 0.9), "ms", n);
  Add(&report, "job_p90_tail_samples", static_cast<double>(n / 10), "count", n);
  Add(&report, "rounds", static_cast<double>(rounds), "count", rounds);
  Add(&report, "window_s", window_s, "s", n);
}

void Replay::StreamMetrics() {
  std::vector<double> all;
  std::map<char, std::vector<double>> by_kind;
  std::map<int64_t, std::vector<double>> by_second;  // by scheduled second
  int64_t last_ack = window_start;
  for (const JsonValue& op : ops) {
    if (!Bool(op, "ok")) continue;
    const double ms =
        static_cast<double>(Int(op, "ack") - Int(op, "sched")) / 1000.0;
    all.push_back(ms);
    by_kind[Text(op, "k")[0]].push_back(ms);
    by_second[(Int(op, "sched") - window_start) / 1000000].push_back(ms);
    last_ack = std::max<int64_t>(last_ack, Int(op, "ack"));
  }
  std::vector<double> second_p50;
  for (const auto& [second, values] : by_second) {
    second_p50.push_back(Percentile(values, 0.5));
  }
  std::vector<double> refresh_ms;
  for (const JsonValue& refresh : refreshes) {
    if (!Bool(refresh, "ok")) continue;
    refresh_ms.push_back(
        static_cast<double>(Int(refresh, "done") - Int(refresh, "inv")) / 1000.0);
  }
  const long long n = static_cast<long long>(all.size());
  const double window_s = std::max<double>(
      1e-9, static_cast<double>(last_ack - window_start) / 1e6);
  const double ops_per_s = static_cast<double>(n) / window_s;
  Add(&report, "throughput_per_s", ops_per_s, "1/s", n);
  Add(&report, "latency_p50_ms", Percentile(second_p50, 0.5), "ms",
      static_cast<long long>(second_p50.size()));
  Add(&report, "offered_rate_per_s", plan.rate, "1/s", n);
  Add(&report, "op_p50_ms", Percentile(all, 0.5), "ms", n);
  Add(&report, "op_p90_ms", Percentile(all, 0.9), "ms", n);
  const std::pair<char, const char*> kinds[] = {
      {'u', "upsert_p50_ms"}, {'r', "remove_p50_ms"}, {'m', "match_p50_ms"}};
  for (const auto& [kind, name] : kinds) {
    Add(&report, name, Percentile(by_kind[kind], 0.5), "ms",
        static_cast<long long>(by_kind[kind].size()));
  }
  Add(&report, "refresh_p50_ms", Percentile(refresh_ms, 0.5), "ms",
      static_cast<long long>(refresh_ms.size()));
}

/// Layer metrics of the traced explain jobs, weighted by how often each
/// request was served; `served` are the client-side records of those
/// jobs and `net_per_job_ms` the frame parse/build time per job.
void Replay::AddJobLayers(const std::vector<const JobRecord*>& served,
                          double net_per_job_ms) {
  double total_weight = 0.0;
  for (const auto& [req, job] : traced) total_weight += weight[req];
  auto wsum = [&](auto get) {
    double sum = 0.0;
    for (const auto& [req, job] : traced) {
      sum += weight[req] * static_cast<double>(get(job.times));
    }
    return sum;
  };
  auto wmean = [&](auto get) {
    return total_weight > 0.0 ? wsum(get) / total_weight : 0.0;
  };
  auto per_call_us = [&](auto total_ms, auto calls) {
    const double count = wsum(calls);
    return count > 0.0 ? 1000.0 * wsum(total_ms) / count : 0.0;
  };
  const long long jobs_n = static_cast<long long>(served.size());
  std::vector<double> ack_ms, fetch_ms, bytes, running_ms, e2e_ms;
  for (const JobRecord* job : served) {
    ack_ms.push_back(static_cast<double>(job->acc - job->send) / 1000.0);
    fetch_ms.push_back(static_cast<double>(job->res - job->rs) / 1000.0);
    bytes.push_back(static_cast<double>(job->bytes));
    running_ms.push_back(static_cast<double>(job->term - job->acc) / 1000.0);
    e2e_ms.push_back(static_cast<double>(job->res - job->send) / 1000.0);
  }
  double untraced = 0.0;
  double overhead = 0.0;
  for (const auto& [req, job] : traced) {
    untraced += weight[req] * untraced_ms[req];
    overhead += weight[req] * (job.times.run_ms - untraced_ms[req]);
  }
  if (total_weight > 0.0) {
    untraced /= total_weight;
    overhead /= total_weight;
  }
  const double run_ms = wmean([](const LayerTimes& t) { return t.run_ms; });
  const double model_ms =
      wmean([](const LayerTimes& t) { return t.model_wall_ms; });
  const long long samples = static_cast<long long>(traced.size());
  Add(&layers, "net.submit_ack_ms", Mean(ack_ms), "ms", jobs_n);
  Add(&layers, "net.fetch_ms", Mean(fetch_ms), "ms", jobs_n);
  Add(&layers, "net.result_bytes", Mean(bytes), "bytes", jobs_n);
  Add(&layers, "service.run_ms", run_ms, "ms", samples);
  Add(&layers, "service.wait_ms", Mean(running_ms) - untraced, "ms", jobs_n);
  Add(&layers, "data.load_ms",
      wmean([](const LayerTimes& t) { return t.data_load_ms; }), "ms", samples);
  Add(&layers, "models.train_ms",
      wmean([](const LayerTimes& t) { return t.train_ms; }), "ms", samples);
  Add(&layers, "models.score_ms", model_ms, "ms", samples);
  Add(&layers, "models.score_cpu_ms",
      wmean([](const LayerTimes& t) { return t.model_cpu_ms; }), "ms", samples);
  Add(&layers, "models.pairs_scored",
      wsum([](const LayerTimes& t) { return t.pairs; }), "count", samples);
  Add(&layers, "models.batches",
      wsum([](const LayerTimes& t) { return t.batches; }), "count", samples);
  Add(&layers, "scoring.engine_ms",
      wmean([](const LayerTimes& t) { return t.batch_latency_ms; }) - model_ms,
      "ms", samples);
  const double hits = wsum([](const LayerTimes& t) { return t.cache_hits; });
  const double misses = wsum([](const LayerTimes& t) { return t.cache_misses; });
  const double store_hits =
      wsum([](const LayerTimes& t) { return t.store_hits; });
  Add(&layers, "scoring.hit_ratio",
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio", samples);
  Add(&layers, "scoring.lookups", hits + misses, "count", samples);
  Add(&layers, "scoring.store_hit_ratio",
      misses > 0.0 ? store_hits / misses : 0.0, "ratio", samples);
  Add(&layers, "scoring.cache_misses", misses, "count", samples);
  Add(&layers, "core.init_ms",
      wmean([](const LayerTimes& t) { return t.core_init_ms; }), "ms", samples);
  const char* phase_names[4] = {"core.pivot_ms", "core.triangles_ms",
                                "core.lattice_ms", "core.counterfactuals_ms"};
  for (int i = 0; i < 4; ++i) {
    Add(&layers, phase_names[i],
        wmean([i](const LayerTimes& t) { return t.core_phase_ms[i]; }), "ms",
        samples);
  }
  const double expected =
      wsum([](const LayerTimes& t) { return t.predictions_expected; });
  Add(&layers, "core.predictions_saved_ratio",
      expected > 0.0
          ? wsum([](const LayerTimes& t) { return t.predictions_saved; }) /
                expected
          : 0.0,
      "ratio", samples);
  Add(&layers, "core.predictions_expected", expected, "count", samples);
  Add(&layers, "core.to_json_ms",
      wmean([](const LayerTimes& t) { return t.to_json_ms; }), "ms", samples);
  Add(&layers, "util.atomic_write_ms",
      wmean([](const LayerTimes& t) { return t.atomic_write_ms; }), "ms",
      samples);
  Add(&layers, "persist.store_lookup_us",
      per_call_us([](const LayerTimes& t) { return t.store_lookup_ms; },
                  [](const LayerTimes& t) { return t.lookups; }),
      "us", samples);
  Add(&layers, "persist.store_lookups",
      wsum([](const LayerTimes& t) { return t.lookups; }), "count", samples);
  Add(&layers, "persist.store_put_us",
      per_call_us([](const LayerTimes& t) { return t.store_put_ms; },
                  [](const LayerTimes& t) { return t.puts; }),
      "us", samples);
  Add(&layers, "persist.store_sync_ms",
      wmean([](const LayerTimes& t) { return t.store_sync_ms; }), "ms",
      samples);
  Add(&layers, "persist.refresh_peers_ms",
      wmean([](const LayerTimes& t) { return t.refresh_peers_ms; }), "ms",
      samples);
  Add(&layers, "persist.journal_append_us",
      per_call_us([](const LayerTimes& t) { return t.journal_append_ms; },
                  [](const LayerTimes& t) { return t.appends; }),
      "us", samples);
  Add(&layers, "persist.journal_fsync_ms",
      wmean([](const LayerTimes& t) { return t.journal_fsync_ms; }), "ms",
      samples);
  Add(&layers, "persist.checkpoint_ms",
      wmean([](const LayerTimes& t) { return t.checkpoint_ms; }), "ms",
      samples);
  if (!stream()) {
    const double attributed =
        wmean([](const LayerTimes& t) { return t.attributed_ms; }) +
        net_per_job_ms;
    Add(&layers, "unattributed_ms", Mean(e2e_ms) - attributed, "ms", jobs_n);
    Add(&layers, "trace.request_ms", run_ms + net_per_job_ms, "ms", samples);
    Add(&layers, "trace.e2e_request_ms", Mean(e2e_ms), "ms", jobs_n);
    Add(&layers, "trace.e2e_minus_traced_ms",
        Mean(e2e_ms) - run_ms - net_per_job_ms, "ms", jobs_n);
  }
  Add(&layers, "trace.overhead_ms", overhead, "ms", samples);
}

void Replay::ExplainLayers() {
  std::vector<const JobRecord*> served;
  std::vector<double> parse, build;
  for (const JobRecord& job : jobs) {
    if (!job.ok || job.phase != "timed") continue;
    served.push_back(&job);
    api::ExplainRequest request = plan.requests[static_cast<size_t>(job.req)];
    for (const std::string& frame :
         {net::SubmitFrame(request, true), net::ResultRequestFrame(job.job_id)}) {
      const std::string line = Strip(frame);
      net::ClientFrame parsed;
      std::string code, error;
      const int64_t start = NowNs();
      net::ParseClientFrame(line, &parsed, &code, &error);
      parse.push_back(static_cast<double>(NowNs() - start) / 1000.0);
    }
    const std::string result = Strip(traced[job.req].result_json);
    const int64_t start = NowNs();
    const std::string frame = net::ResultFrame(job.job_id, result);
    build.push_back(static_cast<double>(NowNs() - start) / 1000.0);
  }
  const double net_per_job_ms = (2.0 * Mean(parse) + Mean(build)) / 1000.0;
  Add(&layers, "net.parse_us", Mean(parse), "us",
      static_cast<long long>(parse.size()));
  Add(&layers, "net.frame_build_us", Mean(build), "us",
      static_cast<long long>(build.size()));
  AddJobLayers(served, net_per_job_ms);
  for (const char* name :
       {"service.stream.upsert_p50_us", "service.stream.upsert_p99_us",
        "service.stream.remove_p50_us", "service.stream.remove_p99_us",
        "service.stream.match_p50_us", "service.stream.match_p99_us",
        "service.stream.provide_dataset_ms"}) {
    Add(&layers, name, 0.0, name[std::string(name).size() - 2] == 'u' ? "us" : "ms", 0);
  }
  Add(&layers, "loadgen.late_p99_ms", 0.0, "ms", 0);
}

void Replay::ReplayOps(service::StreamCoordinator* coordinator) {
  Check& check = AddCheck("inprocess_ops_succeed");
  std::map<std::string, const api::ExplainRequest*> seeds;
  for (const api::ExplainRequest& request : plan.requests) {
    seeds[request.id] = &request;
  }
  for (const Op& op : plan.ops) {
    const std::string line = Strip(OpFrame(op));
    net::ClientFrame parsed;
    std::string code, error;
    int64_t start = NowNs();
    net::ParseClientFrame(line, &parsed, &code, &error);
    parse_us.push_back(static_cast<double>(NowNs() - start) / 1000.0);

    service::StreamCoordinator::Ack ack;
    std::vector<service::StreamCoordinator::Invalidation> invalidated;
    std::vector<service::StreamCoordinator::MatchCandidate> candidates;
    service::StreamCoordinator::OpStatus status;
    start = NowNs();
    if (op.kind == 'u') {
      data::Record record;
      record.id = op.id;
      record.values = op.values;
      status = coordinator->Upsert(kStreamDataset, "", op.side, record, &ack,
                                   &invalidated, &error);
    } else if (op.kind == 'r') {
      status = coordinator->Remove(kStreamDataset, "", op.side, op.id, &ack,
                                   &invalidated, &error);
    } else {
      status = coordinator->Match(kStreamDataset, "", op.side, op.values,
                                  kMatchTopK, &candidates, &error);
    }
    op_us[op.kind].push_back(static_cast<double>(NowNs() - start) / 1000.0);
    ++check.checked;
    if (status != service::StreamCoordinator::OpStatus::kOk) ++check.failed;

    const int version = api::kSchemaVersion;
    start = NowNs();
    std::string reply;
    if (op.kind == 'u') {
      reply = net::UpsertedFrame(kStreamDataset, op.side, op.id,
                                 static_cast<long long>(ack.seq), ack.slot,
                                 ack.created, version);
    } else if (op.kind == 'r') {
      reply = net::RemovedFrame(kStreamDataset, op.side, op.id,
                                static_cast<long long>(ack.seq), ack.slot,
                                ack.removed, version);
    } else {
      std::vector<net::WireMatchCandidate> wire;
      for (const auto& candidate : candidates) {
        wire.push_back({candidate.id, candidate.overlap, candidate.values});
      }
      reply = net::MatchFrame(kStreamDataset, op.side, wire, version);
    }
    build_us.push_back(static_cast<double>(NowNs() - start) / 1000.0);

    // What the refresh's recompute does first: re-provision the job's
    // dataset from the overlays (and re-register its dependencies).
    for (const auto& invalidation : invalidated) {
      auto it = seeds.find(invalidation.job_id);
      if (it == seeds.end()) continue;
      data::Dataset dataset;
      start = NowNs();
      coordinator->ProvideDataset(*it->second, &dataset, &error);
      provide_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
  }
}

void Replay::StreamLayers() {
  std::vector<const JobRecord*> served;
  for (const JobRecord& job : jobs) {
    if (job.ok && job.phase == "setup") served.push_back(&job);
  }
  std::vector<double> ack_ms, late_ms;
  for (const JsonValue& op : ops) {
    late_ms.push_back(
        static_cast<double>(Int(op, "sent") - Int(op, "sched")) / 1000.0);
    if (Bool(op, "ok")) {
      ack_ms.push_back(
          static_cast<double>(Int(op, "ack") - Int(op, "sent")) / 1000.0);
    }
  }
  std::vector<double> all_ops;
  for (const auto& [kind, values] : op_us) {
    all_ops.insert(all_ops.end(), values.begin(), values.end());
  }
  Add(&layers, "net.parse_us", Mean(parse_us), "us",
      static_cast<long long>(parse_us.size()));
  Add(&layers, "net.frame_build_us", Mean(build_us), "us",
      static_cast<long long>(build_us.size()));
  AddJobLayers(served, 0.0);
  const std::pair<char, const char*> kinds[] = {
      {'u', "upsert"}, {'r', "remove"}, {'m', "match"}};
  for (const auto& [kind, name] : kinds) {
    const std::vector<double>& values = op_us[kind];
    const long long n = static_cast<long long>(values.size());
    Add(&layers, std::string("service.stream.") + name + "_p50_us",
        Percentile(values, 0.5), "us", n);
    Add(&layers, std::string("service.stream.") + name + "_p99_us",
        Percentile(values, 0.99), "us", n);
  }
  std::vector<double> provisions = provide_ms;
  for (const auto& [req, job] : traced) {
    provisions.push_back(job.times.provide_dataset_ms);
  }
  Add(&layers, "service.stream.provide_dataset_ms", Mean(provisions), "ms",
      static_cast<long long>(provisions.size()));
  Add(&layers, "loadgen.late_p99_ms", Percentile(late_ms, 0.99), "ms",
      static_cast<long long>(late_ms.size()));
  const double per_op_ms =
      (Mean(all_ops) + Mean(parse_us) + Mean(build_us)) / 1000.0;
  const long long n = static_cast<long long>(ack_ms.size());
  Add(&layers, "unattributed_ms", Mean(ack_ms) - per_op_ms, "ms", n);
  Add(&layers, "trace.request_ms", per_op_ms, "ms",
      static_cast<long long>(all_ops.size()));
  Add(&layers, "trace.e2e_request_ms", Mean(ack_ms), "ms", n);
  Add(&layers, "trace.e2e_minus_traced_ms", Mean(ack_ms) - per_op_ms, "ms", n);
}

void WriteMetrics(JsonWriter* json, const char* key,
                  const std::vector<Metric>& metrics) {
  json->Key(key);
  json->BeginArray();
  for (const Metric& metric : metrics) {
    json->BeginObject();
    json->Key("name");
    json->String(metric.name);
    json->Key("value");
    json->Number(metric.value);
    json->Key("unit");
    json->String(metric.unit);
    json->Key("samples");
    json->Int(metric.samples);
    json->EndObject();
  }
  json->EndArray();
}

std::string Replay::ToJson() const {
  long long attempted = 0;
  long long failed = 0;
  for (const auto& [phase, count] : phases) {
    attempted += count.sent;
    failed += count.sent - count.ok;
  }
  bool correct = failure.empty() && failed == 0;
  for (const Check& check : checks) correct = correct && check.failed == 0;
  JsonWriter json;
  json.BeginObject();
  json.Key("correct");
  json.Bool(correct);
  json.Key("attempted");
  json.Int(attempted);
  json.Key("failed");
  json.Int(failed);
  json.Key("failure");
  json.String(failure);
  json.Key("checks");
  json.BeginArray();
  for (const Check& check : checks) {
    json.BeginObject();
    json.Key("name");
    json.String(check.name);
    json.Key("checked");
    json.Int(check.checked);
    json.Key("failed");
    json.Int(check.failed);
    json.EndObject();
  }
  json.EndArray();
  json.Key("phases");
  json.BeginObject();
  for (const auto& [phase, count] : phases) {
    json.Key(phase);
    json.BeginObject();
    json.Key("sent");
    json.Int(count.sent);
    json.Key("ok");
    json.Int(count.ok);
    json.Key("failed");
    json.Int(count.sent - count.ok);
    json.Key("failures");
    json.BeginObject();
    for (const auto& [code, n] : count.failures) {
      json.Key(code);
      json.Int(n);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndObject();
  WriteMetrics(&json, "report", report);
  WriteMetrics(&json, "layers", layers);
  json.Key("envelope");
  json.BeginObject();
  json.Key("kernels");
  json.String(text::simd::ActiveModeName());
  json.Key("clients");
  json.Int(plan.clients);
  json.Key("connections");
  json.Int(stream() ? 2 : plan.clients);
  json.Key("loop");
  json.String(stream() ? "open (Poisson)" : "closed");
  json.Key("rate_per_s");
  json.Number(plan.rate);
  json.Key("request_threads");
  json.Int(plan.requests.empty() ? 0 : plan.requests[0].threads);
  json.Key("distinct_requests");
  json.Int(static_cast<long long>(requests.size()));
  json.EndObject();
  json.EndObject();
  return json.str();
}

}  // namespace

int RunReplay(const Args& args) {
  Replay replay;
  replay.dir = args.Get("dir");
  replay.server_dir = args.Get("server-dir");
  replay.trace = args.GetInt("trace", 0) != 0;
  replay.corrupt = args.Get("corrupt");
  if (replay.Load() && replay.RunReferences()) {
    replay.CheckServedBytes(false);
    if (replay.trace) replay.CheckServedBytes(true);
  }
  replay.CheckWorkloadInvariants();
  if (replay.stream()) {
    replay.StreamMetrics();
    if (replay.trace) replay.StreamLayers();
  } else {
    replay.ExplainMetrics();
    if (replay.trace) replay.ExplainLayers();
  }
  const std::string json = replay.ToJson();
  if (!util::AtomicWriteFile(replay.dir + "/replay.json", json + "\n")) {
    return 2;
  }
  return json.find("\"correct\":true") != std::string::npos ? 0 : 1;
}

}  // namespace certa::e2ebench
