// Request generation: everything a run sends is drawn here from the
// seed, before any server starts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "data/benchmarks.h"
#include "data/dataset.h"
#include "loadgen.h"
#include "util/atomic_file.h"
#include "util/json_writer.h"
#include "util/random.h"

namespace certa::e2ebench {
namespace {

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

api::ExplainRequest Request(const std::string& dataset,
                            const std::string& model, int pair,
                            int triangles, int threads) {
  api::ExplainRequest request;
  request.dataset = dataset;
  request.model = model;
  request.pair_index = pair;
  request.triangles = triangles;
  request.threads = threads;
  return request;
}

/// Seed of the request sets that stay the same for every run seed.
constexpr uint64_t kFixedSetSeed = 0x9E3779B97F4A7C15ULL;

/// explain_cold / explain_warm: every (dataset, model) combination of
/// the mix once per round, each round in its own seeded order. Which
/// test pairs each round explains is fixed, not seeded: a pair's cost
/// varies up to 4x within one combination (IA most), and seeded pair
/// draws alone spread jobs/s by about a tenth between seeds. With a
/// fixed set every seed does the same work, and the seed varies the
/// order — and with it cache and store reuse between jobs.
void PlanExplain(bool cold, Rng* rng, Plan* plan) {
  Rng pair_rng(kFixedSetSeed);
  const std::vector<std::string> datasets =
      plan->tiny ? std::vector<std::string>{"FZ", "AB"}
                 : std::vector<std::string>{"FZ", "AB", "DA", "IA"};
  const std::vector<std::string> models =
      plan->tiny ? std::vector<std::string>{"svm", "ditto"}
                 : std::vector<std::string>{"svm", "ditto", "deeper",
                                            "deepmatcher"};
  const int triangles = plan->tiny ? 10 : 100;
  struct Combo {
    std::string dataset;
    std::string model;
    std::vector<int> pairs;  // shuffled test-pair indices, drawn in order
  };
  std::vector<Combo> combos;
  size_t fewest_pairs = SIZE_MAX;
  for (const std::string& dataset : datasets) {
    const size_t test_pairs = data::MakeBenchmark(dataset).test.size();
    fewest_pairs = std::min(fewest_pairs, test_pairs);
    for (const std::string& model : models) {
      Combo combo{dataset, model, {}};
      for (size_t i = 0; i < test_pairs; ++i) {
        combo.pairs.push_back(static_cast<int>(i));
      }
      pair_rng.Shuffle(&combo.pairs);
      combos.push_back(std::move(combo));
    }
  }
  plan->round = static_cast<int>(combos.size());
  std::vector<int> permutation(combos.size());
  for (size_t i = 0; i < combos.size(); ++i) permutation[i] = static_cast<int>(i);

  if (cold) {
    // No request repeats: round r explains each combination's r-th
    // drawn pair, so every job pays fresh model scoring.
    plan->clients = 1;
    const int threads = std::min(HardwareThreads(), 4);
    const size_t rounds = std::min<size_t>(48, fewest_pairs);
    for (size_t r = 0; r < rounds; ++r) {
      rng->Shuffle(&permutation);
      for (int c : permutation) {
        const Combo& combo = combos[static_cast<size_t>(c)];
        plan->order.push_back(static_cast<int>(plan->requests.size()));
        plan->requests.push_back(Request(combo.dataset, combo.model,
                                         combo.pairs[r], triangles, threads));
      }
    }
    return;
  }
  // Warm: one request per combination, reissued round after round
  // against a store the setup pass prewarmed with exactly this pool.
  plan->clients = 2;
  plan->prewarm_threads = std::max(1, HardwareThreads() / 2);
  for (const Combo& combo : combos) {
    plan->requests.push_back(
        Request(combo.dataset, combo.model, combo.pairs[0], triangles, 1));
  }
  for (int r = 0; r < 400; ++r) {
    rng->Shuffle(&permutation);
    plan->order.insert(plan->order.end(), permutation.begin(),
                       permutation.end());
  }
}

/// stream_mixed: seed jobs whose pair records are the dependency
/// targets, then an open-loop Poisson schedule of upsert/remove/match
/// (60/10/30) on the same dataset.
void PlanStream(Rng* rng, Plan* plan) {
  const data::Dataset base = data::MakeBenchmark(kStreamDataset);
  const data::Table* tables[2] = {&base.left, &base.right};
  plan->clients = 1;
  const int seed_jobs = plan->tiny ? 2 : 4;
  struct Dep {
    int side;
    int id;
    std::vector<std::string> values;
  };
  std::vector<Dep> deps;
  std::set<std::pair<int, int>> dep_keys;
  // Fixed seed-job pairs and an even rotation of the dependency hits
  // over their records: every refresh recomputes one of the same jobs
  // equally often, so the refresh leg costs the same for every seed.
  Rng pair_rng(kFixedSetSeed);
  const std::vector<size_t> pairs = pair_rng.SampleIndices(
      base.test.size(), static_cast<size_t>(seed_jobs));
  for (size_t k = 0; k < pairs.size(); ++k) {
    api::ExplainRequest request =
        Request(kStreamDataset, "svm", static_cast<int>(pairs[k]),
                plan->tiny ? 10 : 20, 1);
    request.id = "seed-" + std::to_string(k);
    plan->requests.push_back(request);
    const data::LabeledPair& pair = base.test[pairs[k]];
    const data::Record& left = base.left.record(pair.left_index);
    const data::Record& right = base.right.record(pair.right_index);
    deps.push_back({0, left.id, left.values});
    deps.push_back({1, right.id, right.values});
    dep_keys.insert({0, left.id});
    dep_keys.insert({1, right.id});
  }

  rng->Shuffle(&deps);
  size_t next_dep = 0;

  // Removes tombstone base records no seed job depends on, each once.
  std::vector<int> removable[2];
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < tables[side]->size(); ++i) {
      const int id = tables[side]->record(i).id;
      if (!dep_keys.count({side, id})) removable[side].push_back(id);
    }
    rng->Shuffle(&removable[side]);
  }
  size_t next_remove[2] = {0, 0};
  std::vector<size_t> upserts_by_side[2];

  plan->rate = plan->tiny ? 100.0 : 200.0;
  const int64_t horizon_us = static_cast<int64_t>(plan->seconds) * 1000000;
  // One dependency hit per second, half a second in: every run pays the
  // same number of refreshes (about 50 ms of recompute each, so they
  // never overlap), which keeps the server's CPU per op comparable
  // between seeds.
  int64_t next_dep_at = 500000;
  // New records take ids above every base id of either side.
  int next_new_id = 0;
  for (const data::Table* table : tables) {
    for (int i = 0; i < table->size(); ++i) {
      next_new_id = std::max(next_new_id, table->record(i).id + 1);
    }
  }
  double t_us = 0.0;
  for (int n = 0;; ++n) {
    t_us += -std::log(1.0 - rng->UniformDouble()) / plan->rate * 1e6;
    if (t_us >= static_cast<double>(horizon_us)) break;
    Op op;
    op.at_us = static_cast<int64_t>(t_us);
    const double u = rng->UniformDouble();
    op.kind = u < 0.6 ? 'u' : (u < 0.7 ? 'r' : 'm');
    if (op.at_us >= next_dep_at) {
      op.kind = 'u';
      op.dep_hit = true;
      next_dep_at += 1000000;
    }
    op.side = rng->UniformInt(0, 1);
    if (op.kind == 'r' &&
        next_remove[op.side] >= removable[op.side].size()) {
      op.kind = 'm';
    }
    const data::Table& table = *tables[op.side];
    switch (op.kind) {
      case 'u': {
        op.token = "zq" + std::to_string(plan->seed) + "x" + std::to_string(n);
        if (op.dep_hit) {
          const Dep& dep = deps[next_dep++ % deps.size()];
          op.side = dep.side;
          op.id = dep.id;
          op.values = dep.values;
        } else {
          op.id = next_new_id++;
          op.values = table.record(static_cast<int>(
                                       rng->Index(static_cast<size_t>(table.size()))))
                          .values;
        }
        op.values[0] = op.token;
        upserts_by_side[op.side].push_back(plan->ops.size());
        break;
      }
      case 'r':
        op.id = removable[op.side][next_remove[op.side]++];
        break;
      default: {
        // Half the probes read back a recent upsert, half look up an
        // existing record's values.
        const std::vector<size_t>& written = upserts_by_side[op.side];
        if (!written.empty() && rng->Bernoulli(0.5)) {
          op.values = TokenProbe(plan->ops[written[rng->Index(written.size())]].token,
                                 table.schema().size());
        } else {
          op.values = table.record(static_cast<int>(
                                       rng->Index(static_cast<size_t>(table.size()))))
                          .values;
        }
        break;
      }
    }
    plan->ops.push_back(std::move(op));
  }
}

}  // namespace

std::vector<std::string> TokenProbe(const std::string& token, int arity) {
  std::vector<std::string> values(static_cast<size_t>(std::max(1, arity)));
  values[0] = token;
  return values;
}

Plan MakePlan(const std::string& workload, uint64_t seed, int seconds,
              bool tiny) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  plan.seconds = seconds;
  plan.tiny = tiny;
  Rng rng(seed);
  if (workload == "explain_cold" || workload == "explain_warm") {
    PlanExplain(workload == "explain_cold", &rng, &plan);
  } else if (workload == "stream_mixed") {
    PlanStream(&rng, &plan);
  } else {
    plan.workload.clear();
  }
  return plan;
}

bool WritePlan(const std::string& path, const Plan& plan) {
  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(plan.workload);
  json.Key("seed");
  json.Int(static_cast<long long>(plan.seed));
  json.Key("tiny");
  json.Bool(plan.tiny);
  json.Key("seconds");
  json.Int(plan.seconds);
  json.Key("clients");
  json.Int(plan.clients);
  json.Key("round");
  json.Int(plan.round);
  json.Key("prewarm_threads");
  json.Int(plan.prewarm_threads);
  json.Key("rate");
  json.Number(plan.rate);
  json.Key("requests");
  json.BeginArray();
  for (const api::ExplainRequest& request : plan.requests) {
    json.Raw(request.ToJson());
  }
  json.EndArray();
  json.Key("order");
  json.BeginArray();
  for (int index : plan.order) json.Int(index);
  json.EndArray();
  json.Key("ops");
  json.BeginArray();
  for (const Op& op : plan.ops) {
    json.BeginObject();
    json.Key("at");
    json.Int(op.at_us);
    json.Key("k");
    json.String(std::string(1, op.kind));
    json.Key("side");
    json.Int(op.side);
    json.Key("id");
    json.Int(op.id);
    json.Key("v");
    json.BeginArray();
    for (const std::string& value : op.values) json.String(value);
    json.EndArray();
    json.Key("tok");
    json.String(op.token);
    json.Key("dep");
    json.Bool(op.dep_hit);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return util::AtomicWriteFile(path, json.str() + "\n");
}

bool ReadPlan(const std::string& path, Plan* plan, std::string* error) {
  std::string text;
  if (!util::ReadFileToString(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  JsonValue root;
  if (!JsonValue::Parse(text, &root, error) || !root.is_object()) {
    *error = "bad plan " + path + ": " + *error;
    return false;
  }
  auto integer = [&root](const char* key) {
    const JsonValue* value = root.Find(key);
    return value != nullptr && value->is_number()
               ? static_cast<long long>(value->number_value())
               : 0LL;
  };
  const JsonValue* workload = root.Find("workload");
  const JsonValue* tiny = root.Find("tiny");
  const JsonValue* rate = root.Find("rate");
  const JsonValue* requests = root.Find("requests");
  const JsonValue* order = root.Find("order");
  const JsonValue* ops = root.Find("ops");
  if (workload == nullptr || requests == nullptr || order == nullptr ||
      ops == nullptr || tiny == nullptr || rate == nullptr) {
    *error = "plan " + path + " is missing fields";
    return false;
  }
  plan->workload = workload->string_value();
  plan->seed = static_cast<uint64_t>(integer("seed"));
  plan->tiny = tiny->bool_value();
  plan->seconds = static_cast<int>(integer("seconds"));
  plan->clients = static_cast<int>(integer("clients"));
  plan->round = static_cast<int>(integer("round"));
  plan->prewarm_threads = static_cast<int>(integer("prewarm_threads"));
  plan->rate = rate->number_value();
  for (const JsonValue& item : requests->array_items()) {
    api::ExplainRequest request;
    if (!api::FromJson(item, &request, error)) return false;
    plan->requests.push_back(request);
  }
  for (const JsonValue& item : order->array_items()) {
    plan->order.push_back(static_cast<int>(item.int_value()));
  }
  for (const JsonValue& item : ops->array_items()) {
    Op op;
    op.at_us = item.Find("at")->int_value();
    op.kind = item.Find("k")->string_value()[0];
    op.side = static_cast<int>(item.Find("side")->int_value());
    op.id = static_cast<int>(item.Find("id")->int_value());
    for (const JsonValue& value : item.Find("v")->array_items()) {
      op.values.push_back(value.string_value());
    }
    op.token = item.Find("tok")->string_value();
    op.dep_hit = item.Find("dep")->bool_value();
    plan->ops.push_back(std::move(op));
  }
  return true;
}

std::vector<JsonValue> ReadJsonLines(const std::string& path) {
  std::vector<JsonValue> values;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    JsonValue value;
    std::string error;
    if (!line.empty() && JsonValue::Parse(line, &value, &error)) {
      values.push_back(std::move(value));
    }
  }
  return values;
}

bool AppendLines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::FILE* out = std::fopen(path.c_str(), "a");
  if (out == nullptr) return false;
  for (const std::string& line : lines) {
    std::fputs(line.c_str(), out);
    std::fputc('\n', out);
  }
  return std::fclose(out) == 0;
}

std::string JobRecordJson(const JobRecord& record) {
  JsonWriter json;
  json.BeginObject();
  json.Key("rec");
  json.String("job");
  json.Key("phase");
  json.String(record.phase);
  json.Key("req");
  json.Int(record.req);
  json.Key("job");
  json.String(record.job_id);
  json.Key("send");
  json.Int(record.send);
  json.Key("acc");
  json.Int(record.acc);
  json.Key("term");
  json.Int(record.term);
  json.Key("rs");
  json.Int(record.rs);
  json.Key("res");
  json.Int(record.res);
  json.Key("fresh");
  json.Int(record.fresh);
  json.Key("crc");
  json.Int(record.crc);
  json.Key("bytes");
  json.Int(record.bytes);
  json.Key("ok");
  json.Bool(record.ok);
  json.Key("code");
  json.String(record.code);
  json.EndObject();
  return json.str();
}

JobRecord JobRecordFromJson(const JsonValue& value) {
  JobRecord record;
  auto integer = [&value](const char* key) -> long long {
    const JsonValue* field = value.Find(key);
    return field != nullptr && field->is_number() ? field->int_value() : 0;
  };
  auto text = [&value](const char* key) -> std::string {
    const JsonValue* field = value.Find(key);
    return field != nullptr && field->is_string() ? field->string_value() : "";
  };
  record.phase = text("phase");
  record.req = static_cast<int>(integer("req"));
  record.job_id = text("job");
  record.send = integer("send");
  record.acc = integer("acc");
  record.term = integer("term");
  record.rs = integer("rs");
  record.res = integer("res");
  record.fresh = integer("fresh");
  record.crc = static_cast<uint32_t>(integer("crc"));
  record.bytes = integer("bytes");
  const JsonValue* ok = value.Find("ok");
  record.ok = ok != nullptr && ok->bool_value();
  record.code = text("code");
  return record;
}

}  // namespace certa::e2ebench
