// Shared-store fleet tests (label: fleet). A fleet serves one shared
// `--store-dir`: every worker appends paid scores to its own segment
// stream and absorbs siblings' streams read-only, so a score any
// worker pays is a warm hit fleet-wide. These tests drive the real
// binaries end to end:
//
//   - cross-worker reuse: a job resubmitted until it lands on the
//     OTHER worker is served from the sibling's stream (fleet
//     `store.peer_hits` > 0), and a brand-new fleet over the same
//     store runs the job with ZERO fresh model calls and a
//     byte-identical result;
//   - client retry budget: `--retries` bounds each consecutive-failure
//     streak, not the connection's lifetime, so a watching client
//     rides through more rolling restarts than its budget;
//   - stats fan-in: a worker SIGKILLed mid-`STATS` write must not
//     wedge the master or leak a torn fragment into the aggregate;
//   - per-worker traces: with `--trace-out`, each worker writes
//     `<job-root>/w<slot>/trace.json` with a span for every job it ran.
//
// The randomized kill-storm over a shared store is in
// fleet_chaos_test.cc; the in-process store semantics are in
// score_store_test.cc.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/json_parser.h"

#ifndef CERTA_CLI_PATH
#error "CERTA_CLI_PATH must be defined to the certa CLI binary path"
#endif
#ifndef CERTA_CLIENT_PATH
#error "CERTA_CLIENT_PATH must be defined to the certa_client binary path"
#endif

namespace certa {
namespace {

namespace fs = std::filesystem;

fs::path Scratch(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("certa_fstore_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string Chomp(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

int RunShell(const std::string& command, std::string* output) {
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  output->clear();
  char buffer[4096];
  size_t n = 0;
  while ((n = ::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output->append(buffer, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

pid_t SpawnFleet(const std::vector<std::string>& args, const fs::path& log) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  std::freopen("/dev/null", "r", stdin);
  FILE* out = std::freopen(log.string().c_str(), "w", stdout);
  if (out != nullptr) dup2(fileno(stdout), fileno(stderr));
  std::vector<char*> argv;
  std::string binary = CERTA_CLI_PATH;
  argv.push_back(binary.data());
  std::string serve = "serve";
  argv.push_back(serve.data());
  std::vector<std::string> owned = args;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  execv(CERTA_CLI_PATH, argv.data());
  _exit(127);
}

int WaitForPort(const fs::path& log) {
  for (int attempt = 0; attempt < 800; ++attempt) {
    const std::string text = ReadAll(log);
    const size_t at = text.find("LISTENING ");
    if (at != std::string::npos) {
      const size_t colon = text.find(':', at);
      const size_t end = text.find('\n', at);
      if (colon != std::string::npos && end != std::string::npos) {
        return std::stoi(text.substr(colon + 1, end - colon - 1));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return 0;
}

int StopServer(pid_t pid, int sig) {
  kill(pid, sig);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ClientCmd(int port, const std::string& rest) {
  return std::string(CERTA_CLIENT_PATH) + " " + rest + " --port " +
         std::to_string(port);
}

/// Digs a number out of the stats frame: stats["fleet"][section][key].
long long FleetStat(const std::string& stats_output,
                    const std::string& section, const std::string& key) {
  const size_t brace = stats_output.find('{');
  if (brace == std::string::npos) return -1;
  const size_t end = stats_output.find('\n', brace);
  JsonValue frame;
  std::string error;
  if (!JsonValue::Parse(stats_output.substr(brace, end - brace), &frame,
                        &error)) {
    return -1;
  }
  const JsonValue* fleet = frame.Find("fleet");
  if (fleet == nullptr || !fleet->is_object()) return -1;
  const JsonValue* node = fleet;
  if (!section.empty()) {
    node = fleet->Find(section);
    if (node == nullptr || !node->is_object()) return -1;
  }
  const JsonValue* value = node->Find(key);
  return value != nullptr && value->is_integer() ? value->int_value() : -1;
}

/// The "key=value" integer from a job's DONE line in the master log
/// ("DONE <id> complete replayed=R fresh=F store=S peer=P"); -1 if the
/// line or field is missing.
long long DoneField(const std::string& log_text, const std::string& job_id,
                    const std::string& field) {
  const std::string needle = "DONE " + job_id + " ";
  const size_t at = log_text.find(needle);
  if (at == std::string::npos) return -1;
  const size_t line_end = log_text.find('\n', at);
  const std::string line = log_text.substr(at, line_end - at);
  const size_t key = line.find(field + "=");
  if (key == std::string::npos) return -1;
  return std::stoll(line.substr(key + field.size() + 1));
}

std::vector<pid_t> CurrentWorkerPids(const std::string& text, int workers) {
  std::vector<pid_t> pids(static_cast<size_t>(workers), -1);
  size_t at = 0;
  while ((at = text.find("WORKER ", at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      int slot = -1;
      int pid = -1;
      if (std::sscanf(text.c_str() + at, "WORKER %d pid=%d", &slot, &pid) ==
              2 &&
          slot >= 0 && slot < workers) {
        pids[static_cast<size_t>(slot)] = pid;
      }
    }
    at += 7;
  }
  return pids;
}

/// Every worker of a drained fleet wrote a parseable
/// `<job-root>/w<slot>/trace.json`, holding a `job:<id>` span for each
/// job a DONE line names whose dir is in that worker's partition.
void ExpectWorkerTracesCoverDoneJobs(const fs::path& job_root,
                                     const std::string& log_text,
                                     int workers) {
  std::vector<std::set<std::string>> spans(static_cast<size_t>(workers));
  for (int slot = 0; slot < workers; ++slot) {
    const fs::path path =
        job_root / ("w" + std::to_string(slot)) / "trace.json";
    JsonValue trace;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(ReadAll(path), &trace, &error))
        << path << ": " << error;
    const JsonValue* events = trace.Find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->is_array()) << path;
    for (const JsonValue& event : events->array_items()) {
      const JsonValue* name = event.Find("name");
      if (name != nullptr && name->is_string()) {
        spans[static_cast<size_t>(slot)].insert(name->string_value());
      }
    }
  }
  int jobs = 0;
  for (size_t at = log_text.find("DONE "); at != std::string::npos;
       at = log_text.find("DONE ", at + 5)) {
    if (at > 0 && log_text[at - 1] != '\n') continue;
    const std::string id =
        log_text.substr(at + 5, log_text.find(' ', at + 5) - at - 5);
    int owner = -1;
    for (int slot = 0; slot < workers; ++slot) {
      if (fs::exists(job_root / ("w" + std::to_string(slot)) / id)) {
        owner = slot;
      }
    }
    ASSERT_GE(owner, 0) << "no partition holds job " << id;
    EXPECT_EQ(spans[static_cast<size_t>(owner)].count("job:" + id), 1u)
        << "worker " << owner << "'s trace has no span for job " << id;
    ++jobs;
  }
  EXPECT_GT(jobs, 0) << log_text;
}

TEST(FleetStoreTest, SiblingsReuseEachOthersScoresAndWarmFleetPaysNothing) {
  const fs::path root = Scratch("reuse");
  const fs::path log = root / "server.log";
  const std::string store_dir = (root / "store").string();
  const std::string spec =
      "--dataset AB --model svm --pair 1 --triangles 200 --no-cache";

  pid_t master = SpawnFleet(
      {"--listen", "0", "--job-root", (root / "jobs").string(), "--workers",
       "2", "--store-dir", store_dir, "--stats-interval-ms", "50",
       "--checkpoint-every", "16", "--trace-out",
       (root / "trace.json").string()},
      log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // Submit the same request repeatedly (distinct ids, so nothing is
  // deduplicated at the job layer). The first run pays fresh model
  // scores into its worker's stream; SO_REUSEPORT spreads connections
  // by source port, so within a few attempts a rerun lands on the
  // OTHER worker and is served from the sibling's paid entries —
  // visible fleet-wide as store.peer_hits > 0. Each attempt is a
  // coin flip, so 15 attempts fail spuriously with p ~ 2^-14.
  long long peer_hits = 0;
  std::string output;
  for (int attempt = 0; attempt < 15 && peer_hits <= 0; ++attempt) {
    ASSERT_EQ(RunShell(ClientCmd(port, "submit --id r" +
                                           std::to_string(attempt) + " " +
                                           spec),
                       &output),
              0)
        << output;
    for (int waited = 0; waited < 3000 && peer_hits <= 0; waited += 100) {
      ASSERT_EQ(RunShell(ClientCmd(port, "stats"), &output), 0) << output;
      peer_hits = FleetStat(output, "store", "peer_hits");
      if (peer_hits <= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
  }
  EXPECT_GT(peer_hits, 0)
      << "no cross-worker reuse through the shared store\n"
      << output << "\nserver log:\n"
      << ReadAll(log);
  EXPECT_GT(FleetStat(output, "store", "entries"), 0) << output;
  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  ExpectWorkerTracesCoverDoneJobs(root / "jobs", ReadAll(log), 2);

  // A brand-new fleet (fresh job root, fresh processes) over the SAME
  // store directory: every score the first fleet paid is warm, so the
  // job completes with zero fresh model calls, entirely store-served.
  const fs::path log2 = root / "server2.log";
  master = SpawnFleet(
      {"--listen", "0", "--job-root", (root / "jobs2").string(), "--workers",
       "2", "--store-dir", store_dir, "--stats-interval-ms", "50"},
      log2);
  ASSERT_GT(master, 0);
  const int port2 = WaitForPort(log2);
  ASSERT_GT(port2, 0) << ReadAll(log2);
  ASSERT_EQ(RunShell(ClientCmd(port2, "submit --id warm0 " + spec), &output),
            0)
      << output;
  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log2);
  const std::string log2_text = ReadAll(log2);
  EXPECT_EQ(DoneField(log2_text, "warm0", "fresh"), 0)
      << "warm fleet paid model calls the store already held\n"
      << log2_text;
  EXPECT_GT(DoneField(log2_text, "warm0", "store"), 0) << log2_text;

  // Store-served scores are bit-exact: the warm result is
  // byte-identical to a direct single-process run.
  std::string direct;
  ASSERT_EQ(RunShell(std::string(CERTA_CLI_PATH) + " explain " + spec +
                         " --json",
                     &direct),
            0)
      << direct;
  fs::path warm_dir;
  std::error_code ec;
  for (const auto& partition :
       fs::directory_iterator(root / "jobs2", ec)) {
    if (fs::exists(partition.path() / "warm0" / "result.json")) {
      warm_dir = partition.path() / "warm0";
    }
  }
  ASSERT_FALSE(warm_dir.empty()) << log2_text;
  EXPECT_EQ(Chomp(ReadAll(warm_dir / "result.json")), Chomp(direct));
  fs::remove_all(root);
}

TEST(FleetStoreTest, RollingRestartsDoNotExhaustWatcherRetryBudget) {
  const fs::path root = Scratch("retries");
  const fs::path log = root / "server.log";
  pid_t master = SpawnFleet(
      {"--listen", "0", "--job-root", (root / "jobs").string(), "--workers",
       "2", "--stats-interval-ms", "50", "--restart-backoff-ms", "50",
       "--checkpoint-every", "16"},
      log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // A watching client with a retry budget of 2 rides through TWO full
  // rolling restarts. Each roll replaces both workers one at a time,
  // so over its life the client can be disconnected up to four times —
  // far more lifetime failures than one streak's budget allows. It
  // survives because the budget bounds *consecutive* failures and
  // resets on every successful reconnect; the lifetime-counting bug
  // this pins down exhausted the shared counter across disconnects.
  // (This job's result.json is also larger than the default
  // --max-write-buffer, pinning the oversized-result delivery fix —
  // the old backlog check disconnected every fetch of it forever.)
  // The `timeout` wrapper turns any wedge into a visible failure
  // instead of a hung CI job.
  int client_code = -1;
  std::string client_output;
  std::thread client([&] {
    client_code = RunShell(
        "timeout 240 " +
            ClientCmd(port,
                      "submit --id ride0 --dataset AB --model ditto "
                      "--triangles 6000 --no-cache --retries 2 --quiet"),
        &client_output);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  auto count_rolls = [&] {
    const std::string text = ReadAll(log);
    size_t rolls = 0;
    for (size_t at = text.find("rolling restart complete");
         at != std::string::npos;
         at = text.find("rolling restart complete", at + 1)) {
      ++rolls;
    }
    return rolls;
  };
  for (size_t round = 1; round <= 2; ++round) {
    ASSERT_EQ(kill(master, SIGHUP), 0);
    bool rolled = false;
    for (int waited = 0; waited < 90000 && !rolled; waited += 50) {
      rolled = count_rolls() >= round;
      if (!rolled) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    ASSERT_TRUE(rolled) << ReadAll(log);
  }

  client.join();
  EXPECT_EQ(client_code, 0) << client_output << "\nserver log:\n"
                            << ReadAll(log);
  EXPECT_NE(client_output.find("\"type\":\"result\""), std::string::npos)
      << client_output;
  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

TEST(FleetStoreTest, StatsFanInSurvivesWorkerKilledMidStatsWrite) {
  const fs::path root = Scratch("fanin");
  const fs::path log = root / "server.log";
  constexpr int kWorkers = 2;
  // The fastest stats cadence the CLI allows maximizes the chance each
  // SIGKILL lands mid-`STATS` write; correctness must not depend on
  // where it lands — the master drops the torn fragment wholesale.
  pid_t master = SpawnFleet(
      {"--listen", "0", "--job-root", (root / "jobs").string(), "--workers",
       std::to_string(kWorkers), "--stats-interval-ms", "20",
       "--restart-backoff-ms", "50", "--stable-after-ms", "200"},
      log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  std::string output;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(RunShell(ClientCmd(port, "submit --id f" + std::to_string(i) +
                                           " --dataset AB --model svm "
                                           "--triangles 10"),
                       &output),
              0)
        << output;
  }

  // Kill a live worker several times. At a 20ms cadence its control fd
  // is busy writing STATS lines near-constantly, so these kills hit
  // mid-write with high probability across rounds.
  for (int round = 0; round < 3; ++round) {
    const std::vector<pid_t> pids =
        CurrentWorkerPids(ReadAll(log), kWorkers);
    pid_t victim = -1;
    for (pid_t pid : pids) {
      if (pid > 0 && kill(pid, 0) == 0) victim = pid;
    }
    ASSERT_GT(victim, 0) << ReadAll(log);
    ASSERT_EQ(kill(victim, SIGKILL), 0);
    // Wait for the respawn before the next round.
    for (int waited = 0; waited < 10000; waited += 50) {
      const std::vector<pid_t> now =
          CurrentWorkerPids(ReadAll(log), kWorkers);
      bool replaced = true;
      for (pid_t pid : now) {
        replaced = replaced && pid > 0 && (pid != victim) &&
                   kill(pid, 0) == 0;
      }
      if (replaced) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  // The master must still be alive and the aggregate must still parse
  // with sane values: a torn STATS fragment that leaked into the JSON
  // would fail the parse (FleetStat returns -1), a wedged fan-in would
  // never show 2 live workers again.
  {
    int status = 0;
    ASSERT_EQ(waitpid(master, &status, WNOHANG), 0)
        << "master died, raw status 0x" << std::hex << status << std::dec
        << "\n"
        << ReadAll(log);
  }
  // Counter caveat: the fleet view sums each slot's *current* worker
  // generation, so a SIGKILLed worker's completed count legitimately
  // vanishes from the aggregate. The durable truth for the pre-kill
  // jobs is their result.json on disk; the fan-in pipeline itself is
  // proven live by a post-kill job whose completion must flow through
  // the freshly respawned workers' STATS pushes.
  ASSERT_EQ(RunShell(ClientCmd(port, "submit --id f2 --dataset AB "
                               "--model svm --triangles 10"),
                     &output),
            0)
      << output;
  long long live = -1;
  long long completed = -1;
  for (int waited = 0; waited < 15000; waited += 100) {
    ASSERT_EQ(RunShell(ClientCmd(port, "stats"), &output), 0) << output;
    live = FleetStat(output, "", "workers_live");
    completed = FleetStat(output, "runner", "completed");
    if (live == kWorkers && completed >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(live, kWorkers) << output;
  EXPECT_GE(completed, 1) << output;
  EXPECT_GE(FleetStat(output, "server", "connections_accepted"), 1)
      << output;
  for (int i = 0; i < 3; ++i) {
    const std::string id = "f" + std::to_string(i);
    bool on_disk = false;
    std::error_code ec;
    for (const auto& partition :
         fs::directory_iterator(root / "jobs", ec)) {
      if (fs::exists(partition.path() / id / "result.json")) {
        on_disk = true;
      }
    }
    EXPECT_TRUE(on_disk) << id << " lost\n" << ReadAll(log);
  }

  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

}  // namespace
}  // namespace certa
