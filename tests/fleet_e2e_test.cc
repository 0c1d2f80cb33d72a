// Fleet serving tests (label: fleet): `certa serve --listen --workers N`
// with N >= 2 forks a supervised master/worker fleet. These tests drive
// the real binaries end to end: stats fan-in across workers, per-worker
// connection limits and slow-reader shedding, SIGHUP rolling restart
// under a live watching client, SIGTERM fleet drain with parked work,
// the inherited-listener fallback (CERTA_FLEET_NO_REUSEPORT=1), and a
// SIGKILL'd worker being respawned with its job recovered to a
// byte-identical result. The heavier randomized kill-storm lives in
// fleet_chaos_test.cc.

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
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
                 ("certa_fleet_" + tag + "_" + std::to_string(::getpid()));
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

/// Forks `certa serve <args>` as a direct child (stdout+stderr into
/// `log`) so tests can signal the master itself and read its exit code.
pid_t SpawnFleet(const std::vector<std::string>& args, const fs::path& log,
                 bool no_reuseport = false) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  if (no_reuseport) setenv("CERTA_FLEET_NO_REUSEPORT", "1", 1);
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

/// Polls the master log for "LISTENING host:port"; 0 on timeout.
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

bool WaitForPattern(const fs::path& log, const std::string& pattern,
                    int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 25) {
    if (ReadAll(log).find(pattern) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
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

struct WorkerLine {
  int slot = -1;
  pid_t pid = -1;
};

/// Every "WORKER <slot> pid=<pid>" line the master printed, in order —
/// respawns append, so the latest entry per slot is the live pid.
std::vector<WorkerLine> ParseWorkerLines(const std::string& text) {
  std::vector<WorkerLine> workers;
  size_t at = 0;
  while ((at = text.find("WORKER ", at)) != std::string::npos) {
    // Only count line starts (the word can appear in other output).
    if (at != 0 && text[at - 1] != '\n') {
      at += 7;
      continue;
    }
    WorkerLine line;
    if (std::sscanf(text.c_str() + at, "WORKER %d pid=%d", &line.slot,
                    &line.pid) == 2) {
      workers.push_back(line);
    }
    at += 7;
  }
  return workers;
}

/// Non-blocking connect with a bounded wait; -1 when the connection
/// cannot even establish (SYN dropped by a full backlog).
int ConnectNonBlocking(int port, int establish_timeout_ms) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return -1;
  }
  pollfd pfd{fd, POLLOUT, 0};
  if (poll(&pfd, 1, establish_timeout_ms) != 1) {
    close(fd);
    return -1;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Sends a ping frame and waits for any response line. True only when
/// the worker actually serviced the connection (pong; an error frame
/// such as too_many_connections counts as not serviced).
bool PingAnswered(int fd, int timeout_ms) {
  const std::string ping = "{\"schema_version\":1,\"type\":\"ping\"}\n";
  if (write(fd, ping.data(), ping.size()) !=
      static_cast<ssize_t>(ping.size())) {
    return false;
  }
  std::string line;
  char byte = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, 50) != 1) continue;
    const ssize_t n = read(fd, &byte, 1);
    if (n <= 0) return false;  // closed (e.g. rejected over-limit)
    if (byte == '\n') return line.find("\"pong\"") != std::string::npos;
    line.push_back(byte);
  }
  return false;
}

/// Finds a job's dir across fleet partitions (`<root>/w<slot>/<id>`).
fs::path FindJobDir(const fs::path& job_root, const std::string& id) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(job_root, ec)) {
    if (!entry.is_directory()) continue;
    const fs::path candidate = entry.path() / id;
    if (fs::exists(candidate)) return candidate;
  }
  return {};
}

/// Waits until the jobs are in flight past their triangle search: one
/// look at their checkpoints finds each queued, or running in its
/// lattice or counterfactual phase, and at least one running. Phase
/// boundaries are flushed before a job goes on, so this holds whatever
/// loading, training and triangle search took. False once a job has
/// stopped, or when `timeout` runs out.
bool WaitForLatticeInFlight(const fs::path& job_root,
                            const std::vector<std::string>& ids,
                            std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool ready = true;
    bool running = false;
    for (const std::string& id : ids) {
      const fs::path dir = FindJobDir(job_root, id);
      persist::JobCheckpoint checkpoint;
      if (dir.empty() ||
          !persist::LoadCheckpoint(persist::CheckpointPathInDir(dir.string()),
                                   &checkpoint)) {
        ready = false;
        continue;
      }
      if (checkpoint.state == "running") {
        running = true;
        ready = ready && (checkpoint.phase == "lattice" ||
                          checkpoint.phase == "counterfactuals");
      } else if (checkpoint.state != "queued") {
        return false;
      }
    }
    if (ready && running) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// Digs a number out of the stats frame: stats["fleet"][section][key].
long long FleetStat(const std::string& stats_output,
                    const std::string& section, const std::string& key) {
  // The client prints exactly one frame line; find it.
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

TEST(FleetE2eTest, StatsFanInAggregatesAcrossWorkers) {
  const fs::path root = Scratch("stats");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t master = SpawnFleet({"--listen", "0", "--job-root", job_root,
                             "--workers", "2", "--queue", "8",
                             "--stats-interval-ms", "50"},
                            log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // Four quick jobs, spread by the kernel across the two workers.
  for (int i = 0; i < 4; ++i) {
    std::string output;
    ASSERT_EQ(RunShell(ClientCmd(port, "submit --id s" + std::to_string(i) +
                                           " --dataset AB --model svm "
                                           "--pair " + std::to_string(i) +
                                           " --triangles 10"),
                       &output),
              0)
        << output;
  }

  // The fleet aggregate is eventually consistent on the stats cadence;
  // poll until it has fanned in all four completions.
  long long completed = -1;
  long long workers_configured = -1;
  std::string output;
  for (int waited = 0; waited < 10000; waited += 100) {
    ASSERT_EQ(RunShell(ClientCmd(port, "stats"), &output), 0) << output;
    completed = FleetStat(output, "runner", "completed");
    workers_configured = FleetStat(output, "", "workers_configured");
    if (completed >= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(workers_configured, 2) << output;
  EXPECT_EQ(completed, 4) << output;
  EXPECT_EQ(FleetStat(output, "", "workers_live"), 2) << output;
  EXPECT_GE(FleetStat(output, "server", "connections_accepted"), 4)
      << output;

  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

TEST(FleetE2eTest, PerWorkerConnectionLimitsHoldIndependently) {
  const fs::path root = Scratch("maxconn");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t master = SpawnFleet({"--listen", "0", "--job-root", job_root,
                             "--workers", "2", "--max-connections", "1"},
                            log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // Each worker caps at 1 admitted connection: a full worker stops
  // accepting and lets the kernel backlog absorb the overflow. Service
  // is the evidence of admission — an admitted connection answers
  // ping, a backlogged one stays silent. Fleet-wide ceiling is 2
  // (1 per worker); if the limit were fleet-global it would be 1, if
  // it leaked it would be unbounded. SO_REUSEPORT hashes connections
  // by source port, so the rare draw where every attempt lands on one
  // worker (≈2^-7 per round) yields a single admission and is retried.
  int serviced = 0;
  std::vector<int> held;
  for (int attempt = 0; attempt < 5 && serviced < 2; ++attempt) {
    for (int fd : held) close(fd);
    held.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    serviced = 0;
    for (int i = 0; i < 8 && serviced < 2; ++i) {
      const int fd = ConnectNonBlocking(port, /*establish_timeout_ms=*/500);
      if (fd < 0) continue;  // backlog full on the hashed worker
      if (PingAnswered(fd, /*timeout_ms=*/750)) {
        ++serviced;
        held.push_back(fd);  // keep it open: its worker is now full
      } else {
        close(fd);  // backlogged (or rejected) — not serviced
      }
    }
  }
  ASSERT_EQ(serviced, 2) << "both workers should admit one connection each";

  // With one connection held per worker the whole fleet is at capacity:
  // a probe may establish into a backlog but must get no service.
  const int probe = ConnectNonBlocking(port, 500);
  if (probe >= 0) {
    EXPECT_FALSE(PingAnswered(probe, 750))
        << "a third connection was serviced past two per-worker limits";
  }
  // The held connections are unaffected by the over-limit pressure.
  for (int fd : held) EXPECT_TRUE(PingAnswered(fd, 2000));
  if (probe >= 0) close(probe);

  // Releasing capacity restores service for fresh connections.
  for (int fd : held) close(fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int fresh = ConnectNonBlocking(port, 2000);
  ASSERT_GE(fresh, 0);
  EXPECT_TRUE(PingAnswered(fresh, 2000));
  close(fresh);

  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

TEST(FleetE2eTest, SlowReadersAreShedPerWorkerAndCountedFleetWide) {
  const fs::path root = Scratch("slowread");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  // A 2 KiB cap keeps the backlog threshold small, so a reader that
  // pipelines requests without ever draining the answers is shed
  // quickly. The cap bounds *backlog*, not the size of one frame — a
  // single response larger than the cap is still delivered whole
  // (net_service_test pins that side of the contract).
  pid_t master = SpawnFleet({"--listen", "0", "--job-root", job_root,
                             "--workers", "2", "--stats-interval-ms", "50",
                             "--max-write-buffer", "2048"},
                            log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // Two readers that pipeline stats requests and never read a byte
  // back: once the kernel buffers between them and their worker fill,
  // the per-connection write buffer backs up past the cap and the
  // next required response finds the backlog over the limit —
  // whichever worker serves each closes it as a slow reader.
  std::vector<int> fds;
  for (int i = 0; i < 2; ++i) {
    const int fd = ConnectNonBlocking(port, 2000);
    ASSERT_GE(fd, 0);
    fds.push_back(fd);  // never read
  }
  const std::string request = "{\"schema_version\":1,\"type\":\"stats\"}\n";
  std::string batch;
  for (int i = 0; i < 100; ++i) batch += request;
  std::vector<size_t> offsets(fds.size(), 0);

  // The shed shows up in the fleet aggregate regardless of which
  // worker each slow reader landed on.
  std::string output;
  long long closes = -1;
  for (int attempt = 0; attempt < 3000 && closes < 2; ++attempt) {
    for (size_t i = 0; i < fds.size(); ++i) {
      // Resume mid-batch after a partial write so frames stay aligned
      // (a torn line would draw bad_json errors, not backlog).
      const ssize_t n =
          send(fds[i], batch.data() + offsets[i], batch.size() - offsets[i],
               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) offsets[i] = (offsets[i] + n) % batch.size();
    }
    if (attempt % 20 == 0) {
      ASSERT_EQ(RunShell(ClientCmd(port, "stats"), &output), 0) << output;
      closes = FleetStat(output, "server", "slow_reader_closes");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(closes, 2) << output;
  for (int fd : fds) close(fd);

  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

TEST(FleetE2eTest, RollingRestartServesThroughout) {
  const fs::path root = Scratch("rolling");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t master = SpawnFleet({"--listen", "0", "--job-root", job_root,
                             "--workers", "2", "--stats-interval-ms", "50",
                             "--restart-backoff-ms", "50",
                             "--checkpoint-every", "16"},
                            log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // A long watching job rides through the restart: its worker drains
  // (parking it), the replacement's resume sweep finishes it, and the
  // reconnecting client still exits 0 with the result.
  int client_code = -1;
  std::string client_output;
  std::thread client([&] {
    client_code = RunShell(
        ClientCmd(port,
                  "submit --id roll0 --dataset AB --model ditto "
                  "--triangles 3000 --no-cache --quiet"),
        &client_output);
  });

  // Let the job start, then roll the whole fleet one worker at a time.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_EQ(kill(master, SIGHUP), 0);
  EXPECT_TRUE(WaitForPattern(log, "rolling restart complete", 60000))
      << ReadAll(log);

  client.join();
  EXPECT_EQ(client_code, 0) << client_output;
  EXPECT_NE(client_output.find("\"type\":\"result\""), std::string::npos)
      << client_output;

  // Both original workers were replaced: two initial spawns + two
  // rolling respawns.
  const std::vector<WorkerLine> workers = ParseWorkerLines(ReadAll(log));
  EXPECT_GE(workers.size(), 4u) << ReadAll(log);

  // The rolled job's result is byte-identical to a direct run.
  std::string direct;
  ASSERT_EQ(RunShell(std::string(CERTA_CLI_PATH) +
                         " explain --dataset AB --model ditto "
                         "--triangles 3000 --no-cache --json",
                     &direct),
            0)
      << direct;
  const fs::path job_dir = FindJobDir(fs::path(job_root), "roll0");
  ASSERT_FALSE(job_dir.empty());
  EXPECT_EQ(Chomp(ReadAll(job_dir / "result.json")), Chomp(direct));

  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

TEST(FleetE2eTest, SigtermDrainParksInFlightWorkFleetWide) {
  const fs::path root = Scratch("drain");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t master = SpawnFleet({"--listen", "0", "--job-root", job_root,
                             "--workers", "2", "--queue", "8"},
                            log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  std::string output;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(RunShell(ClientCmd(port, "submit --no-watch --id d" +
                                           std::to_string(i) +
                                           " --dataset AB --model ditto "
                                           "--triangles 6000 --no-cache"),
                       &output),
              0)
        << output;
  }
  EXPECT_TRUE(WaitForLatticeInFlight(fs::path(job_root), {"d0", "d1"},
                                     std::chrono::seconds(60)))
      << "a job ended before SIGTERM\n"
      << ReadAll(log);

  // Parked (resumable) work fleet-wide → master exit 3.
  EXPECT_EQ(StopServer(master, SIGTERM), 3) << ReadAll(log);
  for (int i = 0; i < 2; ++i) {
    const fs::path dir =
        FindJobDir(fs::path(job_root), "d" + std::to_string(i));
    ASSERT_FALSE(dir.empty()) << "d" << i;
    EXPECT_TRUE(fs::exists(dir / "checkpoint.ckpt")) << dir;
    EXPECT_FALSE(fs::exists(dir / "result.json")) << dir;
  }
  fs::remove_all(root);
}

TEST(FleetE2eTest, InheritedListenerFallbackServes) {
  const fs::path root = Scratch("fallback");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t master = SpawnFleet({"--listen", "0", "--job-root", job_root,
                             "--workers", "2"},
                            log, /*no_reuseport=*/true);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);
  EXPECT_TRUE(WaitForPattern(log, "inherited listener", 2000)) << ReadAll(log);

  std::string output;
  ASSERT_EQ(RunShell(ClientCmd(port, "ping"), &output), 0) << output;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(RunShell(ClientCmd(port, "submit --id f" + std::to_string(i) +
                                           " --dataset AB --model svm "
                                           "--triangles 10"),
                       &output),
              0)
        << output;
    EXPECT_NE(output.find("\"type\":\"result\""), std::string::npos)
        << output;
  }
  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

TEST(FleetE2eTest, KilledWorkerRespawnsAndItsJobRecovers) {
  const fs::path root = Scratch("respawn");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t master = SpawnFleet({"--listen", "0", "--job-root", job_root,
                             "--workers", "2", "--stats-interval-ms", "50",
                             "--restart-backoff-ms", "50",
                             "--checkpoint-every", "16"},
                            log);
  ASSERT_GT(master, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  std::string output;
  ASSERT_EQ(RunShell(ClientCmd(port,
                               "submit --no-watch --id victim --dataset AB "
                               "--model ditto --triangles 3000 --no-cache"),
                     &output),
            0)
      << output;
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // SIGKILL the worker that owns the job, mid-run.
  const fs::path job_dir = FindJobDir(fs::path(job_root), "victim");
  ASSERT_FALSE(job_dir.empty());
  const std::string partition = job_dir.parent_path().filename().string();
  ASSERT_EQ(partition.rfind('w', 0), 0u) << partition;
  const int victim_slot = std::stoi(partition.substr(1));
  std::vector<WorkerLine> workers = ParseWorkerLines(ReadAll(log));
  pid_t victim_pid = -1;
  for (const WorkerLine& line : workers) {
    if (line.slot == victim_slot) victim_pid = line.pid;
  }
  ASSERT_GT(victim_pid, 0);
  const size_t spawns_before = workers.size();
  ASSERT_EQ(kill(victim_pid, SIGKILL), 0);

  // The master respawns the slot; the replacement's resume sweep
  // re-admits the orphaned job and completes it — zero lost work.
  for (int waited = 0; waited < 20000; waited += 50) {
    workers = ParseWorkerLines(ReadAll(log));
    if (workers.size() > spawns_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_GT(workers.size(), spawns_before) << ReadAll(log);
  EXPECT_EQ(workers.back().slot, victim_slot);

  int code = -1;
  for (int waited = 0; waited < 90000; waited += 250) {
    code = RunShell(ClientCmd(port, "status --job victim"), &output);
    if (code == 0 && output.find("\"state\":\"complete\"") !=
                         std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  EXPECT_NE(output.find("\"state\":\"complete\""), std::string::npos)
      << output;

  std::string direct;
  ASSERT_EQ(RunShell(std::string(CERTA_CLI_PATH) +
                         " explain --dataset AB --model ditto "
                         "--triangles 3000 --no-cache --json",
                     &direct),
            0)
      << direct;
  EXPECT_EQ(Chomp(ReadAll(job_dir / "result.json")), Chomp(direct));

  EXPECT_EQ(StopServer(master, SIGTERM), 0) << ReadAll(log);
  fs::remove_all(root);
}

}  // namespace
}  // namespace certa
