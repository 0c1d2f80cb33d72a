// End-to-end service tests through the real binaries (label:
// service-net): `certa serve --listen` on one side, `certa_client` on
// the other. Covers the ISSUE's acceptance criteria directly — many
// concurrent clients whose served results are byte-identical to direct
// `certa explain --json`, SIGTERM under load exiting with code 3
// and every admitted job dir either complete or parked resumable (then
// actually resumed to completion), and a restarted single process
// finishing the jobs its predecessor acked without any `--resume`.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"

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
                 ("certa_net_e2e_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Strips trailing newlines only — the document bytes must match.
std::string Chomp(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return text;
}

/// Runs a shell command, captures stdout+stderr, returns the exit code.
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
/// `log`, stdin from /dev/null) so the test can SIGTERM the server
/// itself and collect its real exit code. No shell in between — the
/// signal must reach certa, not a wrapper.
pid_t SpawnServer(const std::vector<std::string>& args,
                  const fs::path& log) {
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

/// Polls the server log for "LISTENING host:port"; 0 on timeout.
int WaitForPort(const fs::path& log) {
  for (int attempt = 0; attempt < 400; ++attempt) {
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

/// Signals the child and returns its exit code (-1 on abnormal exit).
int StopServer(pid_t pid, int sig) {
  kill(pid, sig);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  // The sh wrapper exec's certa, so this is certa's own status.
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Polls an admitted job's checkpoint until the running job has entered
/// `phase`. Phase boundaries are flushed before the job goes on, so on
/// true the job dir already holds everything the phase resumes from.
/// False once the job has stopped running, or when `timeout` runs out.
bool WaitForPhase(const fs::path& job_dir, const std::string& phase,
                  std::chrono::seconds timeout) {
  const std::string path = persist::CheckpointPathInDir(job_dir.string());
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    persist::JobCheckpoint checkpoint;
    if (persist::LoadCheckpoint(path, &checkpoint)) {
      if (checkpoint.state == "running" && checkpoint.phase == phase) {
        return true;
      }
      if (checkpoint.state != "queued" && checkpoint.state != "running") {
        return false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// `rest` starts with the subcommand (e.g. "submit --id x").
std::string ClientCmd(int port, const std::string& rest) {
  return std::string(CERTA_CLIENT_PATH) + " " + rest + " --port " +
         std::to_string(port);
}

/// Locates a job dir under a fleet job root: jobs live in the partition
/// (`<root>/w<slot>`) of whichever worker admitted them. Falls back to
/// `<root>/<id>` for single-process layouts.
fs::path FindJobDir(const fs::path& job_root, const std::string& id) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(job_root, ec)) {
    if (!entry.is_directory()) continue;
    const fs::path candidate = entry.path() / id;
    if (fs::exists(candidate / "result.json") ||
        fs::exists(candidate / "checkpoint.ckpt")) {
      return candidate;
    }
  }
  return job_root / id;
}

TEST(NetE2eTest, EightConcurrentClientsMatchDirectExplainByteForByte) {
  const fs::path root = Scratch("concurrent");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t server = SpawnServer({"--listen", "0", "--job-root", job_root,
                              "--workers", "4", "--queue", "16"},
                             log);
  ASSERT_GT(server, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // Sanity: the wire answers before the fleet launches.
  std::string output;
  ASSERT_EQ(RunShell(ClientCmd(port, "ping"), &output), 0) << output;

  constexpr int kClients = 8;
  std::vector<int> exit_codes(kClients, -1);
  std::vector<std::string> outputs(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      exit_codes[i] = RunShell(
          ClientCmd(port, "submit --id c" + std::to_string(i) +
                              " --dataset AB --model svm --pair " +
                              std::to_string(i % 4) + " --triangles 20"),
          &outputs[i]);
    });
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(exit_codes[i], 0) << "client " << i << ": " << outputs[i];
    EXPECT_NE(outputs[i].find("\"type\":\"result\""), std::string::npos)
        << outputs[i];
  }

  // Every served job's stored result is byte-identical to what a direct
  // `certa explain --json` of the same request produces.
  for (int pair = 0; pair < 4; ++pair) {
    std::string direct;
    ASSERT_EQ(RunShell(std::string(CERTA_CLI_PATH) +
                           " explain --dataset AB --model svm --pair " +
                           std::to_string(pair) + " --triangles 20 --json",
                       &direct),
              0)
        << direct;
    for (int i = pair; i < kClients; i += 4) {
      // --workers 4 + --listen is fleet mode: the job landed in the
      // partition of whichever worker the kernel handed the connection.
      const std::string served = ReadAll(
          FindJobDir(fs::path(job_root), "c" + std::to_string(i)) /
          "result.json");
      ASSERT_FALSE(served.empty()) << "client " << i;
      EXPECT_EQ(Chomp(served), Chomp(direct)) << "client " << i;
    }
  }

  // SIGTERM after the work is done: the fleet drains with every job
  // complete and nothing parked, so the master exits 0.
  EXPECT_EQ(StopServer(server, SIGTERM), 0) << ReadAll(log);
  const std::string text = ReadAll(log);
  for (int i = 0; i < kClients; ++i) {
    EXPECT_NE(text.find("DONE c" + std::to_string(i) + " complete"),
              std::string::npos)
        << text;
  }
}

TEST(NetE2eTest, SigtermUnderLoadLeavesEveryJobDirResumable) {
  const fs::path root = Scratch("sigterm");
  const fs::path log = root / "server.log";
  const std::string job_root = (root / "jobs").string();
  pid_t server = SpawnServer({"--listen", "0", "--job-root", job_root,
                              "--workers", "1", "--queue", "8"},
                             log);
  ASSERT_GT(server, 0);
  const int port = WaitForPort(log);
  ASSERT_GT(port, 0) << ReadAll(log);

  // A long job occupies the single worker; a second job sits queued.
  std::string output;
  ASSERT_EQ(RunShell(ClientCmd(port,
                               "submit --no-watch --id big --dataset AB "
                               "--model ditto --triangles 4000 --no-cache"),
                     &output),
            0)
      << output;
  ASSERT_EQ(RunShell(ClientCmd(port,
                               "submit --no-watch --id queued1 --dataset AB "
                               "--model svm --triangles 10"),
                     &output),
            0)
      << output;

  // SIGTERM mid-flight: once the big job has entered its lattice phase,
  // however long loading, training and triangle search took.
  EXPECT_TRUE(WaitForPhase(fs::path(job_root) / "big", "lattice",
                           std::chrono::seconds(60)))
      << "big job ended before its lattice phase\n"
      << ReadAll(log);
  ASSERT_EQ(StopServer(server, SIGTERM), 3) << ReadAll(log);

  // Both admitted jobs parked resumable: durable state on disk, no
  // result yet.
  for (const char* id : {"big", "queued1"}) {
    const fs::path dir = fs::path(job_root) / id;
    EXPECT_TRUE(fs::exists(dir / "checkpoint.ckpt")) << id;
    EXPECT_FALSE(fs::exists(dir / "result.json")) << id;
  }
  const std::string text = ReadAll(log);
  EXPECT_NE(text.find("DONE big parked"), std::string::npos) << text;
  EXPECT_NE(text.find("DONE queued1 parked"), std::string::npos) << text;

  // `serve --resume` finishes each parked dir; the interrupted job's
  // final bytes equal an uninterrupted direct run's.
  for (const char* id : {"big", "queued1"}) {
    const fs::path dir = fs::path(job_root) / id;
    ASSERT_EQ(RunShell(std::string(CERTA_CLI_PATH) + " serve --resume " +
                           dir.string(),
                       &output),
              0)
        << id << ": " << output;
    EXPECT_TRUE(fs::exists(dir / "result.json")) << id;
  }
  std::string direct;
  ASSERT_EQ(RunShell(std::string(CERTA_CLI_PATH) +
                         " explain --dataset AB --model ditto "
                         "--triangles 4000 --no-cache --json",
                     &direct),
            0)
      << direct;
  EXPECT_EQ(Chomp(ReadAll(fs::path(job_root) / "big" / "result.json")),
            Chomp(direct));
}

/// Leaves what durable admission writes before a job starts: a job dir
/// holding only a spec-only `queued` checkpoint of an FZ/svm request.
void WriteQueuedJob(const fs::path& job_dir, int pair) {
  persist::JobCheckpoint checkpoint;
  checkpoint.request.id = job_dir.filename().string();
  checkpoint.request.dataset = "FZ";
  checkpoint.request.model = "svm";
  checkpoint.request.pair_index = pair;
  checkpoint.request.triangles = 20;
  checkpoint.state = "queued";
  fs::create_directories(job_dir);
  ASSERT_TRUE(persist::SaveCheckpoint(
      persist::CheckpointPathInDir(job_dir.string()), checkpoint));
}

std::string DirectExplainJson(int pair) {
  std::string direct;
  EXPECT_EQ(RunShell(std::string(CERTA_CLI_PATH) +
                         " explain --dataset FZ --model svm --pair " +
                         std::to_string(pair) + " --triangles 20 --json",
                     &direct),
            0)
      << direct;
  return Chomp(direct);
}

TEST(NetE2eTest, ListenFinishesJobsAckedBeforeARestart) {
  const fs::path root = Scratch("sweep_listen");
  const fs::path log = root / "server.log";
  const fs::path job_root = root / "jobs";
  WriteQueuedJob(job_root / "acked", 0);

  pid_t server = SpawnServer({"--listen", "0", "--job-root",
                              job_root.string()},
                             log);
  ASSERT_GT(server, 0);
  // Nothing between here and StopServer may return early: a failed
  // poll must still stop the server.
  const int port = WaitForPort(log);
  std::string status;
  bool complete = false;
  for (int attempt = 0; port > 0 && attempt < 600 && !complete; ++attempt) {
    if (RunShell(ClientCmd(port, "status --job acked"), &status) != 0) break;
    complete = status.find("\"state\":\"complete\"") != std::string::npos;
    if (!complete) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::string result;
  const int result_code =
      port > 0 ? RunShell(ClientCmd(port, "result --job acked"), &result) : -1;
  const int exit_code = StopServer(server, SIGTERM);
  const std::string text = ReadAll(log);

  ASSERT_GT(port, 0) << text;
  EXPECT_TRUE(complete) << status << "\n" << text;
  ASSERT_EQ(result_code, 0) << result;
  const std::string direct = DirectExplainJson(0);
  EXPECT_NE(result.find("\"result\":" + direct), std::string::npos)
      << result << "\n" << direct;
  EXPECT_EQ(Chomp(ReadAll(job_root / "acked" / "result.json")), direct);
  EXPECT_EQ(exit_code, 3) << text;
  EXPECT_NE(text.find("DONE acked complete"), std::string::npos) << text;
  fs::remove_all(root);
}

TEST(NetE2eTest, StdinServeFinishesJobsAckedBeforeARestart) {
  const fs::path root = Scratch("sweep_stdin");
  const fs::path job_root = root / "jobs";
  WriteQueuedJob(job_root / "job-0001", 0);
  // A new job line without an id must not take the acked job's id.
  const fs::path jobs_file = root / "jobs.txt";
  {
    std::ofstream jobs(jobs_file);
    jobs << "dataset=FZ model=svm pair=1 triangles=20\n";
  }

  std::string output;
  ASSERT_EQ(RunShell(std::string(CERTA_CLI_PATH) + " serve --job-root " +
                         job_root.string() + " --jobs " + jobs_file.string(),
                     &output),
            0)
      << output;
  EXPECT_NE(output.find("ACCEPT job-0002"), std::string::npos) << output;
  EXPECT_NE(output.find("DONE job-0001 complete"), std::string::npos)
      << output;
  EXPECT_NE(output.find("DONE job-0002 complete"), std::string::npos)
      << output;
  EXPECT_EQ(Chomp(ReadAll(job_root / "job-0001" / "result.json")),
            DirectExplainJson(0));
  EXPECT_EQ(Chomp(ReadAll(job_root / "job-0002" / "result.json")),
            DirectExplainJson(1));
  fs::remove_all(root);
}

}  // namespace
}  // namespace certa
