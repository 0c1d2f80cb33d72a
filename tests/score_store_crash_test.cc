// Crash-fuzz battery for persist::ScoreStore: writer subprocesses are
// SIGKILLed at size-triggered points mid-append and mid-compaction,
// then the survivor directory is reopened and every recovered entry is
// checked against the deterministic score function the writer used —
// the acceptance bar is ZERO corrupted entries served, ever; losing an
// unsynced tail is fine, serving a wrong score is not. A final
// end-to-end case kills the real CLI mid-durable-run and requires the
// store to recover and the rerun to be byte-identical.

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/score_store.h"

#ifndef CERTA_CLI_PATH
#error "CERTA_CLI_PATH must be defined to the certa CLI binary path"
#endif

namespace certa::persist {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kScope = 77;
constexpr long long kHeaderSize = 12;
constexpr long long kRecordSize = 36;

fs::path Scratch(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("certa_store_crash_" + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

models::PairKey Key(uint64_t i) {
  return models::PairKey{i * 2654435761u + 1, ~i * 40503u + 7};
}

double ScoreOf(uint64_t i) {
  return 1.0 / (1.0 + static_cast<double>(i % 1013));
}

long long TotalSegmentBytes(const fs::path& dir) {
  long long total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      total += static_cast<long long>(fs::file_size(entry.path()));
    }
  }
  return total;
}

/// Forked writer: appends entries 0..n-1, syncing after each Put (each
/// entry durable once its Sync returns), until killed. _exit, never
/// exit — no destructors or exit handlers run, like a real power cut.
pid_t SpawnWriter(const fs::path& dir, uint64_t n) {
  const pid_t pid = fork();
  if (pid == 0) {
    ScoreStore store;
    if (!store.Open(dir.string())) _exit(1);
    for (uint64_t i = 0; i < n; ++i) {
      store.Put(kScope, Key(i), ScoreOf(i));
      store.Sync();
    }
    _exit(0);
  }
  return pid;
}

/// Kills `pid` once the segment bytes under `dir` reach `threshold`;
/// returns false if the writer finished first.
bool KillAtSize(pid_t pid, const fs::path& dir, long long threshold) {
  for (;;) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return false;
    if (TotalSegmentBytes(dir) >= threshold) {
      ::kill(pid, SIGKILL);
      int killed = 0;
      ::waitpid(pid, &killed, 0);
      EXPECT_TRUE(WIFSIGNALED(killed));
      return true;
    }
    ::usleep(500);
  }
}

/// Opens the survivor directory and validates every recoverable entry:
/// a Lookup hit with a wrong score is an instant failure. Returns the
/// number of intact entries.
uint64_t VerifyZeroCorruption(const fs::path& dir, uint64_t n,
                              ScoreStore::Stats* stats = nullptr) {
  ScoreStore store;
  EXPECT_TRUE(store.Open(dir.string()));
  uint64_t intact = 0;
  for (uint64_t i = 0; i < n; ++i) {
    double score = 0.0;
    if (!store.Lookup(kScope, Key(i), &score)) continue;
    EXPECT_DOUBLE_EQ(score, ScoreOf(i)) << "corrupted entry " << i;
    ++intact;
  }
  if (stats != nullptr) *stats = store.stats();
  return intact;
}

TEST(ScoreStoreCrashTest, SigkillDuringAppendsNeverCorrupts) {
  constexpr uint64_t kN = 20000;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    const fs::path dir = Scratch("append" + std::to_string(round));
    // Kill points spread across the write: after ~(round+1)/9 of the
    // records have hit the disk.
    const long long threshold =
        kHeaderSize +
        kRecordSize * static_cast<long long>(kN) * (round + 1) / (kRounds + 1);
    const pid_t pid = SpawnWriter(dir, kN);
    const bool killed = KillAtSize(pid, dir, threshold);

    ScoreStore::Stats stats;
    const uint64_t intact = VerifyZeroCorruption(dir, kN, &stats);
    if (killed) {
      // Sync after each Put: every record whose Sync returned is
      // durable, so at least the records below the kill threshold must
      // be intact (minus at most one record torn mid-write).
      const uint64_t durable_floor =
          static_cast<uint64_t>((threshold - kHeaderSize) / kRecordSize);
      EXPECT_GE(intact + 1, durable_floor) << "round " << round;
      // Recovery may drop at most one torn tail record's bytes.
      EXPECT_LE(stats.dropped_bytes, kRecordSize) << "round " << round;
    } else {
      EXPECT_EQ(intact, kN);
    }
    // The survivor is writable: finishing the interrupted work and
    // reopening yields the full set.
    {
      ScoreStore store;
      ASSERT_TRUE(store.Open(dir.string()));
      for (uint64_t i = 0; i < kN; ++i) {
        store.Put(kScope, Key(i), ScoreOf(i));
      }
      ASSERT_TRUE(store.Sync());
    }
    EXPECT_EQ(VerifyZeroCorruption(dir, kN), kN);
    fs::remove_all(dir);
  }
}

/// Forked shared-stream writer: appends entries [begin, end) to its own
/// stream slot inside one shared directory, syncing after each Put.
pid_t SpawnStreamWriter(const fs::path& dir, int slot, uint64_t begin,
                        uint64_t end) {
  const pid_t pid = fork();
  if (pid == 0) {
    ScoreStore store;
    ScoreStore::Options options;
    options.stream_slot = slot;
    options.exclusive_lock = true;
    if (!store.Open(dir.string(), options)) _exit(1);
    for (uint64_t i = begin; i < end; ++i) {
      store.Put(kScope, Key(i), ScoreOf(i));
      store.Sync();
    }
    _exit(0);
  }
  return pid;
}

TEST(ScoreStoreCrashTest, SigkillSharedStreamsNeverCorruptSiblings) {
  // Two sibling writers share one directory, each on its own stream;
  // both are SIGKILLed mid-append. A reader joining the shared dir
  // afterwards must absorb every durable record from BOTH streams and
  // serve zero corrupted entries — a sibling's torn tail is skipped,
  // never interpreted.
  constexpr uint64_t kPerWriter = 12000;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    const fs::path dir = Scratch("shared" + std::to_string(round));
    const pid_t w0 = SpawnStreamWriter(dir, 0, 0, kPerWriter);
    const pid_t w1 = SpawnStreamWriter(dir, 1, kPerWriter, 2 * kPerWriter);
    ASSERT_GT(w0, 0);
    ASSERT_GT(w1, 0);
    // Kill once the combined streams reach a round-varying size so the
    // two writers die at interleaved, unsynchronized points.
    const long long threshold =
        2 * kHeaderSize +
        kRecordSize * static_cast<long long>(2 * kPerWriter) * (round + 1) /
            (kRounds + 2);
    for (;;) {
      if (TotalSegmentBytes(dir) >= threshold) break;
      int status = 0;
      if (::waitpid(w0, &status, WNOHANG) == w0 &&
          ::waitpid(w1, &status, WNOHANG) == w1) {
        break;  // both finished before the kill point
      }
      ::usleep(500);
    }
    ::kill(w0, SIGKILL);
    ::kill(w1, SIGKILL);
    int status = 0;
    ::waitpid(w0, &status, 0);
    ::waitpid(w1, &status, 0);

    // A slot-2 reader in the same shared namespace sees the union.
    ScoreStore store;
    ScoreStore::Options options;
    options.stream_slot = 2;
    ASSERT_TRUE(store.Open(dir.string(), options)) << store.open_error();
    uint64_t intact = 0;
    for (uint64_t i = 0; i < 2 * kPerWriter; ++i) {
      double score = 0.0;
      if (!store.Lookup(kScope, Key(i), &score)) continue;
      EXPECT_DOUBLE_EQ(score, ScoreOf(i))
          << "corrupted entry " << i << " round " << round;
      ++intact;
    }
    // Sync after each Put on both sides: everything below the kill
    // threshold is durable minus at most one torn record per stream —
    // and the reader never truncates the dead siblings' files.
    const uint64_t durable_floor =
        static_cast<uint64_t>((threshold - 2 * kHeaderSize) / kRecordSize);
    EXPECT_GE(intact + 2, durable_floor) << "round " << round;
    EXPECT_EQ(store.stats().dropped_bytes, 0)
        << "reader truncated a sibling stream";
    EXPECT_GT(store.stats().peer_records, 0) << "round " << round;
    store.Close();
    fs::remove_all(dir);
  }
}

TEST(ScoreStoreCrashTest, SigkillDuringCompactionNeverLosesEntries) {
  constexpr uint64_t kN = 3000;
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    const fs::path dir = Scratch("compact" + std::to_string(round));
    {
      // Seed a multi-segment store (small segments force several
      // files, the shape compaction exists for).
      ScoreStore store;
      ScoreStore::Options options;
      options.max_segment_bytes = 4096;
      ASSERT_TRUE(store.Open(dir.string(), options));
      for (uint64_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(store.Put(kScope, Key(i), ScoreOf(i)));
      }
      ASSERT_TRUE(store.Sync());
    }
    const pid_t pid = fork();
    if (pid == 0) {
      ScoreStore store;
      ScoreStore::Options options;
      options.max_segment_bytes = 4096;
      if (!store.Open(dir.string(), options)) _exit(1);
      for (;;) store.Compact();  // killed mid-loop
    }
    ASSERT_GT(pid, 0);
    // Compaction rewrites + unlinks continuously; sleep a varying
    // beat so rounds die in different windows (mid-rewrite, between
    // rename and unlink, ...).
    ::usleep(1000 * (1 + round * 7));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFSIGNALED(status));

    // Every entry was synced before compaction started; whatever
    // window the kill hit, nothing may be lost or corrupted (old and
    // new segments can coexist — duplicates agree).
    EXPECT_EQ(VerifyZeroCorruption(dir, kN), kN) << "round " << round;
    fs::remove_all(dir);
  }
}

// -- end-to-end: kill the real CLI mid-durable-run ----------------------

int RunCli(const std::vector<std::string>& args, std::string* stdout_text) {
  std::string command = std::string("'") + CERTA_CLI_PATH + "'";
  for (const std::string& arg : args) command += " '" + arg + "'";
  command += " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[4096];
  size_t n;
  while ((n = ::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  if (stdout_text != nullptr) *stdout_text = std::move(output);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ScoreStoreCrashTest, CliKilledMidRunLeavesUsableStore) {
  const fs::path root = Scratch("cli");
  const std::string store_dir = (root / "store").string();
  auto explain_args = [&](const std::string& job) {
    return std::vector<std::string>{
        "explain",     "--dataset", "BA",  "--model",
        "svm",         "--pair",    "1",   "--triangles",
        "400",         "--job-dir", job,   "--checkpoint-every",
        "8",           "--store-dir",      store_dir};
  };
  // Reference result from an undisturbed run without any store.
  std::string reference_out;
  ASSERT_EQ(RunCli({"explain", "--dataset", "BA", "--model", "svm",
                    "--pair", "1", "--triangles", "400", "--job-dir",
                    (root / "ref").string(), "--json"},
                   &reference_out),
            0);

  // Kill a store-backed run once the store holds a few dozen records.
  {
    const std::vector<std::string> args = explain_args((root / "j1").string());
    std::vector<char*> argv;
    std::vector<std::string> storage;
    storage.push_back(CERTA_CLI_PATH);
    for (const std::string& arg : args) storage.push_back(arg);
    for (std::string& arg : storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
      ::execv(CERTA_CLI_PATH, argv.data());
      _exit(127);
    }
    ASSERT_GT(pid, 0);
    const long long threshold = kHeaderSize + 40 * kRecordSize;
    bool killed = false;
    for (;;) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) break;
      if (TotalSegmentBytes(root / "store") >= threshold) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        killed = true;
        break;
      }
      ::usleep(1000);
    }
    // Either way the store directory must open cleanly...
    ScoreStore store;
    ASSERT_TRUE(store.Open(store_dir));
    store.Close();
    if (!killed) {
      GTEST_LOG_(INFO) << "run finished before the kill point; "
                          "recovery still verified";
    }
  }
  // ...and a fresh run against the survivor store completes with a
  // byte-identical result.
  std::string after_out;
  std::vector<std::string> rerun = explain_args((root / "j2").string());
  rerun.push_back("--json");
  ASSERT_EQ(RunCli(rerun, &after_out), 0);
  EXPECT_EQ(after_out, reference_out);
  fs::remove_all(root);
}

}  // namespace
}  // namespace certa::persist
