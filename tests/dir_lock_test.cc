// DirLock exclusivity tests (label: fleet): the flock-based directory
// lock that guarantees one process per job-root / store-dir / job-dir
// namespace. Covers in-process conflicts, real two-process contention
// over fork(), automatic release on holder death (the property the
// fleet's crash recovery leans on — a SIGKILL'd worker must not wedge
// its partition), the ScoreStore's opt-in exclusive_lock, the CLI
// refusing to start a second serve on a busy job root, and the CLI's
// single-job runs leaving a store a live serve holds untouched.

#include "persist/dir_lock.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "persist/checkpoint.h"
#include "persist/score_store.h"

#ifndef CERTA_CLI_PATH
#error "CERTA_CLI_PATH must be defined to the certa CLI binary path"
#endif

namespace certa::persist {
namespace {

namespace fs = std::filesystem;

fs::path Scratch(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("certa_dirlock_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(DirLockTest, AcquireCreatesDirRecordsPidAndReleases) {
  const fs::path root = Scratch("basic");
  const std::string dir = (root / "made" / "by" / "lock").string();
  DirLock lock;
  std::string error;
  ASSERT_TRUE(lock.Acquire(dir, &error)) << error;
  EXPECT_TRUE(lock.held());
  EXPECT_TRUE(fs::exists(fs::path(dir) / DirLock::LockFileName()));

  std::ifstream in(lock.path());
  long long pid = 0;
  in >> pid;
  EXPECT_EQ(pid, static_cast<long long>(::getpid()));

  lock.Release();
  EXPECT_FALSE(lock.held());
  // The lock file stays (unlinking would race a concurrent acquirer),
  // but the directory is immediately re-lockable.
  ASSERT_TRUE(lock.Acquire(dir, &error)) << error;
  fs::remove_all(root);
}

TEST(DirLockTest, SecondHolderRejectedAndErrorNamesTheHolder) {
  const fs::path root = Scratch("conflict");
  const std::string dir = root.string();
  DirLock first;
  std::string error;
  ASSERT_TRUE(first.Acquire(dir, &error)) << error;

  // flock ownership is per open file description, so even a second
  // descriptor in the same process conflicts — exactly what guards two
  // JobRunner threads racing one job dir.
  DirLock second;
  EXPECT_FALSE(second.Acquire(dir, &error));
  EXPECT_FALSE(second.held());
  EXPECT_NE(error.find("locked"), std::string::npos) << error;
  EXPECT_NE(error.find(std::to_string(::getpid())), std::string::npos)
      << error;

  first.Release();
  ASSERT_TRUE(second.Acquire(dir, &error)) << error;
  fs::remove_all(root);
}

TEST(DirLockTest, TwoProcessContentionThenHandoff) {
  const fs::path root = Scratch("twoproc");
  const std::string dir = root.string();
  DirLock mine;
  std::string error;
  ASSERT_TRUE(mine.Acquire(dir, &error)) << error;

  // While this process holds the lock, a forked child must fail.
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    DirLock theirs;
    std::string child_error;
    _exit(theirs.Acquire(dir, &child_error) ? 10 : 11);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 11) << "child acquired a held lock";

  // After release, a fresh child succeeds.
  mine.Release();
  child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    DirLock theirs;
    std::string child_error;
    _exit(theirs.Acquire(dir, &child_error) ? 10 : 11);
  }
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 10);
  fs::remove_all(root);
}

TEST(DirLockTest, LockDiesWithTheHolderProcess) {
  const fs::path root = Scratch("death");
  const std::string dir = root.string();
  int ready[2];
  ASSERT_EQ(pipe(ready), 0);

  // The child takes the lock and exits WITHOUT releasing (_exit skips
  // destructors) — the crash-recovery case. The kernel must release.
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(ready[0]);
    DirLock theirs;
    std::string child_error;
    const char ok = theirs.Acquire(dir, &child_error) ? '1' : '0';
    ssize_t n = write(ready[1], &ok, 1);
    (void)n;
    _exit(0);  // lock fd still open; never Released
  }
  close(ready[1]);
  char ok = '0';
  ASSERT_EQ(read(ready[0], &ok, 1), 1);
  close(ready[0]);
  ASSERT_EQ(ok, '1');
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);

  DirLock mine;
  std::string error;
  EXPECT_TRUE(mine.Acquire(dir, &error))
      << "dead holder still owns the lock: " << error;
  fs::remove_all(root);
}

TEST(DirLockTest, ScoreStoreExclusiveLockIsOptIn) {
  const fs::path root = Scratch("store");
  const std::string dir = (root / "store").string();
  ScoreStore::Options locked;
  locked.exclusive_lock = true;

  ScoreStore first;
  ASSERT_TRUE(first.Open(dir, locked)) << first.open_error();

  ScoreStore second;
  EXPECT_FALSE(second.Open(dir, locked));
  EXPECT_NE(second.open_error().find("locked"), std::string::npos)
      << second.open_error();

  // Lock-free open (the default) still works against a locked store —
  // read-only tooling may inspect a live store's segments.
  ScoreStore reader;
  EXPECT_TRUE(reader.Open(dir)) << reader.open_error();
  reader.Close();

  // Close releases; the namespace is reusable.
  first.Close();
  EXPECT_TRUE(second.Open(dir, locked)) << second.open_error();
  second.Close();
  fs::remove_all(root);
}

TEST(DirLockTest, ServeCliRefusesBusyJobRoot) {
  const fs::path root = Scratch("cli");
  const std::string job_root = (root / "jobs").string();

  // First serve: stdin held open through a pipe so it keeps running.
  FILE* serve = ::popen((std::string(CERTA_CLI_PATH) + " serve --job-root " +
                         job_root + " > /dev/null 2>&1")
                            .c_str(),
                        "w");
  ASSERT_NE(serve, nullptr);
  // Wait until the first serve actually holds the lock.
  const fs::path lock_file = fs::path(job_root) / DirLock::LockFileName();
  for (int i = 0; i < 400 && !fs::exists(lock_file); ++i) {
    usleep(25 * 1000);
  }
  ASSERT_TRUE(fs::exists(lock_file));
  usleep(100 * 1000);  // let it flock, not just create the file

  // Second serve over the same root: fails fast with "busy", touching
  // nothing.
  FILE* second = ::popen((std::string(CERTA_CLI_PATH) + " serve --job-root " +
                          job_root + " --jobs /dev/null 2>&1")
                             .c_str(),
                         "r");
  ASSERT_NE(second, nullptr);
  std::string output;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), second)) > 0) {
    output.append(buffer, n);
  }
  const int second_status = ::pclose(second);
  ASSERT_TRUE(WIFEXITED(second_status));
  EXPECT_EQ(WEXITSTATUS(second_status), 1) << output;
  EXPECT_NE(output.find("busy"), std::string::npos) << output;

  // EOF on stdin drains the first serve cleanly.
  const int first_status = ::pclose(serve);
  ASSERT_TRUE(WIFEXITED(first_status));
  EXPECT_EQ(WEXITSTATUS(first_status), 0);
  fs::remove_all(root);
}

/// Runs `certa <args>`; captures stdout+stderr, returns the exit code.
int RunCli(const std::string& args, std::string* output) {
  FILE* pipe =
      ::popen((std::string(CERTA_CLI_PATH) + " " + args + " 2>&1").c_str(),
              "r");
  if (pipe == nullptr) return -1;
  output->clear();
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output->append(buffer, n);
  }
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Every file under `dir`, by relative path.
std::map<std::string, std::string> Snapshot(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[fs::relative(entry.path(), dir).string()] = ReadAll(entry.path());
    }
  }
  return files;
}

TEST(DirLockTest, SingleJobRunsLeaveAStoreALiveServeHoldsUntouched) {
  const fs::path root = Scratch("busy_store");
  const fs::path store = root / "store";

  // A serve holding the store: stdin held open through a pipe so it
  // keeps running, and one job line so the store has segments to append
  // to or cut.
  FILE* serve = ::popen((std::string(CERTA_CLI_PATH) + " serve --job-root " +
                         (root / "jobs").string() + " --store-dir " +
                         store.string() + " > /dev/null 2>&1")
                            .c_str(),
                        "w");
  ASSERT_NE(serve, nullptr);
  std::fputs("id=seed dataset=FZ model=svm pair=1 triangles=20\n", serve);
  std::fflush(serve);
  const std::string seed_checkpoint =
      CheckpointPathInDir((root / "jobs" / "seed").string());
  bool seeded = false;
  for (int i = 0; i < 2400 && !seeded; ++i) {
    JobCheckpoint checkpoint;
    seeded = LoadCheckpoint(seed_checkpoint, &checkpoint) &&
             checkpoint.state == "complete";
    if (!seeded) usleep(25 * 1000);
  }
  ASSERT_TRUE(seeded);
  const std::map<std::string, std::string> before = Snapshot(store);
  ASSERT_GT(before.size(), 1u);

  const std::string request =
      "--dataset FZ --model svm --pair 0 --triangles 20";
  std::string output;
  EXPECT_EQ(RunCli("explain " + request + " --job-dir " +
                       (root / "j1").string() + " --store-dir " +
                       store.string(),
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("cannot open score store"), std::string::npos)
      << output;
  EXPECT_NE(output.find("running without"), std::string::npos) << output;

  // `serve --resume` of a dir holding only a spec-only queued
  // checkpoint (what durable admission leaves before a job starts).
  JobCheckpoint queued;
  queued.request.id = "j2";
  queued.request.dataset = "FZ";
  queued.request.model = "svm";
  queued.request.pair_index = 0;
  queued.request.triangles = 20;
  queued.state = "queued";
  fs::create_directories(root / "j2");
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointPathInDir((root / "j2").string()), queued));
  EXPECT_EQ(RunCli("serve --resume " + (root / "j2").string() +
                       " --store-dir " + store.string(),
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("cannot open score store"), std::string::npos)
      << output;
  EXPECT_NE(output.find("running without"), std::string::npos) << output;

  EXPECT_TRUE(Snapshot(store) == before)
      << "a single-job run wrote to a store a live serve holds";

  // Both results equal a store-less run's.
  ASSERT_EQ(RunCli("explain " + request + " --job-dir " +
                       (root / "j3").string(),
                   &output),
            0)
      << output;
  const std::string reference = ReadAll(root / "j3" / "result.json");
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(ReadAll(root / "j1" / "result.json"), reference);
  EXPECT_EQ(ReadAll(root / "j2" / "result.json"), reference);

  const int serve_status = ::pclose(serve);
  ASSERT_TRUE(WIFEXITED(serve_status));
  EXPECT_EQ(WEXITSTATUS(serve_status), 0);
  fs::remove_all(root);
}

}  // namespace
}  // namespace certa::persist
