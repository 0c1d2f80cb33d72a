#include "service/supervisor.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "persist/checkpoint.h"
#include "service/signals.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace certa::service {
namespace {

/// SIGCHLD self-pipe: the handler may only do async-signal-safe work,
/// so it writes one byte and the supervision loop reaps outside signal
/// context. Process-global — one Supervisor per process.
int g_sigchld_pipe[2] = {-1, -1};

void OnSigChld(int) {
  if (g_sigchld_pipe[1] >= 0) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = write(g_sigchld_pipe[1], &byte, 1);
  }
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// True when `partition_root` holds any job dir whose checkpoint is not
/// terminal-complete — i.e. resumable work a dead worker left behind.
bool PartitionHasUnfinishedJobs(const std::string& partition_root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(partition_root, ec)) {
    if (ec) return false;
    if (!entry.is_directory(ec)) continue;
    persist::JobCheckpoint checkpoint;
    if (persist::LoadCheckpoint(
            persist::CheckpointPathInDir(entry.path().string()),
            &checkpoint) &&
        checkpoint.state != "complete" && checkpoint.state != "failed") {
      return true;
    }
  }
  return false;
}

}  // namespace

void SplitControlLines(
    std::string* buffer,
    const std::function<void(const std::string&)>& on_line) {
  size_t start = 0;
  size_t newline;
  while ((newline = buffer->find('\n', start)) != std::string::npos) {
    on_line(buffer->substr(start, newline - start));
    start = newline + 1;
  }
  if (start > 0) buffer->erase(0, start);
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
}

Supervisor::~Supervisor() {
  if (listen_fd_ >= 0) close(listen_fd_);
  for (Slot& slot : slots_) {
    if (slot.control_fd >= 0) close(slot.control_fd);
  }
  for (int i = 0; i < 2; ++i) {
    if (g_sigchld_pipe[i] >= 0) {
      close(g_sigchld_pipe[i]);
      g_sigchld_pipe[i] = -1;
    }
  }
  signal(SIGCHLD, SIG_DFL);
}

int64_t Supervisor::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Supervisor::PartitionRoot(int slot) const {
  return options_.job_root + "/w" + std::to_string(slot);
}

bool Supervisor::SetupListenSocket(std::string* error) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "invalid listen address: " + options_.host;
    return false;
  }

  int one = 1;
  if (!options_.disable_reuse_port) {
    // SO_REUSEPORT mode: this socket binds but never listens — it only
    // pins the (possibly ephemeral) port so the fleet keeps its address
    // across worker deaths. Each worker binds its own listening socket
    // with SO_REUSEPORT and the kernel spreads accepts across them.
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 &&
        setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) == 0 &&
        setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) == 0 &&
        bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      listen_fd_ = fd;
      reuse_port_mode_ = true;
    } else if (fd >= 0) {
      close(fd);
    }
  }
  if (listen_fd_ < 0) {
    // Fallback: one listening socket, bound and listened here, that
    // every worker inherits across fork() and accepts from directly.
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (error)
        *error = "bind " + options_.host + ":" +
                 std::to_string(options_.port) + ": " + std::strerror(errno);
      close(fd);
      return false;
    }
    if (listen(fd, 128) != 0) {
      if (error) *error = std::string("listen: ") + std::strerror(errno);
      close(fd);
      return false;
    }
    listen_fd_ = fd;
    reuse_port_mode_ = false;
  }

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }
  return true;
}

bool Supervisor::Start(WorkerMain worker_main, std::string* error) {
  worker_main_ = std::move(worker_main);
  if (!SetupListenSocket(error)) return false;

  if (pipe(g_sigchld_pipe) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  SetNonBlocking(g_sigchld_pipe[0]);
  SetNonBlocking(g_sigchld_pipe[1]);
  struct sigaction action = {};
  action.sa_handler = OnSigChld;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupt the poll promptly
  sigaction(SIGCHLD, &action, nullptr);
  // A control-channel write can race a worker's death (SIGKILL lands
  // between two stats broadcasts, before the SIGCHLD is reaped); that
  // must surface as EPIPE on the write, not kill the supervisor.
  signal(SIGPIPE, SIG_IGN);
  InstallRollingRestartHandler();

  slots_.resize(static_cast<size_t>(options_.workers));
  for (int slot = 0; slot < options_.workers; ++slot) {
    if (!SpawnWorker(slot, error)) return false;
  }
  started_ = true;
  return true;
}

bool Supervisor::SpawnWorker(int slot, std::string* error) {
  int pair[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
    if (error) *error = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) {
    close(pair[0]);
    close(pair[1]);
    if (error) *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // -- worker process --
    // Fork hygiene before any real work: restore SIGCHLD (the worker
    // has its own children to not-care about), ignore SIGHUP (rolling
    // restart is a master concept), and close every master-side fd so
    // EOF detection and flock release keep working.
    signal(SIGCHLD, SIG_DFL);
    signal(SIGHUP, SIG_IGN);
    for (int i = 0; i < 2; ++i) {
      if (g_sigchld_pipe[i] >= 0) close(g_sigchld_pipe[i]);
    }
    close(pair[0]);
    for (const Slot& other : slots_) {
      if (other.control_fd >= 0) close(other.control_fd);
    }
    for (int fd : options_.close_in_child) {
      if (fd >= 0) close(fd);
    }
    WorkerLaunch launch;
    launch.slot = slot;
    launch.partition_root = PartitionRoot(slot);
    // The store is deliberately NOT partitioned: every worker shares
    // one directory, each writing its own slot-named segment stream.
    launch.store_dir = options_.store_dir;
    // Shared for the same reason: one stream directory, one WAL writer
    // per slot, siblings absorb each other's acked record ops.
    launch.stream_dir = options_.stream_dir;
    launch.control_fd = pair[1];
    launch.listen_port = port_;
    if (reuse_port_mode_) {
      // The reservation socket is the master's; the worker binds its
      // own listener.
      if (listen_fd_ >= 0) close(listen_fd_);
      launch.inherited_listen_fd = -1;
    } else {
      launch.inherited_listen_fd = listen_fd_;
    }
    int code = 1;
    if (worker_main_) code = worker_main_(launch);
    std::fflush(nullptr);
    _exit(code & 0xff);
  }

  // -- master --
  close(pair[1]);
  SetNonBlocking(pair[0]);
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (state.control_fd >= 0) close(state.control_fd);
  state.pid = pid;
  state.control_fd = pair[0];
  state.line_buffer.clear();
  state.ready = false;
  state.alive = true;
  state.crashed = false;
  state.spawned_ms = NowMs();
  state.respawn_at_ms = 0;
  state.term_sent = false;
  state.term_sent_ms = 0;
  std::printf("WORKER %d pid=%d\n", slot, static_cast<int>(pid));
  std::fflush(stdout);
  return true;
}

bool Supervisor::SendToWorker(int slot, const std::string& line) {
  const Slot& state = slots_[static_cast<size_t>(slot)];
  if (!state.alive || state.control_fd < 0) return false;
  std::string framed = line + "\n";
  // A worker that died mid-send (EPIPE — SIGPIPE is ignored) is reaped
  // on the next beat; callers that need delivery (ADOPT) retry on a
  // false return, a dropped FLEET refresh just waits for the next one.
  ssize_t n = write(state.control_fd, framed.data(), framed.size());
  return n == static_cast<ssize_t>(framed.size());
}

void Supervisor::ProcessControlLine(int slot, const std::string& line) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (line.rfind("READY ", 0) == 0 || line == "READY") {
    state.ready = true;
    return;
  }
  if (line.rfind("STATS ", 0) == 0) {
    state.stats_json = line.substr(6);
    return;
  }
  // Unknown lines are ignored: the control protocol is ours on both
  // ends, so anything else is a version skew best tolerated silently.
}

void Supervisor::ReapExits() {
  for (;;) {
    int status = 0;
    pid_t pid = waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].alive && slots_[slot].pid == pid) {
        HandleExit(static_cast<int>(slot), status);
        break;
      }
    }
  }
}

void Supervisor::HandleExit(int slot, int status) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  state.alive = false;
  if (state.control_fd >= 0) {
    // Drain any final STATS the worker flushed before exiting.
    char buffer[4096];
    ssize_t n;
    while ((n = read(state.control_fd, buffer, sizeof(buffer))) > 0) {
      state.line_buffer.append(buffer, static_cast<size_t>(n));
    }
    SplitControlLines(&state.line_buffer, [this, slot](
                                              const std::string& line) {
      ProcessControlLine(slot, line);
    });
    // Anything left is a line the worker died mid-write (e.g. SIGKILL
    // landed inside a STATS send). It is torn by definition — drop it
    // whole rather than let a truncated JSON fragment reach the
    // aggregate.
    state.line_buffer.clear();
    close(state.control_fd);
    state.control_fd = -1;
  }
  state.ready = false;

  const bool clean_exit = WIFEXITED(status);
  const int exit_code = clean_exit ? WEXITSTATUS(status) : -1;
  state.crashed = !clean_exit;
  state.final_exit_code = exit_code;

  if (draining_) {
    std::fprintf(stderr, "supervisor: worker %d (pid %d) exited %s during drain\n",
                 slot, static_cast<int>(state.pid),
                 clean_exit ? std::to_string(exit_code).c_str() : "on signal");
    return;
  }
  if (rolling_slot_ == slot && !rolling_respawning_) {
    // The rolling restart's planned drain: respawn immediately. The
    // exit code is irrelevant — parked jobs are resumed by the
    // replacement's startup sweep.
    std::string error;
    if (SpawnWorker(slot, &error)) {
      ++restarts_total_;
      rolling_respawning_ = true;
    } else {
      std::fprintf(stderr, "supervisor: rolling respawn of worker %d failed: %s\n",
                   slot, error.c_str());
      rolling_slot_ = -1;
    }
    return;
  }

  // Unexpected exit: crash, or a spontaneous clean/parked exit. Either
  // way the listener count just dropped — restart with backoff.
  const int64_t lifetime_ms = NowMs() - state.spawned_ms;
  state.crash_streak =
      lifetime_ms >= options_.stable_after_ms ? 1 : state.crash_streak + 1;
  std::fprintf(stderr,
               "supervisor: worker %d (pid %d) %s after %lldms (streak %d)\n",
               slot, static_cast<int>(state.pid),
               clean_exit ? ("exited " + std::to_string(exit_code)).c_str()
                          : "crashed",
               static_cast<long long>(lifetime_ms), state.crash_streak);

  int peers = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (static_cast<int>(i) != slot && !slots_[i].abandoned) ++peers;
  }
  if (state.crash_streak > options_.flap_limit && peers > 0) {
    // Flap cap: stop burning restarts on this slot; its partition's
    // unfinished jobs move to a live worker's resume sweep instead.
    state.abandoned = true;
    orphan_partitions_.push_back(PartitionRoot(slot));
    std::fprintf(stderr,
                 "supervisor: worker %d abandoned after %d fast crashes; "
                 "partition %s queued for adoption\n",
                 slot, state.crash_streak, PartitionRoot(slot).c_str());
    return;
  }
  int64_t backoff = options_.restart_backoff_initial_ms;
  for (int i = 1; i < state.crash_streak; ++i) {
    backoff = std::min<int64_t>(backoff * 2, options_.restart_backoff_max_ms);
  }
  state.respawn_at_ms = NowMs() + backoff;
}

void Supervisor::FireDueRespawns() {
  if (draining_) return;
  const int64_t now = NowMs();
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    Slot& state = slots_[slot];
    if (state.alive || state.abandoned || state.respawn_at_ms == 0) continue;
    if (now < state.respawn_at_ms) continue;
    std::string error;
    if (SpawnWorker(static_cast<int>(slot), &error)) {
      ++restarts_total_;
    } else {
      std::fprintf(stderr, "supervisor: respawn of worker %zu failed: %s\n",
                   slot, error.c_str());
      state.respawn_at_ms = now + options_.restart_backoff_max_ms;
    }
  }
}

void Supervisor::AssignOrphans() {
  if (orphan_partitions_.empty()) return;
  const int adopter = LiveWorkerForAdoption();
  if (adopter < 0) return;  // retry when a worker is READY again
  std::vector<std::string> undelivered;
  for (const std::string& partition : orphan_partitions_) {
    // Delivery is checked: the adopter can die between the liveness
    // check and the write, and a partition whose ADOPT was never read
    // would otherwise be stranded. Undelivered ones retry next beat.
    if (!SendToWorker(adopter, "ADOPT " + partition)) {
      undelivered.push_back(partition);
      continue;
    }
    ++partitions_adopted_;
    std::fprintf(stderr, "supervisor: partition %s adopted by worker %d\n",
                 partition.c_str(), adopter);
  }
  orphan_partitions_ = std::move(undelivered);
}

int Supervisor::LiveWorkerForAdoption() const {
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].alive && slots_[slot].ready) {
      return static_cast<int>(slot);
    }
  }
  return -1;
}

void Supervisor::AdvanceRollingRestart() {
  if (draining_) return;
  if (rolling_slot_ < 0) {
    if (!ConsumeRollingRestartRequest()) return;
    // Find the first live slot to roll.
    rolling_slot_ = -1;
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (!slots_[slot].abandoned) {
        rolling_slot_ = static_cast<int>(slot);
        break;
      }
    }
    if (rolling_slot_ < 0) return;
    ++rolling_restarts_;
    rolling_respawning_ = false;
    std::fprintf(stderr, "supervisor: rolling restart started\n");
    Slot& state = slots_[static_cast<size_t>(rolling_slot_)];
    if (state.alive) {
      state.term_sent = true;
      state.term_sent_ms = NowMs();
      kill(state.pid, SIGTERM);
    } else {
      // Already down (mid-backoff): skip straight to the respawn.
      std::string error;
      if (SpawnWorker(rolling_slot_, &error)) {
        ++restarts_total_;
        rolling_respawning_ = true;
      } else {
        rolling_slot_ = -1;
      }
    }
    return;
  }
  if (!rolling_respawning_) return;  // waiting for the drain exit
  Slot& current = slots_[static_cast<size_t>(rolling_slot_)];
  if (!current.alive) return;  // respawn crashed; HandleExit rescheduled it
  if (!current.ready) return;  // replacement still starting up
  // Replacement serving: advance to the next slot (or finish).
  int next = -1;
  for (size_t slot = static_cast<size_t>(rolling_slot_) + 1;
       slot < slots_.size(); ++slot) {
    if (!slots_[slot].abandoned) {
      next = static_cast<int>(slot);
      break;
    }
  }
  if (next < 0) {
    rolling_slot_ = -1;
    std::fprintf(stderr, "supervisor: rolling restart complete\n");
    return;
  }
  rolling_slot_ = next;
  rolling_respawning_ = false;
  Slot& state = slots_[static_cast<size_t>(next)];
  if (state.alive) {
    state.term_sent = true;
    state.term_sent_ms = NowMs();
    kill(state.pid, SIGTERM);
  } else {
    std::string error;
    if (SpawnWorker(next, &error)) {
      ++restarts_total_;
      rolling_respawning_ = true;
    } else {
      rolling_slot_ = -1;
    }
  }
}

std::string Supervisor::AggregateFleetJson() const {
  // Sum every numeric field of each worker's latest "runner"/"server"
  // sections. Eventually consistent by design: each worker reports on
  // the stats cadence, so the aggregate trails per-worker truth by up
  // to one interval (documented in docs/SERVICE.md).
  std::map<std::string, long long> runner_sums;
  std::map<std::string, long long> server_sums;
  std::map<std::string, long long> store_sums;
  int workers_live = 0;
  int workers_ready = 0;
  const auto sum_section = [](const JsonValue& parsed, const char* section,
                              std::map<std::string, long long>* sums) {
    const JsonValue* object = parsed.Find(section);
    if (object == nullptr || !object->is_object()) return;
    for (const auto& [key, value] : object->object_items()) {
      if (value.is_number()) {
        (*sums)[key] +=
            value.is_integer() ? value.int_value()
                               : static_cast<long long>(value.number_value());
      }
    }
  };
  for (const Slot& slot : slots_) {
    if (slot.alive) ++workers_live;
    if (slot.alive && slot.ready) ++workers_ready;
    if (slot.stats_json.empty()) continue;
    JsonValue parsed;
    std::string parse_error;
    if (!JsonValue::Parse(slot.stats_json, &parsed, &parse_error)) continue;
    sum_section(parsed, "runner", &runner_sums);
    sum_section(parsed, "server", &server_sums);
    // Per-worker views of the one shared store: `hits`/`peer_hits`
    // sum meaningfully (each worker's lookups are disjoint traffic);
    // `entries` sums to fleet-wide bytes-in-memory, not unique keys.
    sum_section(parsed, "store", &store_sums);
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("workers_configured");
  json.Int(options_.workers);
  json.Key("workers_live");
  json.Int(workers_live);
  json.Key("workers_ready");
  json.Int(workers_ready);
  json.Key("restarts");
  json.Int(restarts_total_);
  json.Key("partitions_adopted");
  json.Int(partitions_adopted_);
  json.Key("rolling_restarts");
  json.Int(rolling_restarts_);
  json.Key("runner");
  json.BeginObject();
  for (const auto& [key, value] : runner_sums) {
    json.Key(key);
    json.Int(value);
  }
  json.EndObject();
  json.Key("server");
  json.BeginObject();
  for (const auto& [key, value] : server_sums) {
    json.Key(key);
    json.Int(value);
  }
  json.EndObject();
  json.Key("store");
  json.BeginObject();
  for (const auto& [key, value] : store_sums) {
    json.Key(key);
    json.Int(value);
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

void Supervisor::BroadcastFleetStats() {
  const int64_t now = NowMs();
  if (now - last_broadcast_ms_ < options_.stats_interval_ms) return;
  last_broadcast_ms_ = now;
  const std::string aggregate = AggregateFleetJson();
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].alive && slots_[slot].ready) {
      SendToWorker(static_cast<int>(slot), "FLEET " + aggregate);
    }
  }
}

void Supervisor::PollOnce(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<int> fd_slots;
  fds.push_back({g_sigchld_pipe[0], POLLIN, 0});
  fd_slots.push_back(-1);
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].alive && slots_[slot].control_fd >= 0) {
      fds.push_back({slots_[slot].control_fd, POLLIN, 0});
      fd_slots.push_back(static_cast<int>(slot));
    }
  }
  int ready = poll(fds.data(), fds.size(), timeout_ms);
  if (ready > 0) {
    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (read(g_sigchld_pipe[0], drain, sizeof(drain)) > 0) {
      }
    }
    for (size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Slot& state = slots_[static_cast<size_t>(fd_slots[i])];
      if (state.control_fd < 0) continue;
      char buffer[4096];
      ssize_t n;
      while ((n = read(state.control_fd, buffer, sizeof(buffer))) > 0) {
        state.line_buffer.append(buffer, static_cast<size_t>(n));
      }
      const int line_slot = fd_slots[i];
      SplitControlLines(&state.line_buffer, [this, line_slot](
                                                const std::string& line) {
        ProcessControlLine(line_slot, line);
      });
      // EOF without exit is fine: the exit is reaped via SIGCHLD.
    }
  }
  // Reap unconditionally: a SIGCHLD that arrived before the handler was
  // polled, or EINTR races, must not strand a zombie.
  ReapExits();

  // Escalate drains that blew the grace window.
  const int64_t now = NowMs();
  for (Slot& state : slots_) {
    if (state.alive && state.term_sent &&
        now - state.term_sent_ms > options_.shutdown_grace_ms) {
      std::fprintf(stderr,
                   "supervisor: worker pid %d ignored SIGTERM for %lldms; "
                   "killing (its durable state stays resumable)\n",
                   static_cast<int>(state.pid),
                   static_cast<long long>(options_.shutdown_grace_ms));
      kill(state.pid, SIGKILL);
      state.term_sent_ms = now;  // one escalation per window
    }
  }

  FireDueRespawns();
  AssignOrphans();
  AdvanceRollingRestart();
  BroadcastFleetStats();
}

int Supervisor::Run() {
  if (!started_) return 1;

  // Phase 1: wait until every initial worker is READY before announcing
  // — a connect after LISTENING must reach a live listener.
  while (!ShutdownRequested() && !announced_) {
    bool all_ready = true;
    for (const Slot& slot : slots_) {
      if (!slot.abandoned && !(slot.alive && slot.ready)) all_ready = false;
    }
    if (all_ready) {
      std::printf("LISTENING %s:%d\n", options_.host.c_str(), port_);
      std::fflush(stdout);
      announced_ = true;
      break;
    }
    bool any_possible = false;
    for (const Slot& slot : slots_) {
      if (!slot.abandoned) any_possible = true;
    }
    if (!any_possible) {
      std::fprintf(stderr, "supervisor: every worker slot flapped out before READY\n");
      return 1;
    }
    PollOnce(static_cast<int>(options_.stats_interval_ms));
  }

  // Phase 2: supervise until a shutdown signal.
  while (!ShutdownRequested()) {
    PollOnce(static_cast<int>(options_.stats_interval_ms));
    bool any_possible = false;
    for (const Slot& slot : slots_) {
      if (!slot.abandoned) any_possible = true;
    }
    if (!any_possible) {
      std::fprintf(stderr, "supervisor: every worker slot flapped out; exiting\n");
      return 1;
    }
  }

  // Phase 3: fleet drain. SIGTERM every live worker (each parks its
  // running jobs resumably and exits), then wait for all of them.
  std::fprintf(stderr, "supervisor: drain started\n");
  draining_ = true;
  rolling_slot_ = -1;
  const int64_t drain_start = NowMs();
  for (Slot& state : slots_) {
    state.respawn_at_ms = 0;
    if (state.alive && !state.term_sent) {
      state.term_sent = true;
      state.term_sent_ms = drain_start;
      kill(state.pid, SIGTERM);
    }
  }
  for (;;) {
    bool any_alive = false;
    for (const Slot& slot : slots_) {
      if (slot.alive) any_alive = true;
    }
    if (!any_alive) break;
    PollOnce(50);
  }

  // Exit semantics: 3 iff any worker left parked (resumable) work —
  // either it said so (exit 3) or it died leaving non-complete
  // checkpoints in its partition. 1 for abnormal deaths with nothing
  // recoverable pending. 0 = everything fleet-wide completed.
  bool any_parked = false;
  bool any_abnormal = false;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    const Slot& state = slots_[slot];
    if (state.final_exit_code == kInterruptedExitCode) any_parked = true;
    if (state.crashed ||
        (state.final_exit_code > 0 &&
         state.final_exit_code != kInterruptedExitCode)) {
      any_abnormal = true;
    }
    if ((state.crashed || state.abandoned) &&
        PartitionHasUnfinishedJobs(PartitionRoot(static_cast<int>(slot)))) {
      any_parked = true;
    }
  }
  for (const std::string& partition : orphan_partitions_) {
    if (PartitionHasUnfinishedJobs(partition)) any_parked = true;
  }
  std::fprintf(stderr,
               "supervisor: fleet drained (restarts=%lld adopted=%lld "
               "rolling=%lld)\n",
               restarts_total_, partitions_adopted_, rolling_restarts_);
  if (any_parked) return kInterruptedExitCode;
  if (any_abnormal) return 1;
  return 0;
}

// -- worker side --

WorkerControl::WorkerControl(int control_fd, long long stats_interval_ms)
    : fd_(control_fd), stats_interval_ms_(std::max(20LL, stats_interval_ms)) {}

WorkerControl::~WorkerControl() { Stop(); }

void WorkerControl::SendLine(const std::string& line) {
  if (fd_ < 0) return;
  std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = write(fd_, framed.data() + sent, framed.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // master gone; EOF handling shuts the worker down
  }
}

void WorkerControl::SendReady(int listen_port) {
  SendLine("READY " + std::to_string(listen_port));
}

void WorkerControl::Start(Hooks hooks) {
  if (running_ || fd_ < 0) return;
  hooks_ = std::move(hooks);
  stop_.store(false);
  running_ = true;
  thread_ = std::thread([this] { ThreadMain(); });
}

void WorkerControl::Stop() {
  if (!running_) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  running_ = false;
  // One last snapshot so the master's final aggregate includes this
  // worker's complete counters.
  if (hooks_.stats_provider) SendLine("STATS " + hooks_.stats_provider());
}

void WorkerControl::ThreadMain() {
  std::string buffer;
  auto last_stats = std::chrono::steady_clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int timeout =
        static_cast<int>(std::min<long long>(50, stats_interval_ms_));
    int ready = poll(&pfd, 1, timeout);
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      char chunk[4096];
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buffer.append(chunk, static_cast<size_t>(n));
        SplitControlLines(&buffer, [this](const std::string& line) {
          if (line.rfind("ADOPT ", 0) == 0) {
            if (hooks_.on_adopt) hooks_.on_adopt(line.substr(6));
          } else if (line.rfind("FLEET ", 0) == 0) {
            if (hooks_.on_fleet) hooks_.on_fleet(line.substr(6));
          }
        });
      } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR &&
                            errno != EWOULDBLOCK)) {
        // Master died: a fleet worker must not outlive its supervisor
        // as an unsupervised orphan listener. Park and exit.
        std::fprintf(stderr,
                     "worker: control channel lost (supervisor gone); "
                     "parking and exiting\n");
        RequestShutdown();
        return;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (std::chrono::duration_cast<std::chrono::milliseconds>(now - last_stats)
            .count() >= stats_interval_ms_) {
      last_stats = now;
      if (hooks_.stats_provider) SendLine("STATS " + hooks_.stats_provider());
    }
  }
}

}  // namespace certa::service
