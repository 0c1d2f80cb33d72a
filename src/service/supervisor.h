#ifndef CERTA_SERVICE_SUPERVISOR_H_
#define CERTA_SERVICE_SUPERVISOR_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace certa::service {

/// Multi-process master/worker serving (the dovecot master-service
/// model). The master is a supervisor, not a data path: it resolves and
/// holds the fleet's TCP port, forks N worker processes that each run
/// their own NetServer+JobRunner over a private job-dir partition
/// (`<root>/w<slot>`) plus one SHARED score-store directory (each
/// worker appends to its own stream inside it and reuses siblings'
/// paid scores — see WorkerLaunch::store_dir), and then only watches:
///
///   - waitpid(2) supervision distinguishing clean exit, exit-3
///     (parked work on disk), and crashes;
///   - crashed workers restart with exponential backoff; a slot that
///     keeps flapping is abandoned and its partition's parked jobs are
///     ADOPTed by a live worker's resume sweep — a SIGKILL'd worker
///     costs zero completed work;
///   - SIGTERM/SIGINT drain the whole fleet (every admitted job
///     complete-or-parked; the master exits 3 iff any worker parked);
///   - SIGHUP rolls the fleet one worker at a time (drain via
///     park/resume, respawn, wait READY) for zero-downtime upgrades;
///   - per-worker stats fan in over a control socketpair and the
///     aggregate is broadcast back so any worker can answer the wire
///     protocol's `stats` verb fleet-wide.
///
/// Socket sharing: SO_REUSEPORT by default (each worker binds its own
/// listener; the kernel spreads accepts), with a single-listener
/// fallback (master binds+listens once, workers inherit the fd) when
/// the option is unavailable or disabled.

/// Everything one forked worker needs to serve its share of the fleet.
struct WorkerLaunch {
  int slot = 0;
  /// This worker's private job-dir partition: <job_root>/w<slot>.
  std::string partition_root;
  /// The fleet's SHARED score-store directory ("" = no store). Unlike
  /// job dirs, the store is not partitioned: every worker opens the
  /// same directory in shared-stream mode with its slot as the stream
  /// slot, appending to its own `segment-w<slot>-*.seg` stream while
  /// absorbing siblings' paid scores read-only (see
  /// persist::ScoreStore::Options::stream_slot). A worker crash
  /// strands nothing and adoption never moves store data — the
  /// surviving workers already read the dead worker's stream.
  std::string store_dir;
  /// The fleet's SHARED stream directory ("" = streaming off). Like
  /// the score store it is not partitioned: every worker opens one
  /// service::StreamCoordinator on it with its slot as the stream
  /// slot, appending record ops to its own `ops-w<slot>.wal` while
  /// absorbing siblings' acked ops read-only — so an upsert acked by
  /// any worker is seen by every worker, and a crashed worker's acked
  /// ops survive in its stream for the others to keep absorbing.
  std::string stream_dir;
  /// Worker end of the master<->worker control socketpair.
  int control_fd = -1;
  /// The fleet's resolved TCP port.
  int listen_port = 0;
  /// >= 0 in single-listener fallback mode: the master's listening
  /// socket, inherited across fork(); -1 in SO_REUSEPORT mode (the
  /// worker binds its own listener with reuse_port set).
  int inherited_listen_fd = -1;
};

struct SupervisorOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the resolved port is readable via port() after
  /// Start and is printed in the LISTENING line.
  int port = 0;
  int workers = 2;
  std::string job_root = "jobs";
  /// "" = no score store.
  std::string store_dir;
  /// "" = streaming off (see WorkerLaunch::stream_dir).
  std::string stream_dir;
  /// Exponential restart backoff: initial * 2^(streak-1), capped.
  long long restart_backoff_initial_ms = 200;
  long long restart_backoff_max_ms = 4000;
  /// Consecutive fast crashes before a slot is abandoned and its
  /// partition adopted by a live worker (never applied to the last
  /// remaining slot — some listener must survive).
  int flap_limit = 5;
  /// A worker alive longer than this resets its slot's crash streak.
  long long stable_after_ms = 2000;
  /// Cadence of the stats fan-in/broadcast and of supervision polls.
  long long stats_interval_ms = 200;
  /// SIGKILL a worker that has not exited this long after a drain
  /// SIGTERM (its durable state stays resumable).
  long long shutdown_grace_ms = 30000;
  /// Force the inherited-fd single-listener mode even when
  /// SO_REUSEPORT works (tests pin the fallback via
  /// CERTA_FLEET_NO_REUSEPORT=1, which the CLI maps here).
  bool disable_reuse_port = false;
  /// Extra fds the forked child must close (the master's job-root
  /// DirLock fd, for one: flock is shared across fork, so a child that
  /// kept it would hold the lock after the master died).
  std::vector<int> close_in_child;
};

class Supervisor {
 public:
  /// Runs in the forked child; its return value is the worker's exit
  /// code (kInterruptedExitCode = parked work left on disk).
  using WorkerMain = std::function<int(const WorkerLaunch&)>;

  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Resolves + holds the listen port, installs SIGCHLD/SIGHUP
  /// handling, and forks the initial workers. False on setup failure.
  bool Start(WorkerMain worker_main, std::string* error);

  /// The supervision loop, on the calling thread. Prints one
  /// "WORKER <slot> pid=<pid>" line per (re)spawn and one
  /// "LISTENING <host>:<port>" line once every initial worker is READY
  /// (both to stdout, machine-parseable). Returns the master exit
  /// code: 0 = every job fleet-wide completed, 3 = some worker exited
  /// with parked (resumable) work, 1 = abnormal (a worker died
  /// unreaped during final drain, or the whole fleet flapped out).
  int Run();

  int port() const { return port_; }
  bool reuse_port_mode() const { return reuse_port_mode_; }

 private:
  struct Slot {
    pid_t pid = -1;
    int control_fd = -1;
    std::string line_buffer;
    /// Last STATS payload received (JSON object text).
    std::string stats_json;
    bool ready = false;
    bool abandoned = false;
    /// Exit bookkeeping.
    bool alive = false;
    int final_exit_code = -1;
    bool crashed = false;
    /// Restart policy state.
    int crash_streak = 0;
    int64_t spawned_ms = 0;
    int64_t respawn_at_ms = 0;  // 0 = no respawn pending
    /// Drain bookkeeping.
    bool term_sent = false;
    int64_t term_sent_ms = 0;
  };

  bool SetupListenSocket(std::string* error);
  bool SpawnWorker(int slot, std::string* error);
  /// One supervision beat: poll control fds + the SIGCHLD pipe, read
  /// worker lines, reap exits, fire due respawns, fan stats in/out.
  void PollOnce(int timeout_ms);
  void ReapExits();
  void HandleExit(int slot, int status);
  void ProcessControlLine(int slot, const std::string& line);
  void FireDueRespawns();
  void AdvanceRollingRestart();
  void AssignOrphans();
  void BroadcastFleetStats();
  std::string AggregateFleetJson() const;
  /// Writes one framed control line; false if the worker is gone or
  /// the write failed/was short (callers needing delivery retry).
  bool SendToWorker(int slot, const std::string& line);
  int LiveWorkerForAdoption() const;
  int64_t NowMs() const;
  std::string PartitionRoot(int slot) const;

  SupervisorOptions options_;
  WorkerMain worker_main_;
  std::vector<Slot> slots_;
  int port_ = 0;
  bool reuse_port_mode_ = true;
  /// SO_REUSEPORT mode: a bound-but-never-listening socket that pins
  /// the (possibly ephemeral) port for the fleet's whole life.
  /// Fallback mode: the one listening socket every worker inherits.
  int listen_fd_ = -1;
  bool started_ = false;
  bool announced_ = false;
  bool draining_ = false;
  /// Rolling restart state machine (-1 = idle): the slot currently
  /// being drained/respawned.
  int rolling_slot_ = -1;
  bool rolling_respawning_ = false;
  /// Partitions of abandoned slots waiting for a live worker to adopt.
  std::vector<std::string> orphan_partitions_;
  long long restarts_total_ = 0;
  long long partitions_adopted_ = 0;
  long long rolling_restarts_ = 0;
  int64_t last_broadcast_ms_ = 0;
};

/// Splits the newline-framed control-channel buffer into complete
/// lines: invokes `on_line` once per line (newline stripped, in order)
/// and erases the consumed prefix, leaving any trailing partial line in
/// `buffer` for the next read to complete. Both ends of the control
/// protocol frame with this; it is what makes a worker SIGKILLed
/// mid-`STATS` write harmless — the torn fragment stays in the buffer
/// and is dropped wholesale (never parsed) when the fd reaches EOF.
void SplitControlLines(std::string* buffer,
                       const std::function<void(const std::string&)>& on_line);

/// Worker-process side of the control channel. Owns one background
/// thread that polls the control fd for master lines — "ADOPT <dir>"
/// (resume-sweep an orphaned partition) and "FLEET <json>" (the
/// aggregate spliced into stats responses) — pushes "STATS <json>"
/// snapshots back on a fixed cadence, and requests worker shutdown when
/// the fd reaches EOF (a dead master must not leave orphan listeners).
class WorkerControl {
 public:
  struct Hooks {
    std::function<void(const std::string& partition_dir)> on_adopt;
    std::function<void(const std::string& fleet_json)> on_fleet;
    /// Returns one serialized JSON object (the worker's runner/server
    /// counters); called from the control thread.
    std::function<std::string()> stats_provider;
  };

  WorkerControl(int control_fd, long long stats_interval_ms);
  ~WorkerControl();

  WorkerControl(const WorkerControl&) = delete;
  WorkerControl& operator=(const WorkerControl&) = delete;

  /// Announces the worker's listener to the master. Call before
  /// Start() — afterwards the control thread owns all writes.
  void SendReady(int listen_port);

  void Start(Hooks hooks);
  /// Sends one final STATS snapshot and joins the thread. Idempotent.
  void Stop();

 private:
  void ThreadMain();
  void SendLine(const std::string& line);

  int fd_;
  long long stats_interval_ms_;
  Hooks hooks_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace certa::service

#endif  // CERTA_SERVICE_SUPERVISOR_H_
