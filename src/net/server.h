#ifndef CERTA_NET_SERVER_H_
#define CERTA_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/job_runner.h"
#include "service/stream_coordinator.h"

namespace certa::net {

/// TCP front-end configuration. The server *owns* its JobRunner (built
/// from `runner`) so the progress/terminal hooks are wired before the
/// first worker can produce an event.
struct NetServerOptions {
  /// Loopback by default: this is an operator-local control socket, not
  /// an internet-facing service.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (kernel-assigned; read back via port()) — how tests
  /// avoid port collisions.
  int port = 0;
  /// Accept backlog + concurrent connection cap; the listener answers
  /// over-limit connects with a too_many_connections error, then closes.
  int max_connections = 64;
  /// One frame line may not exceed this (submit requests are small;
  /// anything bigger is a confused or hostile client).
  size_t max_frame_bytes = 64 * 1024;
  /// Per-connection outbound buffer cap. Droppable frames (progress
  /// events) are shed first; if a required response still does not fit,
  /// the connection is closed as a slow reader. Protects the server's
  /// memory from clients that stop reading.
  size_t max_write_buffer = 1 << 20;
  /// Poll timeout — bounds shutdown-flag latency when no fd is ready.
  int poll_interval_ms = 50;
  /// Fleet mode: bind with SO_REUSEPORT so N worker processes can each
  /// own a listener on the same port and let the kernel spread accepts
  /// across them. Start() fails if the option cannot be set — the
  /// master then falls back to inherited_listen_fd.
  bool reuse_port = false;
  /// Fleet fallback mode: adopt this already-bound, already-listening
  /// socket (inherited across fork from the master) instead of creating
  /// one. Every worker accepts from the shared queue. Takes precedence
  /// over reuse_port. The server owns (closes) the fd.
  int inherited_listen_fd = -1;
  /// Sibling workers' job roots. status/result for a job this runner
  /// has never seen fall back to scanning these partitions on disk —
  /// checkpoints and result.json are the durable truth, so a client
  /// reconnecting into a different worker after a restart still gets
  /// its answer. The local runner.job_root is always checked first.
  std::vector<std::string> peer_job_roots;
  /// External stop flag polled every loop iteration (the CLI passes
  /// service::ShutdownFlag() so SIGTERM starts the drain). May be null.
  /// When it ends the loop, running jobs park resumable and the loop
  /// exits promptly (the signal semantics of the stdin serve loop);
  /// Stop(drain) decides for itself.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Streaming coordinator (not owned; nullptr = streaming off — the
  /// v2 verbs answer `streaming_unavailable`). The event loop absorbs
  /// sibling streams through it each beat and fans invalidation events
  /// out to subscribed connections. The caller typically also points
  /// runner.dataset_provider at it so jobs explain the live overlays.
  service::StreamCoordinator* stream = nullptr;
  /// Serving processes behind this endpoint, advertised in the ping
  /// `capabilities` block (fleet masters pass the fleet size).
  int fleet_workers = 1;
  /// Forwarded into the owned JobRunner.
  service::JobRunnerOptions runner;
};

/// Poll(2)-based, single-threaded socket front-end over the durable
/// JobRunner. One event-loop thread owns every socket; worker threads
/// never touch a connection — they hand events over through a
/// mutex-guarded queue plus a self-pipe wakeup, and the loop fans them
/// out to watching connections.
///
/// Overload policy matches the runner's (reject-new-before-
/// degrade-running): admission rejections surface as stable error
/// codes, progress events are shed before responses, and a slow reader
/// is disconnected rather than allowed to balloon server memory.
///
/// Shutdown (Stop or stop_flag): the listener closes first so no new
/// work arrives, every connection gets a shutdown event and a flush
/// window, then the runner drains or parks. Every admitted job ends
/// complete or resumable-on-disk — the socket layer adds no new way to
/// lose work.
class NetServer {
 public:
  explicit NetServer(NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens (and resolves an ephemeral port). False on error.
  bool Start(std::string* error);

  /// Runs the event loop on the calling thread until Stop() or the
  /// stop_flag fires, then performs the drain sequence. Requires
  /// Start().
  void Run();

  /// Start() + Run() on an internal thread — for tests and embedding.
  bool StartBackground(std::string* error);

  /// Requests shutdown: `drain` lets queued + running jobs finish;
  /// otherwise running jobs park (resumable) and queued jobs are parked
  /// back untouched. Async-signal-safe (flag + self-pipe write).
  /// Blocks until the loop exits only when called off the loop thread
  /// after StartBackground.
  void Stop(bool drain);

  /// The bound port (valid after Start).
  int port() const { return port_; }

  ServerStats stats() const;
  service::JobRunner& runner() { return *runner_; }

  /// Installs the latest fleet-wide aggregate (a serialized JSON
  /// object, broadcast by the master over the control channel) to be
  /// spliced into every stats response. Thread-safe; empty clears.
  void SetFleetStats(std::string fleet_json);

 private:
  /// Per-connection state machine: buffered reads until '\n', buffered
  /// writes drained on POLLOUT, watch-set membership for event fanout.
  struct Conn {
    int fd = -1;
    std::string read_buffer;
    std::string write_buffer;
    /// Frames already queued ahead of the first droppable byte can't be
    /// shed; progress events are appended with their offsets recorded
    /// so backpressure can drop them innermost-first.
    bool closing = false;  // flush write buffer, then close
    std::set<std::string> watched_jobs;
    /// Negotiated wire version: starts at 1, sticks at the highest
    /// schema_version any frame on this connection declared (never
    /// downgraded) — every reply is stamped with it, so v1 clients
    /// keep receiving v1-stamped frames from a v2 server.
    int schema_version = 1;
    /// A legacy-key deprecation note was already surfaced here (the
    /// once-per-connection cap on migration nudges).
    bool deprecation_noted = false;
    /// Subscribed to asynchronous invalidation events (v2
    /// `invalidations` verb).
    bool wants_invalidations = false;
  };

  /// Cross-thread event hand-off (worker → loop). Progress frames are
  /// coalesced per job: only the newest unsent snapshot survives.
  struct PendingEvents {
    std::map<std::string, std::string> progress;  // job_id → frame
    std::vector<std::string> terminal_frames;
    std::vector<std::string> terminal_job_ids;
  };

  void Loop();
  void AcceptNew();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  void HandleFrame(Conn* conn, std::string_view line);
  void HandleSubmit(Conn* conn, const ClientFrame& frame);
  void HandleStatus(Conn* conn, const std::string& job_id);
  void HandleResult(Conn* conn, const std::string& job_id);
  /// The v2 streaming verbs (options_.stream == nullptr answers
  /// `streaming_unavailable`).
  void HandleUpsert(Conn* conn, const ClientFrame& frame);
  void HandleRemove(Conn* conn, const ClientFrame& frame);
  void HandleMatch(Conn* conn, const ClientFrame& frame);
  void HandleInvalidations(Conn* conn, const ClientFrame& frame);
  /// `result` fetch for a job the coordinator marked stale: answers
  /// `stale_recomputing`, and — when the job dir is this runner's own
  /// partition and no recompute is in flight — re-submits the job from
  /// its checkpointed request (journal + content-hashed store keys make
  /// the recompute re-pay only scores whose records actually changed).
  void HandleStaleResult(Conn* conn, const std::string& job_id,
                         service::JobQueryState state);
  /// Fans invalidation events (droppable) out to subscribers.
  void BroadcastInvalidations(
      const std::vector<service::StreamCoordinator::Invalidation>& events);
  /// Looks `job_id` up on disk across the local job root and every
  /// peer partition. Returns the job dir that has a checkpoint (empty
  /// when none does); *state receives the checkpoint's lifecycle state.
  std::string FindJobOnDisk(const std::string& job_id,
                            std::string* state) const;
  /// Queues `frame` on `conn`, enforcing max_write_buffer. Droppable
  /// frames vanish under pressure; required ones close the slow reader.
  void QueueFrame(Conn* conn, const std::string& frame, bool droppable);
  void DrainEvents();
  void CloseConn(Conn* conn);
  void Wake();
  void BeginDrain(bool drain);

  NetServerOptions options_;
  std::unique_ptr<service::JobRunner> runner_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> drain_on_stop_{true};
  std::atomic<bool> loop_done_{false};
  std::mutex events_mutex_;
  PendingEvents pending_;
  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  mutable std::mutex fleet_stats_mutex_;
  std::string fleet_stats_json_;
  std::thread background_;
};

}  // namespace certa::net

#endif  // CERTA_NET_SERVER_H_
