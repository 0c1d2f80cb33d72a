#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "persist/checkpoint.h"
#include "util/atomic_file.h"

namespace certa::net {

namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Event frames are serialized once, worker-side, at the current
/// schema version and re-stamped per connection at fan-out time. The
/// version is always the frame's leading field (wire.cc BeginFrame),
/// so a prefix swap is exact.
std::string RestampFrame(const std::string& frame, int version) {
  if (version == api::kSchemaVersion) return frame;
  const std::string built =
      "{\"schema_version\":" + std::to_string(api::kSchemaVersion);
  if (frame.compare(0, built.size(), built) != 0) return frame;
  return "{\"schema_version\":" + std::to_string(version) +
         frame.substr(built.size());
}

/// Stable error code for one failed streaming call.
const char* StreamErrorCode(service::StreamCoordinator::OpStatus status) {
  switch (status) {
    case service::StreamCoordinator::OpStatus::kUnknownDataset:
      return kErrUnknownDataset;
    case service::StreamCoordinator::OpStatus::kBadRecord:
      return kErrBadRecord;
    default:
      // kIo: the stream cannot take writes right now.
      return kErrStreamingUnavailable;
  }
}

}  // namespace

NetServer::NetServer(NetServerOptions options) : options_(std::move(options)) {
  // The runner hooks must exist before the first worker starts, so the
  // runner is built here with them pre-wired. Both hooks run on worker
  // threads: they serialize the event into a string under events_mutex_
  // and poke the loop — no socket is ever touched off the loop thread.
  service::JobRunnerOptions runner_options = options_.runner;
  runner_options.on_progress = [this](const std::string& job_id,
                                      const core::ExplainProgress& progress) {
    std::string frame = ProgressEventFrame(
        job_id, progress.phase, progress.triangles_total,
        progress.triangles_tagged, progress.predictions_performed,
        progress.total_flips);
    {
      std::lock_guard<std::mutex> lock(events_mutex_);
      pending_.progress[job_id] = std::move(frame);  // coalesce: newest wins
    }
    Wake();
  };
  runner_options.on_terminal = [this](const service::JobOutcome& outcome) {
    std::string frame = TerminalEventFrame(outcome);
    {
      std::lock_guard<std::mutex> lock(events_mutex_);
      pending_.terminal_frames.push_back(std::move(frame));
      pending_.terminal_job_ids.push_back(outcome.job_id);
    }
    Wake();
  };
  runner_ = std::make_unique<service::JobRunner>(std::move(runner_options));
}

NetServer::~NetServer() {
  Stop(/*drain=*/true);
  if (background_.joinable()) background_.join();
  for (auto& conn : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
}

bool NetServer::Start(std::string* error) {
  // A client that disconnects mid-stream must not kill the server.
  signal(SIGPIPE, SIG_IGN);

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  if (options_.inherited_listen_fd >= 0) {
    // Fleet fallback: the master bound + listened before forking; every
    // worker accepts from the one shared queue through this fd.
    listen_fd_ = options_.inherited_listen_fd;
    SetNonBlocking(listen_fd_);
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (options_.reuse_port &&
        setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
            0) {
      if (error) *error = std::string("SO_REUSEPORT: ") + std::strerror(errno);
      return false;
    }

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      if (error) *error = "invalid listen address: " + options_.host;
      return false;
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      if (error)
        *error = "bind " + options_.host + ":" + std::to_string(options_.port) +
                 ": " + std::strerror(errno);
      return false;
    }
    if (listen(listen_fd_, options_.max_connections) != 0) {
      if (error) *error = std::string("listen: ") + std::strerror(errno);
      return false;
    }
    SetNonBlocking(listen_fd_);
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

bool NetServer::StartBackground(std::string* error) {
  if (!Start(error)) return false;
  background_ = std::thread([this] { Run(); });
  return true;
}

void NetServer::Stop(bool drain) {
  drain_on_stop_.store(drain);
  stop_requested_.store(true);
  Wake();
}

ServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void NetServer::Wake() {
  if (wake_write_fd_ < 0) return;
  char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = write(wake_write_fd_, &byte, 1);
}

void NetServer::Run() {
  Loop();
  loop_done_.store(true);
}

void NetServer::Loop() {
  std::vector<pollfd> fds;
  bool external_stop = false;
  while (true) {
    if (stop_requested_.load()) break;
    if (options_.stop_flag != nullptr && options_.stop_flag->load()) {
      external_stop = true;
      break;
    }

    fds.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    if (listen_fd_ >= 0 &&
        conns_.size() < static_cast<size_t>(options_.max_connections)) {
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    size_t conn_base = fds.size();
    for (auto& conn : conns_) {
      short events = 0;
      // A closing connection only flushes; it no longer reads.
      if (!conn->closing) events |= POLLIN;
      if (!conn->write_buffer.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }

    int ready = poll(fds.data(), fds.size(), options_.poll_interval_ms);
    if (ready < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {
      char drain_buf[256];
      while (read(wake_read_fd_, drain_buf, sizeof(drain_buf)) > 0) {
      }
    }

    bool listener_polled = conn_base > 1;
    if (listener_polled && (fds[1].revents & POLLIN)) AcceptNew();

    // Index by fd, not position: AcceptNew may have grown conns_.
    for (size_t i = conn_base; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn* conn = nullptr;
      for (auto& candidate : conns_) {
        if (candidate->fd == fds[i].fd) {
          conn = candidate.get();
          break;
        }
      }
      if (conn == nullptr) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConn(conn);
        continue;
      }
      if (fds[i].revents & POLLIN) HandleReadable(conn);
      if (conn->fd >= 0 && (fds[i].revents & POLLOUT)) HandleWritable(conn);
    }

    DrainEvents();

    // Streaming: absorb whatever sibling workers appended to the
    // shared stream (time-gated inside; most beats are no-ops) and
    // push the resulting invalidations to subscribers.
    if (options_.stream != nullptr) {
      BroadcastInvalidations(options_.stream->MaybeAbsorbPeers());
    }

    // Reap closed connections, and closing ones whose buffers drained.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [this](const std::unique_ptr<Conn>& c) {
                                  if (c->fd >= 0 && c->closing &&
                                      c->write_buffer.empty()) {
                                    close(c->fd);
                                    const_cast<Conn*>(c.get())->fd = -1;
                                  }
                                  if (c->fd < 0) {
                                    std::lock_guard<std::mutex> lock(
                                        stats_mutex_);
                                    --stats_.connections_active;
                                    return true;
                                  }
                                  return false;
                                }),
                 conns_.end());
  }

  BeginDrain(!external_stop && drain_on_stop_.load());
}

void NetServer::AcceptNew() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // EAGAIN or transient error; poll again
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      // Over the cap (a burst between polls): answer, then hang up.
      // Nothing was negotiated on this connection, so stamp v1.
      std::string frame =
          ErrorFrame(kErrTooManyConnections,
                     "connection limit reached; retry later", "", 1);
      [[maybe_unused]] ssize_t n = write(fd, frame.data(), frame.size());
      close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_accepted;
    ++stats_.connections_active;
  }
}

void NetServer::HandleReadable(Conn* conn) {
  char buffer[4096];
  while (conn->fd >= 0) {
    ssize_t n = read(conn->fd, buffer, sizeof(buffer));
    if (n > 0) {
      conn->read_buffer.append(buffer, static_cast<size_t>(n));
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.bytes_in += n;
      }
      // Frame-size cap applies to the *unterminated* prefix: a client
      // that streams forever without a newline is cut off deterministically.
      if (conn->read_buffer.find('\n') == std::string::npos &&
          conn->read_buffer.size() > options_.max_frame_bytes) {
        QueueFrame(conn,
                   ErrorFrame(kErrFrameTooLarge,
                              "frame exceeds " +
                                  std::to_string(options_.max_frame_bytes) +
                                  " bytes",
                              "", conn->schema_version),
                   /*droppable=*/false);
        conn->closing = true;
        return;
      }
      size_t start = 0;
      size_t newline;
      while ((newline = conn->read_buffer.find('\n', start)) !=
             std::string::npos) {
        std::string_view line(conn->read_buffer.data() + start,
                              newline - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        if (!line.empty()) HandleFrame(conn, line);
        start = newline + 1;
        if (conn->fd < 0 || conn->closing) break;
      }
      if (start > 0) conn->read_buffer.erase(0, start);
      if (conn->fd < 0 || conn->closing) return;
      if (conn->read_buffer.size() > options_.max_frame_bytes) {
        QueueFrame(conn,
                   ErrorFrame(kErrFrameTooLarge,
                              "frame exceeds " +
                                  std::to_string(options_.max_frame_bytes) +
                                  " bytes",
                              "", conn->schema_version),
                   /*droppable=*/false);
        conn->closing = true;
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn);  // peer EOF
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
}

void NetServer::HandleWritable(Conn* conn) {
  while (!conn->write_buffer.empty()) {
    ssize_t n =
        write(conn->fd, conn->write_buffer.data(), conn->write_buffer.size());
    if (n > 0) {
      conn->write_buffer.erase(0, static_cast<size_t>(n));
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.bytes_out += n;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
}

void NetServer::QueueFrame(Conn* conn, const std::string& frame,
                           bool droppable) {
  if (conn->fd < 0) return;
  if (droppable) {
    if (conn->write_buffer.size() + frame.size() >
        options_.max_write_buffer) {
      // Shed the event; the reader catches up from the next snapshot.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.events_dropped;
      return;
    }
  } else if (conn->write_buffer.size() > options_.max_write_buffer) {
    // The cap bounds the *backlog a stalled reader can pin*, not the
    // intrinsic size of one response: a single frame over the cap (a
    // multi-megabyte result.json) must still be deliverable, or the
    // client retries forever and every retry re-pays the disk read.
    // Backlog already past the cap means the reader has genuinely
    // stalled: disconnect rather than balloon.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.slow_reader_closes;
    }
    CloseConn(conn);
    return;
  }
  conn->write_buffer += frame;
  // Opportunistic immediate flush; leftovers drain on POLLOUT.
  HandleWritable(conn);
}

void NetServer::HandleFrame(Conn* conn, std::string_view line) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.frames_in;
  }
  ClientFrame frame;
  std::string code;
  std::string error;
  if (!ParseClientFrame(line, &frame, &code, &error)) {
    QueueFrame(conn, ErrorFrame(code, error, "", conn->schema_version),
               /*droppable=*/false);
    return;
  }
  // Sticky per-connection negotiation: any frame declaring a higher
  // schema_version upgrades the connection; it never downgrades, so
  // replies stay consistently stamped for the client's whole session.
  if (frame.schema_version > conn->schema_version) {
    conn->schema_version = frame.schema_version;
  }
  const int version = conn->schema_version;
  switch (frame.type) {
    case ClientFrame::Type::kSubmit:
      HandleSubmit(conn, frame);
      return;
    case ClientFrame::Type::kStatus:
      HandleStatus(conn, frame.job_id);
      return;
    case ClientFrame::Type::kResult:
      HandleResult(conn, frame.job_id);
      return;
    case ClientFrame::Type::kCancel: {
      std::string reason;
      if (runner_->Cancel(frame.job_id, &reason)) {
        QueueFrame(conn, CancelledFrame(frame.job_id, version),
                   /*droppable=*/false);
      } else {
        QueueFrame(conn,
                   ErrorFrame(kErrUnknownJob, reason, frame.job_id, version),
                   /*droppable=*/false);
      }
      return;
    }
    case ClientFrame::Type::kStats: {
      std::string fleet_json;
      {
        std::lock_guard<std::mutex> lock(fleet_stats_mutex_);
        fleet_json = fleet_stats_json_;
      }
      std::string stream_json;
      if (options_.stream != nullptr) {
        stream_json = options_.stream->StatsJson();
      }
      QueueFrame(conn,
                 StatsFrame(runner_->counters(), stats(), fleet_json,
                            stream_json, version),
                 /*droppable=*/false);
      return;
    }
    case ClientFrame::Type::kPing: {
      Capabilities capabilities;
      capabilities.workers = options_.fleet_workers;
      capabilities.store_mode =
          options_.runner.store_dir.empty()
              ? "none"
              : (options_.runner.store_stream_slot >= 0 ? "shared"
                                                        : "private");
      capabilities.streaming = options_.stream != nullptr;
      QueueFrame(conn, PongFrame(capabilities, version),
                 /*droppable=*/false);
      return;
    }
    case ClientFrame::Type::kUpsert:
      HandleUpsert(conn, frame);
      return;
    case ClientFrame::Type::kRemove:
      HandleRemove(conn, frame);
      return;
    case ClientFrame::Type::kMatch:
      HandleMatch(conn, frame);
      return;
    case ClientFrame::Type::kInvalidations:
      HandleInvalidations(conn, frame);
      return;
  }
}

void NetServer::HandleSubmit(Conn* conn, const ClientFrame& frame) {
  const int version = conn->schema_version;
  if (stop_requested_.load()) {
    QueueFrame(conn,
               ErrorFrame(kErrShuttingDown, "server is shutting down", "",
                          version),
               /*droppable=*/false);
    return;
  }
  service::JobRunner::SubmitResult result = runner_->Submit(frame.request);
  if (!result.accepted) {
    const char* code = kErrRejectedClosed;
    switch (result.reject_code) {
      case service::JobRunner::RejectCode::kQueueFull:
        code = kErrRejectedQueueFull;
        break;
      case service::JobRunner::RejectCode::kDeadline:
        code = kErrRejectedDeadline;
        break;
      case service::JobRunner::RejectCode::kStorage:
        code = kErrRejectedStorage;
        break;
      default:
        break;
    }
    QueueFrame(conn, ErrorFrame(code, result.reason, "", version),
               /*droppable=*/false);
    return;
  }
  // Watch registration happens here, on the loop thread, *before*
  // DrainEvents can run this iteration — so even a job that finishes
  // instantly delivers its terminal event to this connection.
  if (frame.watch) conn->watched_jobs.insert(result.job_id);
  // Legacy key spellings get one migration nudge per connection, not
  // one per frame — steady-state v1 traffic stays un-nagged.
  std::string note;
  if (!frame.deprecation_notes.empty() && !conn->deprecation_noted) {
    note = frame.deprecation_notes.front();
    conn->deprecation_noted = true;
  }
  QueueFrame(conn, AcceptedFrame(result.job_id, note, version),
             /*droppable=*/false);
}

void NetServer::SetFleetStats(std::string fleet_json) {
  std::lock_guard<std::mutex> lock(fleet_stats_mutex_);
  fleet_stats_json_ = std::move(fleet_json);
}

std::string NetServer::FindJobOnDisk(const std::string& job_id,
                                     std::string* state) const {
  // The job id is a directory name; refuse anything path-like so a
  // crafted id can never escape the job roots.
  if (job_id.empty() || job_id.find('/') != std::string::npos ||
      job_id.find("..") != std::string::npos) {
    return "";
  }
  std::vector<std::string> roots;
  roots.push_back(options_.runner.job_root);
  for (const std::string& peer : options_.peer_job_roots) {
    if (peer != options_.runner.job_root) roots.push_back(peer);
  }
  for (const std::string& root : roots) {
    const std::string job_dir = root + "/" + job_id;
    persist::JobCheckpoint checkpoint;
    if (persist::LoadCheckpoint(persist::CheckpointPathInDir(job_dir),
                                &checkpoint)) {
      if (state != nullptr) *state = checkpoint.state;
      return job_dir;
    }
    // A result without a readable checkpoint still counts: result.json
    // is only ever written complete.
    if (util::PathExists(persist::ResultPathInDir(job_dir))) {
      if (state != nullptr) *state = "complete";
      return job_dir;
    }
  }
  return "";
}

void NetServer::HandleStatus(Conn* conn, const std::string& job_id) {
  const int version = conn->schema_version;
  service::JobOutcome outcome;
  service::JobQueryState state = runner_->Query(job_id, &outcome);
  if (state == service::JobQueryState::kUnknown) {
    // Not this runner's job — maybe a sibling worker's (client landed
    // on a different worker after a restart), or a previous server
    // life's. The disk is the durable truth either way.
    std::string disk_state;
    const std::string job_dir = FindJobOnDisk(job_id, &disk_state);
    if (job_dir.empty()) {
      QueueFrame(conn,
                 ErrorFrame(kErrUnknownJob,
                            "no job named \"" + job_id + "\"", job_id,
                            version),
                 /*droppable=*/false);
      return;
    }
    outcome.job_id = job_id;
    outcome.job_dir = job_dir;
    if (disk_state == "complete") {
      state = service::JobQueryState::kComplete;
    } else if (disk_state == "failed") {
      state = service::JobQueryState::kFailed;
    } else if (disk_state == "running") {
      // Live on another worker (or orphaned mid-crash, in which case
      // the master will re-run it): either way, not terminal yet.
      state = service::JobQueryState::kRunning;
    } else if (disk_state == "queued") {
      // Durably admitted, waiting in a sibling worker's queue.
      state = service::JobQueryState::kQueued;
    } else {  // parked / interrupted
      state = service::JobQueryState::kParked;
    }
  }
  QueueFrame(conn, StatusFrame(job_id, state, outcome, version),
             /*droppable=*/false);
}

void NetServer::HandleResult(Conn* conn, const std::string& job_id) {
  const int version = conn->schema_version;
  // Result reads refresh shared-store peers (no-op outside shared-store
  // fleet mode): a fetch landing right after a sibling finished sees
  // the scores that sibling paid for, instead of waiting for the
  // scoring engine's next periodic refresh.
  runner_->RefreshStorePeers();
  service::JobOutcome outcome;
  service::JobQueryState state = runner_->Query(job_id, &outcome);
  if (options_.stream != nullptr && options_.stream->IsStale(job_id)) {
    HandleStaleResult(conn, job_id, state);
    return;
  }
  if (state == service::JobQueryState::kQueued ||
      state == service::JobQueryState::kRunning) {
    QueueFrame(conn,
               ErrorFrame(kErrNotComplete,
                          "job is " + service::JobQueryStateName(state) +
                              "; poll status until complete",
                          job_id, version),
               /*droppable=*/false);
    return;
  }
  if (state == service::JobQueryState::kParked ||
      state == service::JobQueryState::kFailed) {
    QueueFrame(conn,
               ErrorFrame(kErrNotComplete,
                          "job ended " + service::JobQueryStateName(state) +
                              (outcome.error.empty() ? std::string()
                                                     : ": " + outcome.error),
                          job_id, version),
               /*droppable=*/false);
    return;
  }
  // The runner retains outcome summaries only, so result.json in the
  // job dir is the one copy of a result. Jobs from a previous server
  // life — or a sibling worker's partition — are found on disk the
  // same way: the job dir is the durable source of truth.
  std::string job_dir = outcome.job_dir;
  if (job_dir.empty()) {
    std::string disk_state;
    job_dir = FindJobOnDisk(job_id, &disk_state);
  }
  const std::string path =
      job_dir.empty() ? options_.runner.job_root + "/" + job_id +
                            "/result.json"
                      : persist::ResultPathInDir(job_dir);
  std::string result_json;
  if (!util::ReadFileToString(path, &result_json) || result_json.empty()) {
    QueueFrame(conn,
               ErrorFrame(kErrUnknownJob,
                          "no job named \"" + job_id +
                              "\" and no stored result at " + path,
                          job_id, version),
               /*droppable=*/false);
    return;
  }
  // result.json is written with a trailing newline; the frame supplies
  // its own line terminator.
  while (!result_json.empty() &&
         (result_json.back() == '\n' || result_json.back() == '\r')) {
    result_json.pop_back();
  }
  QueueFrame(conn, ResultFrame(job_id, result_json, version),
             /*droppable=*/false);
}

void NetServer::HandleStaleResult(Conn* conn, const std::string& job_id,
                                  service::JobQueryState state) {
  const int version = conn->schema_version;
  if (state == service::JobQueryState::kQueued ||
      state == service::JobQueryState::kRunning) {
    // The recompute is already in flight (it clears the stale mark
    // when it re-registers its dependencies at the new snapshot).
    QueueFrame(conn,
               ErrorFrame(kErrStaleRecomputing,
                          "inputs changed; recompute in flight — poll "
                          "status, then refetch the result",
                          job_id, version),
               /*droppable=*/false);
    return;
  }
  // Lazy recompute: re-own only jobs in this runner's partition (a
  // sibling's job recomputes on a fetch that lands there — every
  // worker applies the same rule, so exactly the owner recomputes).
  std::string disk_state;
  const std::string job_dir = FindJobOnDisk(job_id, &disk_state);
  if (job_dir == options_.runner.job_root + "/" + job_id &&
      !stop_requested_.load()) {
    persist::JobCheckpoint checkpoint;
    if (persist::LoadCheckpoint(persist::CheckpointPathInDir(job_dir),
                                &checkpoint)) {
      service::JobSpec spec = service::SpecFromCheckpoint(checkpoint);
      if (spec.id.empty()) spec.id = job_id;
      // Same id → same job dir: the journal's paid scores replay, and
      // content-hashed pair keys mean only pairs whose records really
      // changed are re-bought. A full queue just defers the recompute
      // to the next fetch.
      runner_->Submit(std::move(spec));
    }
  }
  QueueFrame(conn,
             ErrorFrame(kErrStaleRecomputing,
                        "inputs changed since this result was computed; "
                        "recomputing — poll status, then refetch",
                        job_id, version),
             /*droppable=*/false);
}

void NetServer::HandleUpsert(Conn* conn, const ClientFrame& frame) {
  const int version = conn->schema_version;
  if (options_.stream == nullptr) {
    QueueFrame(conn,
               ErrorFrame(kErrStreamingUnavailable,
                          "server started without a stream directory "
                          "(--stream-dir)",
                          "", version),
               /*droppable=*/false);
    return;
  }
  data::Record record;
  record.id = frame.record_id;
  record.values = frame.values;
  service::StreamCoordinator::Ack ack;
  std::vector<service::StreamCoordinator::Invalidation> invalidated;
  std::string error;
  const service::StreamCoordinator::OpStatus status =
      options_.stream->Upsert(frame.dataset, frame.data_dir, frame.side,
                              record, &ack, &invalidated, &error);
  if (status != service::StreamCoordinator::OpStatus::kOk) {
    QueueFrame(conn, ErrorFrame(StreamErrorCode(status), error, "", version),
               /*droppable=*/false);
    return;
  }
  // The WAL was fsync'd before Upsert returned: this ack is durable.
  QueueFrame(conn,
             UpsertedFrame(frame.dataset, frame.side, frame.record_id,
                           static_cast<long long>(ack.seq), ack.slot,
                           ack.created, version),
             /*droppable=*/false);
  BroadcastInvalidations(invalidated);
}

void NetServer::HandleRemove(Conn* conn, const ClientFrame& frame) {
  const int version = conn->schema_version;
  if (options_.stream == nullptr) {
    QueueFrame(conn,
               ErrorFrame(kErrStreamingUnavailable,
                          "server started without a stream directory "
                          "(--stream-dir)",
                          "", version),
               /*droppable=*/false);
    return;
  }
  service::StreamCoordinator::Ack ack;
  std::vector<service::StreamCoordinator::Invalidation> invalidated;
  std::string error;
  const service::StreamCoordinator::OpStatus status =
      options_.stream->Remove(frame.dataset, frame.data_dir, frame.side,
                              frame.record_id, &ack, &invalidated, &error);
  if (status != service::StreamCoordinator::OpStatus::kOk) {
    QueueFrame(conn, ErrorFrame(StreamErrorCode(status), error, "", version),
               /*droppable=*/false);
    return;
  }
  QueueFrame(conn,
             RemovedFrame(frame.dataset, frame.side, frame.record_id,
                          static_cast<long long>(ack.seq), ack.slot,
                          ack.removed, version),
             /*droppable=*/false);
  BroadcastInvalidations(invalidated);
}

void NetServer::HandleMatch(Conn* conn, const ClientFrame& frame) {
  const int version = conn->schema_version;
  if (options_.stream == nullptr) {
    QueueFrame(conn,
               ErrorFrame(kErrStreamingUnavailable,
                          "server started without a stream directory "
                          "(--stream-dir)",
                          "", version),
               /*droppable=*/false);
    return;
  }
  // Match is a read: refresh shared-store peers on the same beat as
  // result fetches (Match itself absorbs sibling *op* streams).
  runner_->RefreshStorePeers();
  std::vector<service::StreamCoordinator::MatchCandidate> candidates;
  std::string error;
  const service::StreamCoordinator::OpStatus status =
      options_.stream->Match(frame.dataset, frame.data_dir, frame.side,
                             frame.values, frame.top_k, &candidates, &error);
  if (status != service::StreamCoordinator::OpStatus::kOk) {
    QueueFrame(conn, ErrorFrame(StreamErrorCode(status), error, "", version),
               /*droppable=*/false);
    return;
  }
  std::vector<WireMatchCandidate> wire;
  wire.reserve(candidates.size());
  for (const service::StreamCoordinator::MatchCandidate& candidate :
       candidates) {
    wire.push_back({candidate.id, candidate.overlap, candidate.values});
  }
  QueueFrame(conn, MatchFrame(frame.dataset, frame.side, wire, version),
             /*droppable=*/false);
}

void NetServer::HandleInvalidations(Conn* conn, const ClientFrame& frame) {
  const int version = conn->schema_version;
  if (options_.stream == nullptr) {
    QueueFrame(conn,
               ErrorFrame(kErrStreamingUnavailable,
                          "server started without a stream directory "
                          "(--stream-dir)",
                          "", version),
               /*droppable=*/false);
    return;
  }
  conn->wants_invalidations = frame.subscribe;
  QueueFrame(conn,
             InvalidationsFrame(frame.subscribe,
                                options_.stream->StaleJobs(), version),
             /*droppable=*/false);
}

void NetServer::BroadcastInvalidations(
    const std::vector<service::StreamCoordinator::Invalidation>& events) {
  if (events.empty()) return;
  for (auto& conn : conns_) {
    if (conn->fd < 0 || !conn->wants_invalidations) continue;
    for (const service::StreamCoordinator::Invalidation& event : events) {
      QueueFrame(conn.get(),
                 InvalidationEventFrame(event.job_id, event.dataset,
                                        event.side, event.record_id,
                                        conn->schema_version),
                 /*droppable=*/true);
      if (conn->fd < 0) break;
    }
  }
}

void NetServer::DrainEvents() {
  PendingEvents batch;
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    batch = std::move(pending_);
    pending_ = PendingEvents();
  }
  if (batch.progress.empty() && batch.terminal_frames.empty()) return;
  for (auto& conn : conns_) {
    if (conn->fd < 0 || conn->watched_jobs.empty()) continue;
    for (const auto& [job_id, frame] : batch.progress) {
      if (conn->watched_jobs.count(job_id)) {
        QueueFrame(conn.get(), RestampFrame(frame, conn->schema_version),
                   /*droppable=*/true);
        if (conn->fd < 0) break;
      }
    }
    if (conn->fd < 0) continue;
    for (size_t i = 0; i < batch.terminal_frames.size(); ++i) {
      if (conn->watched_jobs.count(batch.terminal_job_ids[i])) {
        QueueFrame(conn.get(),
                   RestampFrame(batch.terminal_frames[i],
                                conn->schema_version),
                   /*droppable=*/false);
        if (conn->fd < 0) break;
        conn->watched_jobs.erase(batch.terminal_job_ids[i]);
      }
    }
  }
}

void NetServer::CloseConn(Conn* conn) {
  if (conn->fd < 0) return;
  close(conn->fd);
  conn->fd = -1;
  conn->write_buffer.clear();
  conn->watched_jobs.clear();
}

void NetServer::BeginDrain(bool drain) {
  // 1. No new work: the listener goes first.
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Runner winds down. drain=true finishes queued + running jobs
  // (their terminal events still flow through pending_); drain=false
  // parks running jobs resumable and parks queued ones back.
  runner_->Shutdown(drain);

  // 3. Tell every connection, deliver the last events, and flush.
  DrainEvents();
  for (auto& conn : conns_) {
    if (conn->fd < 0) continue;
    QueueFrame(conn.get(), ShutdownEventFrame(conn->schema_version),
               /*droppable=*/false);
    conn->closing = true;
  }

  // 4. Bounded flush window: poll only for writability, then hang up.
  for (int spin = 0; spin < 100; ++spin) {
    std::vector<pollfd> fds;
    for (auto& conn : conns_) {
      if (conn->fd >= 0 && !conn->write_buffer.empty()) {
        fds.push_back({conn->fd, POLLOUT, 0});
      }
    }
    if (fds.empty()) break;
    if (poll(fds.data(), fds.size(), 20) <= 0) continue;
    for (auto& pfd : fds) {
      for (auto& conn : conns_) {
        if (conn->fd == pfd.fd && (pfd.revents & POLLOUT)) {
          HandleWritable(conn.get());
        }
      }
    }
  }
  for (auto& conn : conns_) {
    if (conn->fd >= 0) {
      close(conn->fd);
      conn->fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.connections_active = 0;
  }
  conns_.clear();
}

}  // namespace certa::net
