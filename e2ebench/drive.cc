// The wire side: a single-threaded poll loop that drives `certa serve`
// through the net:: frame builders, as the setup pass and as the timed
// closed- or open-loop load. It records what each request saw and
// when; the replay judges it.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>

#include "loadgen.h"
#include "net/wire.h"
#include "util/crc32.h"
#include "util/json_writer.h"

namespace certa::e2ebench {
namespace {

constexpr int64_t kSecond = 1000000;

/// One non-blocking client connection speaking newline-framed JSON.
class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  void Send(const std::string& frame) {
    out_ += frame;
    Flush();
  }

  /// Writes what the socket takes now; false once the socket failed.
  bool Flush() {
    while (!out_.empty() && fd_ >= 0) {
      const ssize_t n = send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(0, static_cast<size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        broken_ = true;
        return false;
      }
    }
    return !broken_;
  }

  /// Appends every complete line received so far to *lines; false once
  /// the peer hung up or the socket failed.
  bool Read(std::vector<std::string>* lines) {
    char buffer[1 << 16];
    while (fd_ >= 0 && !broken_) {
      const ssize_t n = recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        in_.append(buffer, static_cast<size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        broken_ = true;
      }
    }
    // Bytes before scanned_ are known to hold no newline, so a frame
    // arriving in many reads is scanned once.
    size_t start = 0;
    size_t nl;
    while ((nl = in_.find('\n', std::max(start, scanned_))) !=
           std::string::npos) {
      lines->push_back(in_.substr(start, nl - start));
      start = nl + 1;
    }
    in_.erase(0, start);
    scanned_ = in_.size();
    return !broken_;
  }

  pollfd PollEntry() const {
    return {fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
  }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  bool broken_ = false;
  std::string in_;
  size_t scanned_ = 0;
  std::string out_;
};

/// Server frames open with {"schema_version":N,"type":"<type>" (see
/// BeginFrame in net/wire.cc), so the type is read without parsing
/// — result frames can be megabytes.
std::string FrameType(const std::string& line) {
  static const std::string kKey = "\"type\":\"";
  const size_t at = line.find(kKey);
  if (at == std::string::npos || at > 40) return "";
  const size_t begin = at + kKey.size();
  const size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

/// The first string value of `key` in a frame, scanned without parsing.
std::string FrameString(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  const size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

std::string ErrorCode(const std::string& line) {
  const std::string code = FrameString(line, "code");
  return code.empty() ? "bad_reply" : code;
}

/// Failure bucket of a RoundTrip reply that was not the one expected.
std::string FailureCode(const std::string& reply) {
  if (reply == "timeout" || reply == "disconnect") return reply;
  return FrameType(reply) == "error" ? ErrorCode(reply) : "bad_reply";
}

/// Closed-loop clients: each runs one job at a time on a fresh
/// connection, as certa_client does (submit with watch → accepted →
/// terminal event → result request → result frame). New jobs stop
/// once `stop_at` has passed and the issued count is a whole number of
/// rounds (stop_at 0: run `order` to the end).
std::vector<JobRecord> RunClosedLoop(int port, const Plan& plan,
                                     const std::vector<int>& order,
                                     int clients, int64_t stop_at,
                                     int threads_override,
                                     const std::string& phase) {
  enum class State { kIdle, kAccept, kTerminal, kResult };
  struct Client {
    std::unique_ptr<Conn> conn;
    State state = State::kIdle;
    JobRecord record;
    int64_t deadline = 0;
  };
  const int64_t job_timeout = 60 * kSecond;
  std::vector<Client> pool(static_cast<size_t>(clients));
  std::vector<JobRecord> done;
  size_t next = 0;
  auto may_issue = [&] {
    if (next >= order.size()) return false;
    return stop_at == 0 || NowUs() < stop_at ||
           next % static_cast<size_t>(std::max(1, plan.round)) != 0;
  };
  auto finish = [&](Client& client, bool ok, const std::string& code) {
    client.record.ok = ok;
    client.record.code = code;
    done.push_back(client.record);
    client.conn.reset();
    client.state = State::kIdle;
  };
  auto start = [&](Client& client) {
    api::ExplainRequest request =
        plan.requests[static_cast<size_t>(order[next])];
    if (threads_override > 0) request.threads = threads_override;
    client.record = JobRecord{};
    client.record.phase = phase;
    client.record.req = order[next++];
    client.conn = std::make_unique<Conn>();
    if (!client.conn->Connect(port)) {
      client.record.send = NowUs();
      finish(client, false, "connect");
      return;
    }
    client.record.send = NowUs();
    client.conn->Send(net::SubmitFrame(request, /*watch=*/true));
    client.state = State::kAccept;
    client.deadline = client.record.send + job_timeout;
  };
  auto handle = [&](Client& client, const std::string& line, int64_t now) {
    const std::string type = FrameType(line);
    if (type == "error") {
      finish(client, false, ErrorCode(line));
      return;
    }
    switch (client.state) {
      case State::kAccept:
        if (type == "accepted") {
          client.record.job_id = FrameString(line, "job_id");
          client.record.acc = now;
          client.state = State::kTerminal;
        }
        break;
      case State::kTerminal: {
        if (type != "event" || FrameString(line, "event") != "terminal") break;
        client.record.term = now;
        JsonValue frame;
        std::string error;
        if (!JsonValue::Parse(line, &frame, &error)) {
          finish(client, false, "bad_reply");
          return;
        }
        const JsonValue* fresh = frame.Find("fresh_scores");
        client.record.fresh = fresh != nullptr ? fresh->int_value() : -1;
        const std::string state = FrameString(line, "state");
        if (state != "complete") {
          finish(client, false, "job_" + state);
          return;
        }
        client.record.rs = NowUs();
        client.conn->Send(net::ResultRequestFrame(client.record.job_id));
        client.state = State::kResult;
        break;
      }
      case State::kResult:
        if (type == "result") {
          client.record.res = now;
          client.record.crc = util::Crc32(line);
          client.record.bytes = static_cast<long long>(line.size());
          finish(client, true, "");
        }
        break;
      case State::kIdle:
        break;
    }
  };

  for (;;) {
    for (Client& client : pool) {
      while (client.state == State::kIdle && may_issue()) start(client);
    }
    std::vector<pollfd> fds;
    std::vector<Client*> active;
    for (Client& client : pool) {
      if (client.state == State::kIdle) continue;
      fds.push_back(client.conn->PollEntry());
      active.push_back(&client);
    }
    if (active.empty()) break;
    poll(fds.data(), fds.size(), 10);
    const int64_t now = NowUs();
    for (size_t i = 0; i < active.size(); ++i) {
      Client& client = *active[i];
      bool alive = client.conn->Flush();
      std::vector<std::string> lines;
      if (fds[i].revents != 0) alive = client.conn->Read(&lines) && alive;
      for (const std::string& line : lines) {
        handle(client, line, now);
        if (client.state == State::kIdle) break;
      }
      if (client.state == State::kIdle) continue;
      if (!alive) {
        finish(client, false, "disconnect");
      } else if (now > client.deadline) {
        finish(client, false, "timeout");
      }
    }
  }
  return done;
}

/// Sends one frame and waits for the first non-event reply.
bool RoundTrip(Conn* conn, const std::string& frame, int64_t timeout,
               std::string* reply) {
  conn->Send(frame);
  const int64_t deadline = NowUs() + timeout;
  while (NowUs() < deadline) {
    pollfd fd = conn->PollEntry();
    poll(&fd, 1, 10);
    std::vector<std::string> lines;
    const bool alive = conn->Flush() && conn->Read(&lines);
    for (const std::string& line : lines) {
      if (FrameType(line) == "event") continue;
      *reply = line;
      return true;
    }
    if (!alive) {
      *reply = "disconnect";
      return false;
    }
  }
  *reply = "timeout";
  return false;
}

std::string OpRecordJson(const std::string& phase, int op, char kind,
                         int64_t sched, int64_t sent, int64_t ack, bool ok,
                         const std::string& code) {
  JsonWriter json;
  json.BeginObject();
  json.Key("rec");
  json.String("op");
  json.Key("phase");
  json.String(phase);
  json.Key("op");
  json.Int(op);
  json.Key("k");
  json.String(std::string(1, kind));
  json.Key("sched");
  json.Int(sched);
  json.Key("sent");
  json.Int(sent);
  json.Key("ack");
  json.Int(ack);
  json.Key("ok");
  json.Bool(ok);
  json.Key("code");
  json.String(code);
  json.EndObject();
  return json.str();
}

/// One ping round trip (the readiness probe of every setup).
std::string Ping(int port) {
  const int64_t sent = NowUs();
  Conn conn;
  std::string reply;
  const bool connected = conn.Connect(port);
  const bool pong = connected &&
                    RoundTrip(&conn, net::PingFrame(), 10 * kSecond, &reply) &&
                    FrameType(reply) == "pong";
  return OpRecordJson("setup", -1, 'p', sent, sent, NowUs(), pong,
                      pong ? "" : (connected ? FailureCode(reply) : "connect"));
}

}  // namespace

std::string OpFrame(const Op& op) {
  switch (op.kind) {
    case 'u':
      return net::UpsertRequestFrame(kStreamDataset, "", op.side, op.id,
                                     op.values);
    case 'r':
      return net::RemoveRequestFrame(kStreamDataset, "", op.side, op.id);
    default:
      return net::MatchRequestFrame(kStreamDataset, "", op.side, op.values,
                                    kMatchTopK);
  }
}

namespace {

/// The open-loop stream load. Connection A sends the schedule (replies
/// come back in order); connection B subscribes to invalidation events
/// and answers each by fetching the job's result until it is fresh.
/// Afterwards every acked upsert's token is probed on A.
std::vector<std::string> DriveStream(int port, const Plan& plan) {
  std::vector<std::string> out;
  Conn ops;
  Conn inv;
  std::string reply;
  if (!ops.Connect(port) || !inv.Connect(port) ||
      !RoundTrip(&inv, net::InvalidationsRequestFrame(true), 10 * kSecond,
                 &reply) ||
      FrameType(reply) != "invalidations") {
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      out.push_back(OpRecordJson("timed", static_cast<int>(i),
                                 plan.ops[i].kind, 0, 0, 0, false, "connect"));
    }
    return out;
  }

  struct OpState {
    int64_t sched = 0, sent = 0, ack = 0;
    bool ok = false;
    std::string code = "timeout";
  };
  struct Refresh {
    int64_t inv = 0;
    int64_t retry_at = 0;
    bool in_flight = false;
  };
  std::vector<OpState> states(plan.ops.size());
  std::deque<size_t> pending;
  std::map<std::string, Refresh> refreshing;
  std::deque<std::string> fetches;  // result requests in flight on B
  auto refresh_record = [&](const std::string& job, const Refresh& refresh,
                            int64_t done, bool ok, bool complete,
                            const std::string& code) {
    JsonWriter json;
    json.BeginObject();
    json.Key("rec");
    json.String("refresh");
    json.Key("phase");
    json.String("refresh");
    json.Key("job");
    json.String(job);
    json.Key("inv");
    json.Int(refresh.inv);
    json.Key("done");
    json.Int(done);
    json.Key("ok");
    json.Bool(ok);
    json.Key("complete");
    json.Bool(complete);
    json.Key("code");
    json.String(code);
    json.EndObject();
    out.push_back(json.str());
  };

  const int64_t t0 = NowUs() + 20000;
  const int64_t horizon = t0 + static_cast<int64_t>(plan.seconds) * kSecond;
  int64_t last_ack = t0;
  size_t next = 0;
  for (;;) {
    int64_t now = NowUs();
    while (next < plan.ops.size() && t0 + plan.ops[next].at_us <= now) {
      states[next].sched = t0 + plan.ops[next].at_us;
      states[next].sent = now;
      ops.Send(OpFrame(plan.ops[next]));
      pending.push_back(next++);
    }
    for (auto& [job, refresh] : refreshing) {
      if (!refresh.in_flight && refresh.retry_at <= now) {
        inv.Send(net::ResultRequestFrame(job));
        refresh.in_flight = true;
        fetches.push_back(job);
      }
    }
    const bool sent_all = next == plan.ops.size();
    // Invalidations travel on B and may trail the upsert's ack on A.
    if (sent_all && pending.empty() && refreshing.empty() &&
        now > last_ack + 300000) {
      break;
    }
    if (sent_all && now > horizon + 10 * kSecond && !pending.empty()) {
      pending.clear();  // unacked ops keep code "timeout"
    }
    if (sent_all && now > horizon + 60 * kSecond) {
      for (const auto& [job, refresh] : refreshing) {
        refresh_record(job, refresh, now, false, false, "timeout");
      }
      refreshing.clear();
      if (pending.empty()) break;
    }
    int64_t wait_us = 5000;
    if (next < plan.ops.size()) {
      wait_us = std::min(wait_us, t0 + plan.ops[next].at_us - now);
    }
    pollfd fds[2] = {ops.PollEntry(), inv.PollEntry()};
    const timespec timeout{0, std::max<int64_t>(0, wait_us) * 1000};
    ppoll(fds, 2, &timeout, nullptr);
    now = NowUs();
    std::vector<std::string> lines;
    const bool ops_alive = ops.Flush() && ops.Read(&lines);
    for (const std::string& line : lines) {
      const std::string type = FrameType(line);
      if (type == "event" || pending.empty()) continue;
      OpState& state = states[pending.front()];
      pending.pop_front();
      state.ack = now;
      last_ack = now;
      state.ok = type == "upserted" || type == "removed" || type == "match";
      state.code = state.ok ? "" : ErrorCode(line);
    }
    lines.clear();
    const bool inv_alive = inv.Flush() && inv.Read(&lines);
    for (const std::string& line : lines) {
      const std::string type = FrameType(line);
      if (type == "event") {
        if (FrameString(line, "event") != "invalidation") continue;
        const std::string job = FrameString(line, "job_id");
        if (!refreshing.count(job)) refreshing[job] = Refresh{now, now, false};
        continue;
      }
      if (type != "result" && type != "error") continue;
      const std::string job = FrameString(line, "job_id");
      if (!fetches.empty()) fetches.pop_front();
      auto it = refreshing.find(job);
      if (it == refreshing.end()) continue;
      if (type == "result") {
        const bool complete =
            line.find("\"status\":\"complete\"") != std::string::npos;
        refresh_record(job, it->second, now, complete, complete,
                       complete ? "" : "incomplete");
        refreshing.erase(it);
      } else {
        const std::string code = ErrorCode(line);
        if (code == net::kErrStaleRecomputing || code == net::kErrNotComplete) {
          it->second.in_flight = false;
          it->second.retry_at = now + 5000;
        } else {
          refresh_record(job, it->second, now, false, false, code);
          refreshing.erase(it);
        }
      }
    }
    if (!ops_alive || !inv_alive) {
      for (const auto& [job, refresh] : refreshing) {
        refresh_record(job, refresh, now, false, false, "disconnect");
      }
      refreshing.clear();
      for (size_t index : pending) states[index].code = "disconnect";
      pending.clear();
      break;
    }
  }
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const OpState& state = states[i];
    out.push_back(OpRecordJson("timed", static_cast<int>(i), plan.ops[i].kind,
                               state.sched, state.sent, state.ack, state.ok,
                               state.code));
  }
  JsonWriter window;
  window.BeginObject();
  window.Key("rec");
  window.String("window");
  window.Key("start");
  window.Int(t0);
  window.Key("end");
  window.Int(horizon);
  window.EndObject();
  out.push_back(window.str());

  // Read-your-writes check: the latest acked upsert of every record
  // must be found by a probe of its token.
  std::map<std::pair<int, int>, size_t> latest;
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (plan.ops[i].kind == 'u' && states[i].ok) {
      latest[{plan.ops[i].side, plan.ops[i].id}] = i;
    }
  }
  for (const auto& [key, index] : latest) {
    const Op& op = plan.ops[index];
    const int64_t sent = NowUs();
    std::string probe_reply;
    const bool ok =
        RoundTrip(&ops,
                  net::MatchRequestFrame(
                      kStreamDataset, "", op.side,
                      TokenProbe(op.token, static_cast<int>(op.values.size())),
                      kMatchTopK),
                  10 * kSecond, &probe_reply) &&
        FrameType(probe_reply) == "match";
    std::vector<int> ids;
    JsonValue frame;
    std::string error;
    if (ok && JsonValue::Parse(probe_reply, &frame, &error)) {
      if (const JsonValue* candidates = frame.Find("candidates")) {
        for (const JsonValue& candidate : candidates->array_items()) {
          if (const JsonValue* id = candidate.Find("id")) {
            ids.push_back(static_cast<int>(id->int_value()));
          }
        }
      }
    }
    JsonWriter json;
    json.BeginObject();
    json.Key("rec");
    json.String("probe");
    json.Key("phase");
    json.String("check");
    json.Key("op");
    json.Int(static_cast<long long>(index));
    json.Key("sent");
    json.Int(sent);
    json.Key("ok");
    json.Bool(ok);
    json.Key("code");
    json.String(ok ? "" : FailureCode(probe_reply));
    json.Key("id");
    json.Int(op.id);
    json.Key("ids");
    json.BeginArray();
    for (int id : ids) json.Int(id);
    json.EndArray();
    json.EndObject();
    out.push_back(json.str());
  }
  return out;
}

bool LoadPlanOrComplain(const Args& args, Plan* plan) {
  std::string error;
  if (!ReadPlan(args.Get("dir") + "/plan.json", plan, &error)) {
    std::fprintf(stderr, "e2e_loadgen: %s\n", error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int RunSetup(const Args& args) {
  Plan plan;
  if (!LoadPlanOrComplain(args, &plan)) return 2;
  const int port = static_cast<int>(args.GetInt("port", 0));
  std::vector<std::string> lines = {Ping(port)};
  std::vector<JobRecord> jobs;
  if (plan.workload == "explain_warm") {
    // Prewarm the shared store with exactly the pool the timed phase
    // reissues (threads never change a score, so the prewarm may use
    // more of them).
    std::vector<int> pool;
    for (size_t i = 0; i < plan.requests.size(); ++i) {
      pool.push_back(static_cast<int>(i));
    }
    jobs = RunClosedLoop(port, plan, pool, plan.clients, 0,
                         plan.prewarm_threads, "setup");
  } else if (plan.workload == "stream_mixed") {
    // Seed jobs register the record dependencies the schedule's
    // dependency hits invalidate.
    std::vector<int> seeds;
    for (size_t i = 0; i < plan.requests.size(); ++i) {
      seeds.push_back(static_cast<int>(i));
    }
    jobs = RunClosedLoop(port, plan, seeds, 1, 0, 0, "setup");
  }
  bool ok = lines.size() == 1 && lines[0].find("\"ok\":true") != std::string::npos;
  for (const JobRecord& job : jobs) {
    lines.push_back(JobRecordJson(job));
    ok = ok && job.ok;
  }
  AppendLines(args.Get("dir") + "/setup.jsonl", lines);
  return ok ? 0 : 1;
}

int RunDrive(const Args& args) {
  Plan plan;
  if (!LoadPlanOrComplain(args, &plan)) return 2;
  const int port = static_cast<int>(args.GetInt("port", 0));
  std::vector<std::string> lines;
  if (plan.workload == "stream_mixed") {
    lines = DriveStream(port, plan);
  } else {
    const int64_t stop_at =
        NowUs() + static_cast<int64_t>(plan.seconds) * kSecond;
    for (const JobRecord& job : RunClosedLoop(port, plan, plan.order,
                                              plan.clients, stop_at, 0,
                                              "timed")) {
      lines.push_back(JobRecordJson(job));
    }
  }
  const std::string path = args.Get("dir") + "/drive.jsonl";
  std::remove(path.c_str());
  return AppendLines(path, lines) ? 0 : 1;
}

}  // namespace certa::e2ebench
