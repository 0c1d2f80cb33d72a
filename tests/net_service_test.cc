// Networked explanation service tests (label: service-net): the wire
// protocol's parse/build symmetry, then a real NetServer on an
// ephemeral loopback port driven through raw sockets — partial and
// oversized frames, garbage input, admission rejection codes,
// slow-reader disconnects, client disconnect mid-job, and
// stop-without-drain leaving every admitted job resumable on disk.
//
// End-to-end coverage through the real `certa serve --listen` binary
// (concurrent clients, SIGTERM) lives in net_e2e_test.cc.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "persist/checkpoint.h"
#include "service/job_runner.h"
#include "util/atomic_file.h"
#include "util/json_parser.h"

namespace certa::net {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("certa_net_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

api::ExplainRequest SmallRequest(const std::string& id) {
  api::ExplainRequest request;
  request.id = id;
  request.dataset = "AB";
  request.model = "svm";
  request.pair_index = 0;
  request.triangles = 10;
  return request;
}

/// A request that runs long enough (~2s) for the test to act while the
/// job is demonstrably still in flight.
api::ExplainRequest LongRequest(const std::string& id) {
  api::ExplainRequest request = SmallRequest(id);
  request.model = "ditto";
  request.triangles = 8000;
  request.use_cache = false;
  return request;
}

/// Blocking loopback test client: whole-buffer sends, newline-framed
/// reads with an OS-level receive timeout so a broken server fails the
/// test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(int port, int timeout_seconds = 30) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval timeout{};
    timeout.tv_sec = timeout_seconds;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0;
  }
  ~TestClient() { Close(); }

  bool connected() const { return connected_; }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line (newline stripped). False on EOF,
  /// timeout, or error.
  bool ReadLine(std::string* line) {
    while (true) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        *line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads one line and parses it as a JSON frame.
  bool ReadFrame(JsonValue* frame) {
    std::string line;
    if (!ReadLine(&line)) return false;
    std::string error;
    bool ok = JsonValue::Parse(line, frame, &error);
    EXPECT_TRUE(ok) << error << " in: " << line;
    return ok;
  }

  /// Reads frames until one of type `type` arrives (events in between
  /// are allowed). False on EOF first.
  bool ReadUntilType(const std::string& type, JsonValue* frame) {
    while (ReadFrame(frame)) {
      const JsonValue* t = frame->Find("type");
      if (t != nullptr && t->is_string() && t->string_value() == type) {
        return true;
      }
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string FrameType(const JsonValue& frame) {
  const JsonValue* type = frame.Find("type");
  return type != nullptr && type->is_string() ? type->string_value() : "";
}

std::string FrameCode(const JsonValue& frame) {
  const JsonValue* code = frame.Find("code");
  return code != nullptr && code->is_string() ? code->string_value() : "";
}

std::unique_ptr<NetServer> StartServer(NetServerOptions options) {
  auto server = std::make_unique<NetServer>(std::move(options));
  std::string error;
  EXPECT_TRUE(server->StartBackground(&error)) << error;
  EXPECT_GT(server->port(), 0);
  return server;
}

NetServerOptions BaseOptions(const std::string& job_root) {
  NetServerOptions options;
  options.runner.job_root = job_root;
  options.runner.workers = 2;
  options.runner.queue_capacity = 8;
  return options;
}

// ---------------------------------------------------------------------
// Wire protocol: the client builders and the server parser are the two
// halves of one contract.

TEST(NetWireTest, ClientBuildersRoundTripThroughParser) {
  ClientFrame frame;
  std::string code, error;

  const api::ExplainRequest request = LongRequest("rt");
  ASSERT_TRUE(ParseClientFrame(
      SubmitFrame(request, /*watch=*/false), &frame, &code, &error))
      << error;
  EXPECT_EQ(frame.type, ClientFrame::Type::kSubmit);
  EXPECT_FALSE(frame.watch);
  // The embedded request survives byte-for-byte in canonical form.
  EXPECT_EQ(frame.request.ToJson(), request.ToJson());

  ASSERT_TRUE(ParseClientFrame(StatusRequestFrame("j1"), &frame, &code,
                               &error));
  EXPECT_EQ(frame.type, ClientFrame::Type::kStatus);
  EXPECT_EQ(frame.job_id, "j1");
  ASSERT_TRUE(ParseClientFrame(ResultRequestFrame("j2"), &frame, &code,
                               &error));
  EXPECT_EQ(frame.type, ClientFrame::Type::kResult);
  ASSERT_TRUE(ParseClientFrame(CancelRequestFrame("j3"), &frame, &code,
                               &error));
  EXPECT_EQ(frame.type, ClientFrame::Type::kCancel);
  ASSERT_TRUE(ParseClientFrame(StatsRequestFrame(), &frame, &code, &error));
  EXPECT_EQ(frame.type, ClientFrame::Type::kStats);
  ASSERT_TRUE(ParseClientFrame(PingFrame(), &frame, &code, &error));
  EXPECT_EQ(frame.type, ClientFrame::Type::kPing);
}

TEST(NetWireTest, ParseRejectsGarbageWithStableCodes) {
  ClientFrame frame;
  std::string code, error;
  EXPECT_FALSE(ParseClientFrame("not json at all", &frame, &code, &error));
  EXPECT_EQ(code, kErrBadJson);
  EXPECT_FALSE(ParseClientFrame("[1,2,3]", &frame, &code, &error));
  EXPECT_EQ(code, kErrBadFrame);
  EXPECT_FALSE(ParseClientFrame("{\"no_type\":1}", &frame, &code, &error));
  EXPECT_EQ(code, kErrBadFrame);
  EXPECT_FALSE(ParseClientFrame("{\"type\":\"teleport\"}", &frame, &code,
                                &error));
  EXPECT_EQ(code, kErrBadFrame);
  EXPECT_NE(error.find("teleport"), std::string::npos);
}

TEST(NetWireTest, ParseRejectsFutureSchemaBeforeAnythingElse) {
  ClientFrame frame;
  std::string code, error;
  // The frame gate fires even when the rest of the frame is nonsense a
  // v1 parser would otherwise complain about first.
  EXPECT_FALSE(ParseClientFrame(
      "{\"schema_version\":3,\"type\":\"warp\",\"gibberish\":true}", &frame,
      &code, &error));
  EXPECT_EQ(code, kErrUnsupportedSchema);
  EXPECT_NE(error.find("schema_version 3"), std::string::npos);

  // Same for a future-versioned *request* inside a v1 submit frame.
  EXPECT_FALSE(ParseClientFrame(
      "{\"schema_version\":1,\"type\":\"submit\","
      "\"request\":{\"schema_version\":7,\"flux\":1}}",
      &frame, &code, &error));
  EXPECT_EQ(code, kErrUnsupportedSchema);
}

TEST(NetWireTest, ParseValidatesSubmitAndJobFrames) {
  ClientFrame frame;
  std::string code, error;
  EXPECT_FALSE(ParseClientFrame("{\"type\":\"submit\"}", &frame, &code,
                                &error));
  EXPECT_EQ(code, kErrBadFrame);
  EXPECT_FALSE(ParseClientFrame(
      "{\"type\":\"submit\",\"request\":{\"pair\":-4}}", &frame, &code,
      &error));
  EXPECT_EQ(code, kErrBadRequest);
  EXPECT_FALSE(ParseClientFrame(
      "{\"type\":\"submit\",\"request\":{},\"watch\":\"yes\"}", &frame,
      &code, &error));
  EXPECT_EQ(code, kErrBadFrame);
  for (const char* type : {"status", "result", "cancel"}) {
    EXPECT_FALSE(ParseClientFrame("{\"type\":\"" + std::string(type) + "\"}",
                                  &frame, &code, &error));
    EXPECT_EQ(code, kErrBadFrame) << type;
    EXPECT_FALSE(ParseClientFrame(
        "{\"type\":\"" + std::string(type) + "\",\"job_id\":\"\"}", &frame,
        &code, &error));
    EXPECT_EQ(code, kErrBadFrame) << type;
  }
}

TEST(NetWireTest, EveryServerFrameIsOneVersionStampedJsonLine) {
  service::JobOutcome outcome;
  outcome.job_id = "j";
  outcome.state = service::JobState::kComplete;
  const std::vector<std::string> frames = {
      ErrorFrame(kErrBadJson, "m", "j"),
      AcceptedFrame("j"),
      StatusFrame("j", service::JobQueryState::kRunning, outcome),
      StatusFrame("j", service::JobQueryState::kComplete, outcome),
      ResultFrame("j", "{\"schema_version\":1}"),
      CancelledFrame("j"),
      PongFrame(),
      StatsFrame(service::JobRunner::Counters(), ServerStats()),
      ProgressEventFrame("j", "lattice", 10, 3, 100, 2),
      TerminalEventFrame(outcome),
      ShutdownEventFrame(),
  };
  for (const std::string& frame : frames) {
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame.back(), '\n');
    // Exactly one line: no interior newline to break line framing.
    EXPECT_EQ(frame.find('\n'), frame.size() - 1) << frame;
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(
        std::string_view(frame.data(), frame.size() - 1), &parsed, &error))
        << error << " in: " << frame;
    const JsonValue* version = parsed.Find("schema_version");
    ASSERT_NE(version, nullptr) << frame;
    EXPECT_EQ(version->int_value(), api::kSchemaVersion);
    EXPECT_FALSE(FrameType(parsed).empty()) << frame;
  }
}

// ---------------------------------------------------------------------
// Live server over real sockets.

TEST(NetServerTest, PingPongAndStats) {
  ScratchDir scratch("pingpong");
  auto server = StartServer(BaseOptions(scratch.dir()));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send(PingFrame()));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");

  ASSERT_TRUE(client.Send(StatsRequestFrame()));
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(FrameType(frame), "stats");
  const JsonValue* net = frame.Find("server");
  ASSERT_NE(net, nullptr);
  EXPECT_GE(net->Find("connections_accepted")->int_value(), 1);
  EXPECT_GE(net->Find("frames_in")->int_value(), 2);
  ASSERT_NE(frame.Find("runner"), nullptr);
}

TEST(NetServerTest, SubmitStreamsEventsThenServesVerbatimResult) {
  ScratchDir scratch("submit");
  auto server = StartServer(BaseOptions(scratch.dir()));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send(SubmitFrame(SmallRequest("s1"), /*watch=*/true)));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(FrameType(frame), "accepted") << frame.Find("message");
  EXPECT_EQ(frame.Find("job_id")->string_value(), "s1");

  // Watched submit: events flow until the terminal one; progress frames
  // are optional (coalesced, and a fast job may outrun them).
  bool saw_terminal = false;
  while (client.ReadFrame(&frame)) {
    ASSERT_EQ(FrameType(frame), "event");
    const std::string event = frame.Find("event")->string_value();
    if (event == "progress") {
      EXPECT_EQ(frame.Find("job_id")->string_value(), "s1");
      continue;
    }
    ASSERT_EQ(event, "terminal");
    EXPECT_EQ(frame.Find("job_id")->string_value(), "s1");
    EXPECT_EQ(frame.Find("state")->string_value(), "complete");
    saw_terminal = true;
    break;
  }
  ASSERT_TRUE(saw_terminal);
  // The runner retains the outcome's summary, not its result payload.
  const std::vector<service::JobOutcome> outcomes =
      server->runner().outcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].state, service::JobState::kComplete);
  EXPECT_TRUE(outcomes[0].result_json.empty());

  ASSERT_TRUE(client.Send(ResultRequestFrame("s1")));
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(FrameType(frame), "result") << FrameCode(frame);
  const JsonValue* result = frame.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("schema_version")->int_value(),
            api::kSchemaVersion);
  ASSERT_NE(result->Find("saliency"), nullptr);

  // The frame splices the stored result.json document verbatim (modulo
  // the trailing newline the file carries).
  std::string stored;
  ASSERT_TRUE(util::ReadFileToString(
      persist::ResultPathInDir(scratch.dir() + "/s1"), &stored));
  while (!stored.empty() && stored.back() == '\n') stored.pop_back();
  const std::string raw = ResultFrame("s1", stored);
  ASSERT_TRUE(client.Send(ResultRequestFrame("s1")));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line + "\n", raw);
}

TEST(NetServerTest, PartialAndCoalescedWritesFrameCorrectly) {
  ScratchDir scratch("partial");
  auto server = StartServer(BaseOptions(scratch.dir()));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // One frame dribbled across three writes...
  const std::string ping = PingFrame();
  ASSERT_TRUE(client.Send(ping.substr(0, 5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.Send(ping.substr(5, 7)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.Send(ping.substr(12)));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");

  // ...and three frames in one write; blank and CRLF lines are noise,
  // not errors.
  ASSERT_TRUE(client.Send(ping + "\r\n" + StatsRequestFrame() + ping));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "stats");
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");
}

TEST(NetServerTest, OversizedFrameGetsErrorThenDisconnect) {
  ScratchDir scratch("oversize");
  NetServerOptions options = BaseOptions(scratch.dir());
  options.max_frame_bytes = 256;
  auto server = StartServer(std::move(options));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // No newline in sight: the unterminated prefix crosses the cap.
  ASSERT_TRUE(client.Send(std::string(1024, 'x')));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "error");
  EXPECT_EQ(FrameCode(frame), kErrFrameTooLarge);
  std::string line;
  EXPECT_FALSE(client.ReadLine(&line));  // then the server hangs up
}

TEST(NetServerTest, GarbageLineLeavesConnectionUsable) {
  ScratchDir scratch("garbage");
  auto server = StartServer(BaseOptions(scratch.dir()));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("this is not a frame\n"));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "error");
  EXPECT_EQ(FrameCode(frame), kErrBadJson);

  ASSERT_TRUE(client.Send("{\"type\":\"submit\",\"request\":"
                          "{\"triangles\":1}}\n"));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameCode(frame), kErrBadRequest);

  // A bad frame costs the frame, not the connection.
  ASSERT_TRUE(client.Send(PingFrame()));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");
}

TEST(NetServerTest, UnknownJobAndNotCompleteCodes) {
  ScratchDir scratch("unknown");
  auto server = StartServer(BaseOptions(scratch.dir()));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  JsonValue frame;
  ASSERT_TRUE(client.Send(StatusRequestFrame("ghost")));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameCode(frame), kErrUnknownJob);
  ASSERT_TRUE(client.Send(ResultRequestFrame("ghost")));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameCode(frame), kErrUnknownJob);
  ASSERT_TRUE(client.Send(CancelRequestFrame("ghost")));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameCode(frame), kErrUnknownJob);

  // A job still in flight: result is premature, status names the state.
  ASSERT_TRUE(client.Send(SubmitFrame(LongRequest("slow1"),
                                      /*watch=*/false)));
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(FrameType(frame), "accepted");
  ASSERT_TRUE(client.Send(ResultRequestFrame("slow1")));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameCode(frame), kErrNotComplete);
  ASSERT_TRUE(client.Send(StatusRequestFrame("slow1")));
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(FrameType(frame), "status");
  const std::string state = frame.Find("state")->string_value();
  EXPECT_TRUE(state == "queued" || state == "running") << state;

  // Cancel parks it promptly instead of making teardown wait it out.
  ASSERT_TRUE(client.Send(CancelRequestFrame("slow1")));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "cancelled");
}

TEST(NetServerTest, QueueFullSubmissionsGetStableRejectCode) {
  ScratchDir scratch("queuefull");
  NetServerOptions options = BaseOptions(scratch.dir());
  options.runner.workers = 1;
  options.runner.queue_capacity = 1;
  auto server = StartServer(std::move(options));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // One long job occupies the worker, one fills the queue slot; a burst
  // behind them must shed with rejected_queue_full — reject-new, never
  // degrade-running.
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.Send(
        SubmitFrame(LongRequest("q" + std::to_string(i)),
                    /*watch=*/false)));
    JsonValue frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    if (FrameType(frame) == "accepted") {
      ++accepted;
    } else {
      ASSERT_EQ(FrameType(frame), "error");
      EXPECT_EQ(FrameCode(frame), kErrRejectedQueueFull);
      ++rejected;
    }
  }
  EXPECT_GE(accepted, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(accepted + rejected, 6);
  EXPECT_EQ(server->runner().counters().rejected_queue_full, rejected);

  // Park the in-flight work so teardown does not wait for ~2s jobs.
  for (int i = 0; i < 6; ++i) {
    JsonValue frame;
    ASSERT_TRUE(client.Send(CancelRequestFrame("q" + std::to_string(i))));
    ASSERT_TRUE(client.ReadFrame(&frame));
  }
}

TEST(NetServerTest, UnpersistableAdmissionGetsStableRejectCode) {
  ScratchDir scratch("storage");
  // A directory where the admission checkpoint goes makes its atomic
  // rename fail (a permission-based setup would not: tests run as root).
  fs::create_directories(
      persist::CheckpointPathInDir(scratch.dir() + "/blocked"));
  auto server = StartServer(BaseOptions(scratch.dir()));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(
      client.Send(SubmitFrame(SmallRequest("blocked"), /*watch=*/false)));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(FrameType(frame), "error");
  EXPECT_EQ(FrameCode(frame), kErrRejectedStorage);
  const service::JobRunner::Counters counters = server->runner().counters();
  EXPECT_EQ(counters.rejected_storage, 1);
  EXPECT_EQ(counters.accepted, 0);
  EXPECT_EQ(server->runner().Query("blocked"),
            service::JobQueryState::kUnknown);
}

TEST(NetServerTest, ConnectionCapAnswersThenHangsUp) {
  ScratchDir scratch("conncap");
  NetServerOptions options = BaseOptions(scratch.dir());
  options.max_connections = 1;
  auto server = StartServer(std::move(options));

  TestClient first(server->port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(first.Send(PingFrame()));
  JsonValue frame;
  ASSERT_TRUE(first.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");

  // With the cap held by `first`, the listener stops accepting; the
  // second connect must not steal service from the first.
  TestClient second(server->port(), /*timeout_seconds=*/2);
  std::string line;
  bool got_line = second.connected() && second.ReadLine(&line);
  if (got_line) {
    JsonValue rejected;
    std::string error;
    ASSERT_TRUE(JsonValue::Parse(line, &rejected, &error)) << error;
    EXPECT_EQ(FrameCode(rejected), kErrTooManyConnections);
  }
  // Either way the first connection still works.
  ASSERT_TRUE(first.Send(PingFrame()));
  ASSERT_TRUE(first.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");
}

TEST(NetServerTest, ClientDisconnectMidJobDoesNotLoseTheJob) {
  ScratchDir scratch("disconnect");
  auto server = StartServer(BaseOptions(scratch.dir()));
  {
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(SubmitFrame(SmallRequest("d1"),
                                        /*watch=*/true)));
    JsonValue frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(FrameType(frame), "accepted");
    // Hang up while watched events may be in flight.
  }

  TestClient later(server->port());
  ASSERT_TRUE(later.connected());
  JsonValue frame;
  for (int attempt = 0; attempt < 200; ++attempt) {
    ASSERT_TRUE(later.Send(StatusRequestFrame("d1")));
    ASSERT_TRUE(later.ReadFrame(&frame));
    ASSERT_EQ(FrameType(frame), "status");
    if (frame.Find("state")->string_value() == "complete") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(frame.Find("state")->string_value(), "complete");
  ASSERT_TRUE(later.Send(ResultRequestFrame("d1")));
  ASSERT_TRUE(later.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "result");
}

TEST(NetServerTest, OversizedRequiredResponseIsDeliveredNotDropped) {
  ScratchDir scratch("bigframe");
  NetServerOptions options = BaseOptions(scratch.dir());
  // The cap bounds a stalled reader's backlog, never the size of one
  // response: with an empty buffer, a frame bigger than the whole cap
  // must still arrive. (The regression this pins: a result.json larger
  // than --max-write-buffer was unconditionally answered with a
  // disconnect, so the client re-requested it forever.)
  options.max_write_buffer = 64;
  auto server = StartServer(std::move(options));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send(StatsRequestFrame()));
  JsonValue frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "stats");
  EXPECT_EQ(server->stats().slow_reader_closes, 0);
}

TEST(NetServerTest, SlowReaderWithBacklogIsDisconnectedNotBuffered) {
  ScratchDir scratch("slowreader");
  NetServerOptions options = BaseOptions(scratch.dir());
  options.max_write_buffer = 64;
  auto server = StartServer(std::move(options));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());

  // Pipeline stats requests without ever reading a response. Once the
  // kernel socket buffers fill, responses accumulate in the server's
  // write buffer past the cap and the next required response closes
  // the connection instead of ballooning memory. Send() starts failing
  // (EPIPE/RST) once the server hangs up.
  const std::string request = StatsRequestFrame();
  for (int batch = 0; batch < 2000; ++batch) {
    if (server->stats().slow_reader_closes > 0) break;
    bool sendable = true;
    for (int i = 0; i < 100 && sendable; ++i) sendable = client.Send(request);
    if (!sendable) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (server->stats().slow_reader_closes > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->stats().slow_reader_closes, 1);

  // The shed protected the server, not just punished the client: a
  // fresh connection still gets served.
  TestClient second(server->port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.Send(PingFrame()));
  JsonValue frame;
  ASSERT_TRUE(second.ReadFrame(&frame));
  EXPECT_EQ(FrameType(frame), "pong");
}

TEST(NetServerTest, StopWithoutDrainParksRunningJobResumable) {
  ScratchDir scratch("stoppark");
  ScratchDir reference_dir("stoppark_ref");
  const api::ExplainRequest request = LongRequest("park1");

  std::string served_shutdown;
  {
    NetServerOptions options = BaseOptions(scratch.dir());
    options.runner.workers = 1;
    auto server = StartServer(std::move(options));
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(SubmitFrame(request, /*watch=*/true)));
    JsonValue frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    ASSERT_EQ(FrameType(frame), "accepted");

    // Stop without draining once the job has reached the lattice phase:
    // RunDurableExplain syncs the journal at that phase boundary before
    // the progress event goes out, so the parked job has paid scores to
    // resume from however long training and triangle search took.
    auto progress_phase = [](const JsonValue& event_frame) {
      const JsonValue* event = event_frame.Find("event");
      const JsonValue* phase = event_frame.Find("phase");
      return event != nullptr && event->string_value() == "progress" &&
                     phase != nullptr
                 ? phase->string_value()
                 : std::string();
    };
    do {
      ASSERT_TRUE(client.ReadFrame(&frame));
      ASSERT_EQ(FrameType(frame), "event");
      ASSERT_FALSE(progress_phase(frame).empty())
          << "job ended before its lattice phase";
    } while (progress_phase(frame) != "lattice");
    server->Stop(/*drain=*/false);

    // Every open connection is told, then the server hangs up; EOF here
    // means BeginDrain (and the runner shutdown inside it) finished. The
    // watched job's last progress and its parked terminal event may come
    // first.
    do {
      ASSERT_TRUE(client.ReadFrame(&frame));
    } while (!progress_phase(frame).empty() ||
             (frame.Find("event") != nullptr &&
              frame.Find("event")->string_value() == "terminal"));
    EXPECT_EQ(FrameType(frame), "event");
    EXPECT_EQ(frame.Find("event")->string_value(), "shutdown");
    std::string line;
    EXPECT_FALSE(client.ReadLine(&line));
  }

  // The job dir is parked resumable: checkpoint present, no result.
  const std::string job_dir = scratch.dir() + "/park1";
  persist::JobCheckpoint checkpoint;
  std::string error;
  ASSERT_TRUE(persist::LoadCheckpoint(
      persist::CheckpointPathInDir(job_dir), &checkpoint, &error))
      << error;
  EXPECT_NE(checkpoint.state, "complete");
  EXPECT_FALSE(
      util::PathExists(persist::ResultPathInDir(job_dir)));

  // Resume completes it — bit-identical to a never-interrupted run.
  service::JobOutcome reference = service::RunDurableExplain(
      request, reference_dir.dir(), service::DurableRunOptions());
  ASSERT_EQ(reference.state, service::JobState::kComplete)
      << reference.error;
  service::JobOutcome resumed = service::RunDurableExplain(
      request, job_dir, service::DurableRunOptions());
  ASSERT_EQ(resumed.state, service::JobState::kComplete) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.result_json, reference.result_json);
}

TEST(NetServerTest, ResultsSurviveAcrossServerLifetimes) {
  ScratchDir scratch("restart");
  std::string first_line;
  {
    auto server = StartServer(BaseOptions(scratch.dir()));
    TestClient client(server->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send(SubmitFrame(SmallRequest("r1"),
                                        /*watch=*/true)));
    JsonValue frame;
    bool terminal = false;
    while (client.ReadFrame(&frame)) {
      const JsonValue* event = frame.Find("event");
      if (event != nullptr && event->string_value() == "terminal") {
        terminal = true;
        break;
      }
    }
    ASSERT_TRUE(terminal);
    ASSERT_TRUE(client.Send(ResultRequestFrame("r1")));
    ASSERT_TRUE(client.ReadLine(&first_line));
    ASSERT_NE(first_line.find("\"type\":\"result\""), std::string::npos)
        << first_line;
  }

  // A fresh server over the same job_root has never heard of r1 — the
  // job dir on disk is the durable source of truth.
  auto server = StartServer(BaseOptions(scratch.dir()));
  TestClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(ResultRequestFrame("r1")));
  std::string second_line;
  ASSERT_TRUE(client.ReadLine(&second_line));
  EXPECT_EQ(second_line, first_line);
}

}  // namespace
}  // namespace certa::net
