// Shared declarations of e2e_loadgen, the load generator and traced
// replayer of the wire-level end-to-end benchmark (README.md). One
// binary, four modes, exchanging plain files inside one work directory:
//
//   e2e_loadgen plan   --workload W --seed N --seconds S --dir D [--tiny 1]
//   e2e_loadgen setup  --dir D --port P
//   e2e_loadgen drive  --dir D --port P
//   e2e_loadgen replay --dir D --server-dir S --trace 0|1 [--corrupt C]
//
// `plan` draws every request from the seed (the servers only ever see
// the generated frames); `setup` is the traffic before timing starts
// (ping, store prewarm, stream seed jobs); `drive` is the timed closed-
// or open-loop load; `replay` re-runs the same requests in-process,
// byte-checks every served answer against them and, with --trace 1,
// splits each request into per-layer spans.
#ifndef CERTA_E2EBENCH_LOADGEN_H_
#define CERTA_E2EBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/explain_request.h"
#include "util/json_parser.h"

namespace certa::e2ebench {

/// Dataset of the streaming workload.
inline constexpr char kStreamDataset[] = "AB";
/// Candidates asked for by every match probe.
inline constexpr int kMatchTopK = 10;

inline int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;
  long long GetInt(const std::string& key, long long fallback) const;
};

/// One scheduled v2 operation of the streaming workload.
struct Op {
  /// Offset from the start of the schedule.
  int64_t at_us = 0;
  /// 'u' upsert, 'r' remove, 'm' match.
  char kind = 'u';
  int side = 0;
  /// Upsert/remove: the record id addressed.
  int id = -1;
  /// Upsert: the record; match: the probe.
  std::vector<std::string> values;
  /// Upsert: the record's unique token (values[0]).
  std::string token;
  /// Upsert of a record a seed job depends on (triggers a refresh).
  bool dep_hit = false;
};

struct Plan {
  std::string workload;
  uint64_t seed = 0;
  bool tiny = false;
  int seconds = 10;
  /// Closed-loop clients (explain workloads).
  int clients = 1;
  /// Closed loop: new jobs stop only at a multiple of this many issued
  /// jobs, so every run covers whole rounds of the request mix.
  int round = 1;
  /// Threads of the prewarm jobs (explain_warm setup only).
  int prewarm_threads = 1;
  /// explain_cold: the job sequence; explain_warm: the request pool;
  /// stream_mixed: the seed jobs that register record dependencies.
  std::vector<api::ExplainRequest> requests;
  /// Closed loop: indices into `requests`, in issue order.
  std::vector<int> order;
  /// stream_mixed: open-loop rate (ops/s) and schedule.
  double rate = 0.0;
  std::vector<Op> ops;
};

Plan MakePlan(const std::string& workload, uint64_t seed, int seconds,
              bool tiny);
bool WritePlan(const std::string& path, const Plan& plan);
bool ReadPlan(const std::string& path, Plan* plan, std::string* error);

/// One served explain job, as the client saw it. Times are steady-clock
/// microseconds of the load generator.
struct JobRecord {
  /// "setup" | "timed".
  std::string phase;
  /// Index into Plan::requests (-1 for a ping).
  int req = -1;
  std::string job_id;
  int64_t send = 0;  // submit frame sent
  int64_t acc = 0;   // `accepted` received
  int64_t term = 0;  // terminal event received
  int64_t rs = 0;    // result request sent
  int64_t res = 0;   // whole result frame received
  long long fresh = -1;
  /// CRC-32 and length of the result frame line (without '\n').
  uint32_t crc = 0;
  long long bytes = 0;
  bool ok = false;
  /// Failure bucket: the wire error `code`, or "timeout",
  /// "disconnect", "connect", "job_<state>".
  std::string code;
};

std::string JobRecordJson(const JobRecord& record);
JobRecord JobRecordFromJson(const JsonValue& value);

/// Reads a JSON-lines file; unparsable lines are skipped.
std::vector<JsonValue> ReadJsonLines(const std::string& path);
bool AppendLines(const std::string& path, const std::vector<std::string>& lines);
/// The v2 request frame of one scheduled op.
std::string OpFrame(const Op& op);
/// Values of a match probe for `token` on a table of `arity`
/// attributes (the token, then empty attributes).
std::vector<std::string> TokenProbe(const std::string& token, int arity);

int RunSetup(const Args& args);
int RunDrive(const Args& args);
int RunReplay(const Args& args);

}  // namespace certa::e2ebench

#endif  // CERTA_E2EBENCH_LOADGEN_H_
