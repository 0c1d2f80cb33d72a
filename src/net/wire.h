#ifndef CERTA_NET_WIRE_H_
#define CERTA_NET_WIRE_H_

#include <string>
#include <vector>

#include "api/explain_request.h"
#include "core/certa_explainer.h"
#include "service/job_runner.h"
#include "util/json_parser.h"

namespace certa::net {

/// Line-delimited JSON wire protocol (docs/SERVICE.md): every frame is
/// exactly one JSON object on one '\n'-terminated line, stamped with a
/// schema_version. Client frames carry a "type" of submit | status |
/// result | cancel | stats | ping (v1), plus upsert | remove | match |
/// invalidations (v2, streaming); server frames answer with accepted |
/// status | result | cancelled | stats | pong | upserted | removed |
/// match | invalidations | error, plus asynchronous "event" frames
/// (progress / terminal / shutdown / invalidation) for watched jobs.
///
/// Versioning is negotiated per connection: a connection starts at
/// v1 and is upgraded the first time a frame declares a higher
/// schema_version (never downgraded); every reply is stamped with the
/// connection's negotiated version, so v1 clients keep receiving
/// bit-identical v1 frames from a v2 server. The v2-only verbs
/// require the frame itself to declare schema_version >= 2.
///
/// This header is the single builder/parser both the server and
/// tools/certa_client use — the frames cannot drift apart.

/// Stable machine-readable error codes (`"code"` in error frames).
/// Human text rides alongside in `"message"`; clients branch on the
/// code only.
inline constexpr char kErrBadJson[] = "bad_json";
inline constexpr char kErrBadFrame[] = "bad_frame";
inline constexpr char kErrBadRequest[] = "bad_request";
inline constexpr char kErrUnsupportedSchema[] = "unsupported_schema";
inline constexpr char kErrRejectedQueueFull[] = "rejected_queue_full";
inline constexpr char kErrRejectedClosed[] = "rejected_closed";
inline constexpr char kErrRejectedDeadline[] = "rejected_deadline";
inline constexpr char kErrRejectedStorage[] = "rejected_storage";
inline constexpr char kErrUnknownJob[] = "unknown_job";
inline constexpr char kErrNotComplete[] = "not_complete";
inline constexpr char kErrFrameTooLarge[] = "frame_too_large";
inline constexpr char kErrTooManyConnections[] = "too_many_connections";
inline constexpr char kErrShuttingDown[] = "shutting_down";
/// v2 (streaming) codes — see docs/SERVICE.md for the full table.
inline constexpr char kErrStaleRecomputing[] = "stale_recomputing";
inline constexpr char kErrUnknownDataset[] = "unknown_dataset";
inline constexpr char kErrBadRecord[] = "bad_record";
inline constexpr char kErrStreamingUnavailable[] = "streaming_unavailable";

/// One parsed client frame.
struct ClientFrame {
  enum class Type {
    kSubmit,
    kStatus,
    kResult,
    kCancel,
    kStats,
    kPing,
    // v2 streaming verbs (the frame must declare schema_version >= 2):
    kUpsert,
    kRemove,
    kMatch,
    kInvalidations,
  };
  Type type = Type::kPing;
  /// schema_version the frame itself declared (1 when absent). The
  /// server sticks each connection at the highest version seen.
  int schema_version = 1;
  /// Valid for kSubmit.
  api::ExplainRequest request;
  /// kSubmit: deprecated key spellings the request used (v1 only; v2
  /// rejects them). The server surfaces at most one note per
  /// connection.
  std::vector<std::string> deprecation_notes;
  /// kSubmit: stream progress/terminal events for this job to the
  /// submitting connection (default true).
  bool watch = true;
  /// Valid for kStatus / kResult / kCancel.
  std::string job_id;
  /// Valid for kUpsert / kRemove / kMatch.
  std::string dataset;
  std::string data_dir;
  int side = 0;
  /// kUpsert / kRemove: the record id addressed.
  int record_id = -1;
  /// kUpsert: record values; kMatch: the probe's values.
  std::vector<std::string> values;
  /// kMatch: number of candidates wanted (default 10).
  int top_k = 10;
  /// kInvalidations: subscribe to invalidation events on this
  /// connection (default true).
  bool subscribe = true;
};

/// Parses one frame line (without the trailing newline). On failure
/// returns false and sets *code to one of the kErr constants and
/// *error to the human-readable message.
bool ParseClientFrame(std::string_view line, ClientFrame* frame,
                      std::string* code, std::string* error);

// -- server-side frame builders (each returns one full line, '\n'
// included; `version` is the connection's negotiated schema_version
// and stamps the frame) --

std::string ErrorFrame(const std::string& code, const std::string& message,
                       const std::string& job_id = "",
                       int version = api::kSchemaVersion);
/// `note`, when non-empty, rides along as a "note" field — the
/// once-per-connection deprecation nudge for legacy key spellings.
std::string AcceptedFrame(const std::string& job_id,
                          const std::string& note = "",
                          int version = api::kSchemaVersion);
std::string StatusFrame(const std::string& job_id,
                        service::JobQueryState state,
                        const service::JobOutcome& outcome,
                        int version = api::kSchemaVersion);
/// `result_json` is the stored result.json document, spliced verbatim.
std::string ResultFrame(const std::string& job_id,
                        const std::string& result_json,
                        int version = api::kSchemaVersion);
std::string CancelledFrame(const std::string& job_id,
                           int version = api::kSchemaVersion);
/// What this server can do — the ping reply carries it at every
/// schema version so even v1 clients can feature-detect v2 instead of
/// parsing error strings.
struct Capabilities {
  /// Serving processes behind this endpoint (fleet size; 1 = single).
  int workers = 1;
  /// Score-store deployment: "none" | "private" | "shared".
  std::string store_mode = "none";
  /// Whether the streaming verbs are live (a stream dir is attached).
  bool streaming = false;
};
std::string PongFrame(const Capabilities& capabilities = Capabilities{},
                      int version = api::kSchemaVersion);
/// Runner counters + server-side connection/byte counters.
struct ServerStats {
  long long connections_accepted = 0;
  long long connections_active = 0;
  long long frames_in = 0;
  long long bytes_in = 0;
  long long bytes_out = 0;
  long long events_dropped = 0;
  long long slow_reader_closes = 0;
};
/// `fleet_json`, when non-empty, is a pre-serialized JSON object
/// spliced in verbatim as a "fleet" section — the master's fan-in of
/// every worker's runner/server counters (eventually consistent; see
/// docs/SERVICE.md). Single-process servers leave it empty and emit no
/// "fleet" key, so clients can distinguish the two deployments.
/// `stream_json`, when non-empty, is a pre-serialized JSON object
/// spliced in verbatim as a "stream" section (the coordinator's op /
/// staleness counters).
std::string StatsFrame(const service::JobRunner::Counters& counters,
                       const ServerStats& stats,
                       const std::string& fleet_json = "",
                       const std::string& stream_json = "",
                       int version = api::kSchemaVersion);
std::string ProgressEventFrame(const std::string& job_id,
                               const std::string& phase, int triangles_total,
                               int triangles_tagged,
                               long long predictions_performed,
                               long long total_flips,
                               int version = api::kSchemaVersion);
std::string TerminalEventFrame(const service::JobOutcome& outcome,
                               int version = api::kSchemaVersion);
std::string ShutdownEventFrame(int version = api::kSchemaVersion);

// -- v2 streaming server frames --

std::string UpsertedFrame(const std::string& dataset, int side,
                          int record_id, long long seq, int slot,
                          bool created, int version = api::kSchemaVersion);
std::string RemovedFrame(const std::string& dataset, int side,
                         int record_id, long long seq, int slot,
                         bool removed, int version = api::kSchemaVersion);
struct WireMatchCandidate {
  int id = -1;
  int overlap = 0;
  std::vector<std::string> values;
};
std::string MatchFrame(const std::string& dataset, int side,
                       const std::vector<WireMatchCandidate>& candidates,
                       int version = api::kSchemaVersion);
/// Ack for the `invalidations` verb: the subscription state plus the
/// jobs currently known stale, so a client can catch up in one frame.
std::string InvalidationsFrame(bool subscribed,
                               const std::vector<std::string>& stale_jobs,
                               int version = api::kSchemaVersion);
/// Asynchronous event pushed to invalidation subscribers (droppable
/// under backpressure like every event frame).
std::string InvalidationEventFrame(const std::string& job_id,
                                   const std::string& dataset, int side,
                                   int record_id,
                                   int version = api::kSchemaVersion);

// -- client-side frame builders (tools/certa_client, tests) --

std::string SubmitFrame(const api::ExplainRequest& request, bool watch);
std::string StatusRequestFrame(const std::string& job_id);
std::string ResultRequestFrame(const std::string& job_id);
std::string CancelRequestFrame(const std::string& job_id);
std::string StatsRequestFrame();
std::string PingFrame();
/// The v2 verbs declare schema_version 2 in the frame (required).
std::string UpsertRequestFrame(const std::string& dataset,
                               const std::string& data_dir, int side,
                               int record_id,
                               const std::vector<std::string>& values);
std::string RemoveRequestFrame(const std::string& dataset,
                               const std::string& data_dir, int side,
                               int record_id);
std::string MatchRequestFrame(const std::string& dataset,
                              const std::string& data_dir, int side,
                              const std::vector<std::string>& probe_values,
                              int top_k);
std::string InvalidationsRequestFrame(bool subscribe);

}  // namespace certa::net

#endif  // CERTA_NET_WIRE_H_
