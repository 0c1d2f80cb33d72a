#ifndef CERTA_SERVICE_STREAM_COORDINATOR_H_
#define CERTA_SERVICE_STREAM_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/explain_request.h"
#include "data/dataset.h"
#include "data/mutable_table.h"
#include "obs/metrics.h"
#include "persist/record_log.h"

namespace certa::service {

/// The streaming/online half of the service (docs/OPERATIONS.md
/// "Streaming mode"): record upserts and removals arrive through the
/// v2 wire protocol, mutate per-dataset data::MutableTable overlays,
/// and lazily invalidate explanations whose inputs drifted.
///
/// Durability mirrors the score store's shared-directory discipline
/// (persist::ScoreStore): one stream directory serves the whole fleet,
/// every byte has exactly one writer. Worker `slot` appends each op to
/// its own `ops-w<slot>.wal`, a persist::RecordLog (record_log.h, which
/// owns the framing, the recovery rule and the failure policy) with the
/// header "CERTASTREAM v1\n" and one text record per op whose payload
/// is the op's JSON. The fsync happens BEFORE the ack frame goes out,
/// so an acked upsert survives SIGKILL, and a refused append is cut
/// back, so it never becomes durable. Sibling streams are absorbed
/// read-only through persist::PeerTail from remembered offsets, and the
/// whole derived state — overlay tables, absorbed offsets, dependency
/// registry — is checkpointed atomically to `state-w<slot>.ckpt` so a
/// restart replays only each stream's tail. A corrupt checkpoint is
/// never trusted: recovery falls back to replaying every stream from
/// byte 0, which is always safe because ops converge by per-record
/// last-writer-wins.
///
/// Ordering. Every op carries a Lamport sequence (seq, slot): local
/// ops take seq = ++clock, absorbed ops advance the clock, and a
/// record's state is the op with the largest (seq, slot) that touched
/// it — so all workers converge to the same record states regardless
/// of absorption order. (Row *numbering* of appended records follows
/// each worker's application order; one worker is internally
/// deterministic, which is what replay-for-recovery and the
/// recompute-equals-fresh-batch guarantee need.)
///
/// Staleness. ProvideDataset — the runner's dataset hook — registers
/// which record ids a job's explained pair reads, stamped with the
/// clock value the job's snapshot was taken at (a `deps` op, so the
/// registry itself is durable and fleet-visible). A later op on any
/// of those records makes the job stale: `result` fetches answer
/// `stale_recomputing` and re-submit the job, `invalidations`
/// subscribers get an event, and the recompute re-registers deps at
/// the new snapshot. Content-hashed pair keys (models::PairKey) keep
/// the score store safe across mutations — a mutated record hashes to
/// new keys, so recompute re-uses every paid score that is still
/// valid and can never be served a stale one.
class StreamCoordinator {
 public:
  struct Options {
    /// The shared stream directory (created when missing).
    std::string dir;
    /// This writer's stream slot (fleet workers pass their worker
    /// slot; single-process serving uses 0).
    int slot = 0;
    /// Observability (not owned; nullptr = uninstrumented).
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Machine-mappable failure kind of one streaming call (the wire
  /// layer maps these onto stable error codes).
  enum class OpStatus {
    kOk = 0,
    /// Dataset code unknown / dataset directory unloadable.
    kUnknownDataset = 1,
    /// Record shape does not fit the dataset (value count vs schema,
    /// negative id).
    kBadRecord = 2,
    /// WAL append/fsync or checkpoint I/O failure.
    kIo = 3,
  };

  /// What one accepted upsert/remove durably became.
  struct Ack {
    uint64_t seq = 0;
    int slot = 0;
    int row = -1;
    /// Upsert only: appended a new row (vs replaced in place).
    bool created = false;
    /// Remove only: a live record was actually tombstoned (false =
    /// acknowledged no-op on an unknown or already-removed id).
    bool removed = false;
  };

  /// One completed job whose inputs just drifted.
  struct Invalidation {
    std::string job_id;
    std::string dataset;
    int side = 0;
    int record_id = -1;
  };

  struct MatchCandidate {
    int id = -1;
    int overlap = 0;
    std::vector<std::string> values;
  };

  struct Stats {
    uint64_t clock = 0;
    /// Upserts/removes this writer accepted (not replayed or absorbed).
    long long ops_applied = 0;
    long long ops_absorbed = 0;
    long long upserts = 0;
    long long removes = 0;
    long long deps_registered = 0;
    long long invalidations = 0;
    long long checkpoints = 0;
    long long torn_bytes_dropped = 0;
    long long replayed_ops = 0;
    int datasets = 0;
    int stale_jobs = 0;
  };

  StreamCoordinator() = default;
  ~StreamCoordinator();

  StreamCoordinator(const StreamCoordinator&) = delete;
  StreamCoordinator& operator=(const StreamCoordinator&) = delete;

  /// Loads the checkpoint (when valid), recovers the own stream
  /// (cutting a torn tail), replays every stream's unabsorbed tail,
  /// and opens the own stream for appending. False + *error on I/O
  /// failure.
  bool Open(const Options& options, std::string* error);
  bool is_open() const { return wal_.is_open(); }
  /// Final checkpoint + close. Idempotent.
  void Close();

  /// Applies one record upsert durably: WAL append + fsync, then the
  /// in-memory overlay. `invalidated` (optional) receives completed
  /// jobs this op just made stale. The record's id addresses the row
  /// (data::MutableTable::Upsert semantics).
  OpStatus Upsert(const std::string& dataset, const std::string& data_dir,
                  int side, const data::Record& record, Ack* ack,
                  std::vector<Invalidation>* invalidated, std::string* error);

  /// Tombstones a record (durable, same path as Upsert). Removing an
  /// id the table does not hold is acknowledged as a no-op row -1.
  OpStatus Remove(const std::string& dataset, const std::string& data_dir,
                  int side, int record_id, Ack* ack,
                  std::vector<Invalidation>* invalidated, std::string* error);

  /// Top-k candidates for a probe record against `side` of the
  /// dataset, ranked by (shared-token overlap desc, record id asc) —
  /// the id tiebreak makes replies convergent fleet-wide once ops are
  /// absorbed. Absorbs sibling streams first, so a match sees every
  /// already-acked sibling upsert the directory holds.
  OpStatus Match(const std::string& dataset, const std::string& data_dir,
                 int side, const std::vector<std::string>& probe_values,
                 int k, std::vector<MatchCandidate>* candidates,
                 std::string* error);

  /// service::DurableRunOptions::dataset_provider — materializes the
  /// job's dataset from the current overlays (absorbing sibling
  /// streams first) and durably registers the job's record
  /// dependencies at this snapshot. Clears any previous staleness of
  /// the job id (the recompute path re-registers here).
  bool ProvideDataset(const api::ExplainRequest& request,
                      data::Dataset* dataset, std::string* error);

  /// Whether a completed job's registered inputs have drifted since
  /// its snapshot. Unregistered jobs are never stale.
  bool IsStale(const std::string& job_id) const;

  /// Every job currently known stale, sorted by id (the catch-up list
  /// an `invalidations` subscription answers with).
  std::vector<std::string> StaleJobs() const;

  /// Time-gated sibling-stream absorption for idle servers (the event
  /// loop calls this every beat; at most one pass per 200 ms does any
  /// work). Returns jobs newly invalidated by absorbed ops.
  std::vector<Invalidation> MaybeAbsorbPeers();
  /// Unconditional absorption pass.
  std::vector<Invalidation> AbsorbPeers();

  Stats stats() const;
  /// The stats() snapshot as one compact JSON object — spliced into
  /// the wire stats frame as its "stream" section.
  std::string StatsJson() const;
  const std::string& dir() const { return options_.dir; }
  int slot() const { return options_.slot; }

  /// Name of this slot's stream / checkpoint file inside dir.
  static std::string WalFileName(int slot);
  static std::string CheckpointFileName(int slot);

 private:
  struct Version {
    uint64_t seq = 0;
    int slot = -1;
    bool Newer(const Version& other) const {
      return seq != other.seq ? seq > other.seq : slot > other.slot;
    }
  };

  struct StreamOp {
    enum class Kind { kUpsert, kRemove, kDeps };
    Kind kind = Kind::kUpsert;
    uint64_t seq = 0;
    int slot = 0;
    std::string dataset;
    std::string data_dir;
    int side = 0;
    data::Record record;  // upsert: id+values; remove: id only
    // deps:
    std::string job_id;
    uint64_t snapshot = 0;
    struct DepRecord {
      std::string dataset;
      std::string data_dir;
      int side = 0;
      int id = -1;
    };
    std::vector<DepRecord> dep_records;
  };

  struct Overlay {
    std::string dataset;
    std::string data_dir;
    data::Dataset base;  // frozen splits; tables superseded by sides
    data::MutableTable sides[2];
    int base_rows[2] = {0, 0};
  };

  struct JobDeps {
    Version version;  // of the deps op (last-writer-wins)
    uint64_t snapshot = 0;
    std::vector<StreamOp::DepRecord> records;
  };

  static std::string DatasetKey(const std::string& dataset,
                                const std::string& data_dir);
  static std::string RecordKey(const std::string& dataset,
                               const std::string& data_dir, int side, int id);

  Overlay* GetOverlayLocked(const std::string& dataset,
                            const std::string& data_dir, std::string* error);
  /// Appends `op` to the own WAL and fsyncs — the ack durability
  /// boundary — then applies it. False (op neither durable nor
  /// applied) on I/O failure.
  bool CommitLocked(const StreamOp& op, Ack* ack,
                    std::vector<Invalidation>* invalidated,
                    std::string* error);
  /// Applies an op to the overlays/deps registry (last-writer-wins),
  /// collecting invalidations. Returns false only when the op's
  /// dataset cannot be loaded (the op is then counted and skipped).
  bool ApplyOpLocked(const StreamOp& op, Ack* ack,
                     std::vector<Invalidation>* invalidated);
  void RecomputeJobStalenessLocked(const std::string& job_id);
  void MarkWatchersStaleLocked(const StreamOp& op,
                               std::vector<Invalidation>* invalidated);
  std::vector<Invalidation> AbsorbPeersLocked();
  /// Parses and applies one WAL payload read from a stream (own replay
  /// or a sibling); false when it does not parse.
  bool ApplyPayloadLocked(std::string_view payload,
                          std::vector<Invalidation>* invalidated);
  void MaybeCheckpointLocked();
  bool WriteCheckpointLocked();
  /// Loads a valid checkpoint into the derived state; *own_offset gets
  /// the own stream's absorbed offset.
  bool LoadCheckpointLocked(size_t* own_offset);
  static std::string SerializeOp(const StreamOp& op);
  static bool ParseOp(std::string_view json, StreamOp* op);
  int64_t NowMs() const;

  Options options_;
  mutable std::mutex mutex_;
  persist::RecordLog wal_;
  uint64_t clock_ = 0;
  std::map<std::string, Overlay> overlays_;  // by DatasetKey
  std::unordered_map<std::string, Version> mods_;  // by RecordKey
  std::map<std::string, JobDeps> deps_;  // by job id
  std::unordered_map<std::string, std::set<std::string>> watchers_;
  std::set<std::string> stale_;
  /// Sibling stream files by name. The own stream's absorbed offset is
  /// wal_.size(): every durable own op is applied.
  std::map<std::string, persist::PeerTail> peers_;
  Stats stats_;
  int ops_since_checkpoint_ = 0;
  int64_t last_absorb_ms_ = 0;
  obs::Counter* metric_ops_ = nullptr;
  obs::Counter* metric_absorbed_ = nullptr;
  obs::Counter* metric_invalidations_ = nullptr;
  obs::Counter* metric_checkpoints_ = nullptr;
};

}  // namespace certa::service

#endif  // CERTA_SERVICE_STREAM_COORDINATOR_H_
