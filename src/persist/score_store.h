#ifndef CERTA_PERSIST_SCORE_STORE_H_
#define CERTA_PERSIST_SCORE_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/scoring_engine.h"
#include "obs/metrics.h"
#include "persist/dir_lock.h"
#include "persist/record_log.h"

namespace certa::persist {

/// Durable, cross-job prediction store.
///
/// The write-ahead journal (src/persist/journal) makes ONE job
/// resumable; it lives inside that job's directory and dies with it.
/// The score store is the cross-job complement: a directory of
/// CRC32-checksummed segment files shared by every job that runs the
/// same model over the same data, surviving server restarts. The
/// ScoringEngine reads through it (Options::store_probe /
/// store_write), so a repeated or resumed job skips every model call
/// the store already holds while producing byte-identical results —
/// scores are deterministic, so a stored value IS the value the model
/// would return.
///
/// Keying. Entries are keyed by a fixed-size hashed triple: a 64-bit
/// *scope* identifying (matcher id, model fingerprint) and the 128-bit
/// pair content hash (models::PairKey). Different models — or the same
/// model retrained on different data — land in disjoint scopes, so one
/// store directory safely serves heterogeneous traffic.
///
/// On-disk format: one or more segment files, each a persist::RecordLog
/// (record_log.h, which owns the framing, the recovery rule and the
/// failure policy) with the header "CERTASST" + uint32 version (1) and
/// 32-byte binary payloads:
///   uint64 scope | uint64 key.lo | uint64 key.hi | double score
/// The highest-numbered segment is the active one; appends go there
/// (buffered; Sync() is the durability boundary, journal-style). Open
/// trusts the longest valid record prefix of each segment and cuts the
/// active segment's torn tail off.
///
/// Sharing (Options::stream_slot >= 0). One directory can be the
/// namespace for a whole worker fleet: every byte on disk has exactly
/// one writer because each worker appends only to its own stream of
/// segments, `segment-w<slot>-NNNNNN.seg`, while reading every other
/// stream lock-free. Exclusivity shrinks from the whole directory to
/// the stream (".lock-w<slot>"): two processes can never own the same
/// stream, but siblings coexist. Sibling segments are absorbed on Open
/// and re-absorbed incrementally by RefreshPeers(), one
/// persist::PeerTail per sibling file (a torn or in-flight tail waits
/// for its owner). Entries paid by a sibling are flagged, so
/// Stats::peer_hits tells cross-worker reuse apart from own hits.
/// With stream_slot = -1 (default) the store is a single-writer
/// namespace using legacy `segment-NNNNNN.seg` names; stream-named
/// segments found in the directory (an ex-fleet store) are still
/// absorbed read-only as peers.
///
/// Compaction rewrites this writer's live entries into a single
/// next-numbered segment of its own stream (persist::RewriteRecordLog,
/// an atomic rename), then unlinks the stream's old segments — never a
/// sibling's. In shared mode the directory-wide flock'd
/// compaction lease (".compact-lease") serializes rewrites so at most
/// one worker churns the directory at a time; a busy lease skips the
/// compaction (it retries on a later call). A crash at any point
/// leaves either the old segments (rename not reached) or the new one
/// plus some not-yet-unlinked old ones (duplicate entries across
/// segments are harmless — deterministic scores agree); leftover temp
/// files are ignored and swept on the stream owner's next Open.
class ScoreStore {
 public:
  struct Options {
    /// Roll the active segment once it exceeds this many bytes (keeps
    /// any single recovery scan and compaction rewrite bounded).
    size_t max_segment_bytes = 8u << 20;
    /// Hold a flock-based DirLock for the lifetime of the open store,
    /// so two processes can never attach the same writer namespace
    /// (serve and the fleet workers enable this; plain library use
    /// stays lock-free so read-only tooling can inspect a live store's
    /// segments). The lock file is ".lock" for a whole-directory store
    /// and ".lock-w<slot>" for a shared-mode stream — sibling streams
    /// in one directory never contend.
    bool exclusive_lock = false;
    /// >= 0 selects shared-stream mode (see class comment): appends go
    /// to this writer's own `segment-w<slot>-NNNNNN.seg` stream,
    /// sibling streams are absorbed read-only, and Compact() takes the
    /// directory's compaction lease. -1 = single-writer namespace.
    int stream_slot = -1;
  };

  struct Stats {
    /// Live unique (scope, pair) entries in memory.
    size_t entries = 0;
    /// Segment files of this writer's own stream currently on disk
    /// (including the active one). Sibling streams are not counted —
    /// each sibling reports its own.
    size_t segments = 0;
    /// CRC-valid records loaded by Open from this writer's own
    /// segments.
    long long replayed_records = 0;
    /// Torn/corrupt tail bytes discarded by Open (own segments only —
    /// an unabsorbed sibling tail is pending, not dropped).
    long long dropped_bytes = 0;
    /// Own segments whose tail failed CRC validation on Open.
    int corrupt_tails = 0;
    /// Segments whose header was unreadable or wrong; their contents
    /// are untrusted and skipped entirely.
    int bad_headers = 0;
    long long appends = 0;
    long long lookups = 0;
    long long hits = 0;
    /// Subset of `hits` served by an entry a sibling stream paid for
    /// (absorbed on Open or by RefreshPeers) — the cross-worker reuse
    /// the shared directory exists for.
    long long peer_hits = 0;
    /// Entries absorbed from sibling/foreign segments (Open +
    /// refreshes), counting only keys this store did not already hold.
    long long peer_records = 0;
    /// RefreshPeers passes that absorbed at least one new record.
    long long peer_refreshes = 0;
    long long compactions = 0;
  };

  ScoreStore() = default;
  ~ScoreStore();

  ScoreStore(const ScoreStore&) = delete;
  ScoreStore& operator=(const ScoreStore&) = delete;

  /// Opens (creating `dir` and a first segment when missing) and loads
  /// every valid record into the in-memory index. Returns false when
  /// the directory or active segment cannot be created/opened — and
  /// then always leaves open_error() describing why, with no lock
  /// held. A later Open on the same object (after the failure, or
  /// after Close) starts clean: stats, counters and the error text
  /// reset before anything is read.
  bool Open(const std::string& dir, const Options& options);
  bool Open(const std::string& dir) { return Open(dir, Options()); }

  bool is_open() const { return active_.is_open(); }

  /// True (and *score set) on a hit. Thread-safe; counts one lookup
  /// and, on success, one hit. When `from_peer` is non-null it is set
  /// to whether the serving entry was paid for by a sibling stream
  /// (always false for entries this writer appended or loaded from its
  /// own segments).
  bool Lookup(uint64_t scope, const models::PairKey& key, double* score,
              bool* from_peer = nullptr);

  /// Records the score (buffered; durable after Sync). A key already
  /// present is skipped — scores are deterministic, so re-puts carry
  /// the same value and would only grow the segment. Thread-safe.
  bool Put(uint64_t scope, const models::PairKey& key, double score);

  /// Writes every buffered record through and fsyncs the active
  /// segment. The durability boundary: records Put before a returning
  /// Sync survive SIGKILL/power loss.
  bool Sync();

  /// Re-scans the directory for sibling/foreign segments and absorbs
  /// each one's newly CRC-valid prefix into the in-memory index —
  /// the read half of shared-stream mode. Cheap when nothing changed
  /// (one directory scan plus a size check per peer file). Never
  /// touches peer bytes on disk; a torn or in-flight tail stays
  /// unabsorbed until its owner completes or truncates it. A peer
  /// segment that vanished (its owner compacted) keeps its absorbed
  /// entries in memory and is re-discovered under the compacted name.
  /// No-op (true) outside shared mode. Thread-safe.
  bool RefreshPeers();

  /// Rewrites this writer's live entries into one fresh own-stream
  /// segment (atomic temp+rename) and unlinks the stream's old ones —
  /// sibling-paid entries stay where their owners keep them.
  /// Lookups/Puts are excluded for the duration. In shared mode the
  /// flock'd compaction lease serializes directory churn; a busy lease
  /// skips the compaction (returns true, stats unchanged). No-op
  /// (true) on an empty store.
  bool Compact();

  void Close();

  /// Mirrors lookups/hits/appends into registry counters (store.*
  /// catalog; null registry detaches). The store's own Stats stay
  /// authoritative.
  void BindMetrics(obs::MetricsRegistry* registry);

  Stats stats() const;
  size_t entry_count() const;
  const std::string& dir() const { return dir_; }

  /// Human-readable reason the last Open returned false (empty when the
  /// last Open succeeded). Lets callers distinguish "directory locked
  /// by another process" from plain I/O failure.
  const std::string& open_error() const { return open_error_; }

  /// Name of the flock'd lease file a shared-mode Compact() takes.
  static const char* CompactionLeaseFileName();

 private:
  struct StoreKey {
    uint64_t scope = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool operator==(const StoreKey& other) const {
      return scope == other.scope && lo == other.lo && hi == other.hi;
    }
  };
  struct StoreKeyHasher {
    size_t operator()(const StoreKey& key) const {
      uint64_t h = key.scope * 0x9E3779B97F4A7C15ULL;
      h ^= key.lo + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      h ^= key.hi + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    double score = 0.0;
    /// Paid by a sibling stream (vs appended/loaded by this writer).
    bool from_peer = false;
  };
  /// Adds one Open-time recovery report to the stats.
  void CountRecovery(const RecordLogRecovery& recovery);
  bool RefreshPeersLocked();
  /// Opens own segment `number` as the active log, loading its records
  /// through `visit`.
  bool OpenActiveLocked(long long number, const RecordVisitor& visit);
  bool SyncLocked();
  /// Records the failure reason (keeping an earlier, more specific one
  /// if already set), drops any held lock/fd, and returns false — the
  /// single exit for every Open failure path.
  bool FailOpen(const std::string& message);
  std::string SegmentPath(long long number) const;
  /// The lock file exclusive_lock guards: ".lock", or ".lock-w<slot>"
  /// in shared-stream mode.
  std::string StreamLockName() const;

  mutable std::mutex mutex_;
  std::string dir_;
  Options options_;
  DirLock dir_lock_;
  std::string open_error_;
  RecordLog active_;
  long long active_segment_ = 0;
  std::unordered_map<StoreKey, Entry, StoreKeyHasher> index_;
  /// Sibling/foreign segment files by name.
  std::unordered_map<std::string, PeerTail> peers_;
  Stats stats_;
  obs::Counter* metric_lookups_ = nullptr;
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_peer_hits_ = nullptr;
  obs::Counter* metric_peer_records_ = nullptr;
  obs::Counter* metric_appends_ = nullptr;
  obs::Counter* metric_syncs_ = nullptr;
  obs::Counter* metric_compactions_ = nullptr;
};

/// 64-bit scope hash of (matcher id, model fingerprint) — the
/// fixed-size model half of a score key. FNV-1a over both parts with a
/// separator, finalized with an avalanche mix.
uint64_t HashScope(const std::string& matcher_id, uint64_t model_fingerprint);

}  // namespace certa::persist

#endif  // CERTA_PERSIST_SCORE_STORE_H_
