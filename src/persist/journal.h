#ifndef CERTA_PERSIST_JOURNAL_H_
#define CERTA_PERSIST_JOURNAL_H_

#include <string>
#include <vector>

#include "models/scoring_engine.h"
#include "obs/metrics.h"
#include "persist/record_log.h"

namespace certa::persist {

/// Crash-safe write-ahead journal of scored pairs (pair-hash → score).
///
/// An explanation job's only expensive, externally-paid work is its
/// model calls; everything else is cheap deterministic CPU. The journal
/// records every freshly computed score as it happens, so a job killed
/// at any instruction can be resumed by re-running it with the replayed
/// journal behind the engine's store probe (see
/// ScoringEngine::Options::store_probe) — every already-paid call is
/// served from the journal instead of the model, and the result is
/// bit-identical to an uninterrupted run.
///
/// On-disk format: a persist::RecordLog (record_log.h, which owns the
/// framing, the recovery rule and the failure policy) with the header
/// "CERTAWAL" + uint32 version (1) and 24-byte binary payloads:
///   uint64 key.lo | uint64 key.hi | double score

/// One journaled score.
struct JournalEntry {
  models::PairKey key;
  double score = 0.0;
};

/// Outcome of replaying a journal file.
struct JournalReplay {
  /// The valid record prefix, in append order. Duplicate keys are
  /// possible (a run without the cache may re-log) and harmless:
  /// scores are deterministic, so every duplicate carries the same
  /// value.
  std::vector<JournalEntry> entries;
  /// Keys seen more than once within `entries`.
  size_t duplicates = 0;
  /// Bytes of torn/corrupt tail that were discarded.
  size_t dropped_bytes = 0;
  /// True when a tail was discarded (truncated write or CRC mismatch).
  bool corrupt_tail = false;
  /// True when the file does not exist (fresh job; entries empty).
  bool missing = false;
  /// True when the header is unreadable or wrong — the whole file is
  /// untrusted and treated as empty.
  bool bad_header = false;
};

/// Reads and validates `path`; never throws, never trusts a bad byte.
JournalReplay ReplayJournal(const std::string& path);

/// Appender with an explicit durability boundary: Append buffers,
/// Sync() writes through and fsyncs. Open() recovers first — a torn or
/// corrupt tail is cut off, so new records always extend the valid
/// prefix.
class JournalWriter {
 public:
  JournalWriter() = default;

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens (creating with a fresh header when missing, truncating an
  /// invalid tail otherwise). `replay`, when non-null, receives the
  /// valid prefix found on open — callers replay it into their cache.
  bool Open(const std::string& path, JournalReplay* replay = nullptr);

  bool is_open() const { return log_.is_open(); }

  /// Buffers one record (no I/O guarantee until Sync).
  bool Append(const models::PairKey& key, double score);

  /// Writes buffered records and fsyncs; after a true return every
  /// appended record survives a crash, after a false one the unsynced
  /// records are dropped (they are paid again on a later run).
  bool Sync();

  void Close();

  /// Records appended through this writer (not counting replayed ones).
  long long appended() const { return appended_; }

  /// Mirrors appends/bytes/sync latency into the journal.* metrics of
  /// `registry` (docs/OBSERVABILITY.md); nullptr detaches. Purely
  /// observational — journal bytes and appended() are unchanged.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  RecordLog log_;
  long long appended_ = 0;
  obs::Counter* metric_appends_ = nullptr;
  obs::Counter* metric_bytes_ = nullptr;
  obs::Counter* metric_syncs_ = nullptr;
  obs::Histogram* metric_fsync_us_ = nullptr;
};

/// Atomically rewrites `path` as a fresh journal containing exactly
/// `entries` — used on resume to compact duplicate records away. A
/// crash mid-compaction leaves the old journal intact.
bool CompactJournal(const std::string& path,
                    const std::vector<JournalEntry>& entries);

}  // namespace certa::persist

#endif  // CERTA_PERSIST_JOURNAL_H_
