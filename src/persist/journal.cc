#include "persist/journal.h"

#include <chrono>
#include <unordered_set>

namespace certa::persist {
namespace {

/// One journal payload, in on-disk field order.
struct Payload {
  uint64_t lo;
  uint64_t hi;
  double score;
};
static_assert(sizeof(Payload) == 24);

constexpr RecordFormat kFormat{std::string_view("CERTAWAL\x01\0\0\0", 12),
                               sizeof(Payload)};

/// Visitor collecting the valid prefix into *replay.
RecordVisitor Collect(JournalReplay* replay) {
  return [replay, seen = std::unordered_set<models::PairKey,
                                            models::PairKeyHasher>()](
             std::string_view bytes) mutable {
    const auto payload = PayloadFrom<Payload>(bytes);
    const JournalEntry entry{{payload.lo, payload.hi}, payload.score};
    if (!seen.insert(entry.key).second) ++replay->duplicates;
    replay->entries.push_back(entry);
    return true;
  };
}

void Summarize(const RecordLogRecovery& recovery, JournalReplay* replay) {
  replay->missing = recovery.missing;
  replay->bad_header = recovery.bad_header;
  if (!recovery.bad_header && recovery.dropped_bytes > 0) {
    replay->dropped_bytes = recovery.dropped_bytes;
    replay->corrupt_tail = true;
  }
}

}  // namespace

JournalReplay ReplayJournal(const std::string& path) {
  JournalReplay replay;
  RecordLogRecovery recovery;
  ReadRecordLog(path, kFormat, Collect(&replay), &recovery);
  Summarize(recovery, &replay);
  return replay;
}

bool JournalWriter::Open(const std::string& path, JournalReplay* replay) {
  JournalReplay local;
  JournalReplay* out = replay != nullptr ? replay : &local;
  *out = JournalReplay();
  RecordLogRecovery recovery;
  const bool opened = log_.Open(path, kFormat, Collect(out), &recovery);
  Summarize(recovery, out);
  return opened;
}

void JournalWriter::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_appends_ = nullptr;
    metric_bytes_ = nullptr;
    metric_syncs_ = nullptr;
    metric_fsync_us_ = nullptr;
    return;
  }
  metric_appends_ = registry->counter("journal.appends");
  metric_bytes_ = registry->counter("journal.bytes");
  metric_syncs_ = registry->counter("journal.syncs");
  metric_fsync_us_ =
      registry->histogram("journal.fsync_us", obs::LatencyBuckets());
}

bool JournalWriter::Append(const models::PairKey& key, double score) {
  if (!log_.is_open()) return false;
  const size_t before = log_.pending_bytes();
  log_.Append(PayloadBytes(Payload{key.lo, key.hi, score}));
  ++appended_;
  if (metric_appends_ != nullptr) metric_appends_->Increment();
  if (metric_bytes_ != nullptr) {
    metric_bytes_->Add(static_cast<long long>(log_.pending_bytes() - before));
  }
  return true;
}

bool JournalWriter::Sync() {
  if (!log_.is_open()) return false;
  const bool timed = metric_fsync_us_ != nullptr;
  const auto sync_start = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point();
  const bool synced = log_.Sync();
  if (metric_syncs_ != nullptr) metric_syncs_->Increment();
  if (timed) {
    metric_fsync_us_->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - sync_start)
            .count()));
  }
  return synced;
}

void JournalWriter::Close() { log_.Close(); }

bool CompactJournal(const std::string& path,
                    const std::vector<JournalEntry>& entries) {
  std::string records;
  for (const JournalEntry& entry : entries) {
    FrameRecord(kFormat,
                PayloadBytes(Payload{entry.key.lo, entry.key.hi, entry.score}),
                &records);
  }
  return RewriteRecordLog(path, kFormat, records);
}

}  // namespace certa::persist
