#include "persist/score_store.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "util/atomic_file.h"
#include "util/logging.h"

namespace certa::persist {
namespace {

/// One segment payload, in on-disk field order.
struct Payload {
  uint64_t scope;
  uint64_t lo;
  uint64_t hi;
  double score;
};
static_assert(sizeof(Payload) == 32);

constexpr RecordFormat kFormat{std::string_view("CERTASST\x01\0\0\0", 12),
                               sizeof(Payload)};

/// Parses a segment file name into (stream slot, segment number).
/// "segment-NNNNNN.seg" → slot -1 (legacy single-writer naming);
/// "segment-w<slot>-NNNNNN.seg" → that stream's slot. False for
/// anything else (temp leftovers, lock files, foreign files).
bool ParseSegmentName(const std::string& name, int* slot, long long* number) {
  constexpr std::string_view kPrefix = "segment-";
  constexpr std::string_view kSuffix = ".seg";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  size_t pos = kPrefix.size();
  const size_t end = name.size() - kSuffix.size();
  int parsed_slot = -1;
  if (name[pos] == 'w') {
    ++pos;
    size_t dash = name.find('-', pos);
    if (dash == std::string::npos || dash >= end || dash == pos) return false;
    parsed_slot = 0;
    for (size_t i = pos; i < dash; ++i) {
      if (name[i] < '0' || name[i] > '9') return false;
      parsed_slot = parsed_slot * 10 + (name[i] - '0');
    }
    pos = dash + 1;
  }
  if (pos >= end) return false;
  long long parsed_number = 0;
  for (size_t i = pos; i < end; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    parsed_number = parsed_number * 10 + (name[i] - '0');
  }
  *slot = parsed_slot;
  *number = parsed_number;
  return true;
}

}  // namespace

ScoreStore::~ScoreStore() { Close(); }

const char* ScoreStore::CompactionLeaseFileName() { return ".compact-lease"; }

std::string ScoreStore::SegmentPath(long long number) const {
  char name[48];
  if (options_.stream_slot >= 0) {
    std::snprintf(name, sizeof(name), "segment-w%d-%06lld.seg",
                  options_.stream_slot, number);
  } else {
    std::snprintf(name, sizeof(name), "segment-%06lld.seg", number);
  }
  return dir_ + "/" + name;
}

std::string ScoreStore::StreamLockName() const {
  if (options_.stream_slot < 0) return DirLock::LockFileName();
  return ".lock-w" + std::to_string(options_.stream_slot);
}

void ScoreStore::CountRecovery(const RecordLogRecovery& recovery) {
  if (recovery.bad_header) {
    ++stats_.bad_headers;
  } else if (recovery.dropped_bytes > 0) {
    stats_.dropped_bytes += static_cast<long long>(recovery.dropped_bytes);
    ++stats_.corrupt_tails;
  }
}

bool ScoreStore::RefreshPeersLocked() {
  DIR* handle = ::opendir(dir_.c_str());
  if (handle == nullptr) return false;
  const RecordVisitor absorb = [this](std::string_view bytes) {
    const auto record = PayloadFrom<Payload>(bytes);
    // try_emplace: an entry this writer paid for (or absorbed earlier)
    // wins — deterministic scores agree, only provenance differs.
    if (index_
            .try_emplace(StoreKey{record.scope, record.lo, record.hi},
                         Entry{record.score, /*from_peer=*/true})
            .second) {
      ++stats_.peer_records;
      if (metric_peer_records_ != nullptr) metric_peer_records_->Increment();
    }
    return true;
  };
  std::unordered_set<std::string> present;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    int slot = -1;
    long long number = 0;
    if (!ParseSegmentName(name, &slot, &number)) continue;
    if (slot == options_.stream_slot) continue;  // own stream
    present.insert(name);
    peers_.try_emplace(name, dir_ + "/" + name, kFormat)
        .first->second.Absorb(absorb);
  }
  ::closedir(handle);
  // A tracked peer file that vanished was compacted (or removed) by
  // its owner. Its absorbed entries stay in memory; the replacement
  // segment shows up as a new name and re-absorbs from offset 0, with
  // try_emplace deduplicating the overlap.
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (present.count(it->first) == 0) {
      it = peers_.erase(it);
    } else {
      ++it;
    }
  }
  return true;
}

bool ScoreStore::RefreshPeers() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_.is_open()) return false;
  if (options_.stream_slot < 0) return true;  // single-writer namespace
  const long long before = stats_.peer_records;
  if (!RefreshPeersLocked()) return false;
  if (stats_.peer_records > before) ++stats_.peer_refreshes;
  return true;
}

bool ScoreStore::OpenActiveLocked(long long number,
                                  const RecordVisitor& visit) {
  RecordLogRecovery recovery;
  if (!active_.Open(SegmentPath(number), kFormat, visit, &recovery)) {
    return false;
  }
  CountRecovery(recovery);
  active_segment_ = number;
  return true;
}

bool ScoreStore::FailOpen(const std::string& message) {
  if (open_error_.empty()) open_error_ = message;
  active_.Close();
  dir_lock_.Release();
  return false;
}

bool ScoreStore::Open(const std::string& dir, const Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  CERTA_CHECK(!active_.is_open());
  dir_ = dir;
  options_ = options;
  index_.clear();
  peers_.clear();
  stats_ = Stats();
  open_error_.clear();
  if (!util::EnsureDirectory(dir_)) {
    return FailOpen("cannot create " + dir_ + ": " + std::strerror(errno));
  }
  if (options_.exclusive_lock &&
      !dir_lock_.AcquireFile(dir_, StreamLockName(), &open_error_)) {
    return FailOpen("cannot lock " + dir_);
  }

  const bool shared = options_.stream_slot >= 0;
  // Shared mode: a temp is sweepable only when it belongs to this
  // writer's own stream — a sibling's `.seg.tmp` may be an in-flight
  // compaction, and unlinking it mid-rename would lose the rewrite.
  const std::string own_temp_prefix =
      "segment-w" + std::to_string(options_.stream_slot) + "-";
  std::vector<long long> segments;
  std::vector<std::string> leftovers;
  DIR* handle = ::opendir(dir_.c_str());
  if (handle == nullptr) {
    return FailOpen("cannot scan " + dir_ + ": " + std::strerror(errno));
  }
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    int slot = -1;
    long long number = 0;
    if (ParseSegmentName(name, &slot, &number)) {
      // Another slot's segment is a sibling stream — or, in
      // single-writer mode, a stream-named file left by an ex-fleet
      // directory. Either way RefreshPeersLocked absorbs it read-only
      // below; it is never written or swept.
      if (slot == options_.stream_slot) segments.push_back(number);
    } else if (name.find(".seg.tmp") != std::string::npos &&
               (!shared || name.compare(0, own_temp_prefix.size(),
                                        own_temp_prefix) == 0)) {
      // A compaction killed between temp-write and rename; the temp
      // file was never trusted and is swept here.
      leftovers.push_back(dir_ + "/" + name);
    }
  }
  ::closedir(handle);
  for (const std::string& path : leftovers) ::unlink(path.c_str());
  std::sort(segments.begin(), segments.end());

  const RecordVisitor load_own = [this](std::string_view bytes) {
    const auto record = PayloadFrom<Payload>(bytes);
    // Own bytes: overwrite, so a key a peer was absorbed for first
    // regains its own provenance (this writer also paid for it).
    index_[StoreKey{record.scope, record.lo, record.hi}] =
        Entry{record.score, /*from_peer=*/false};
    ++stats_.replayed_records;
    return true;
  };
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    RecordLogRecovery recovery;
    ReadRecordLog(SegmentPath(segments[i]), kFormat, load_own, &recovery);
    CountRecovery(recovery);
  }
  // The highest-numbered segment stays active (a fresh store starts at
  // 1); its torn tail is cut off and a bad header rewritten clean.
  const long long active = segments.empty() ? 1 : segments.back();
  if (!OpenActiveLocked(active, load_own)) {
    return FailOpen("cannot open active segment " + SegmentPath(active) +
                    ": " + std::strerror(errno));
  }
  stats_.segments = std::max<size_t>(segments.size(), 1);
  // Own segments first, peers second: a key both paid for keeps its
  // own provenance (own loads overwrite, peer absorption only inserts)
  // and peer_records counts only genuinely foreign entries.
  RefreshPeersLocked();
  return true;
}

bool ScoreStore::Lookup(uint64_t scope, const models::PairKey& key,
                        double* score, bool* from_peer) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (from_peer != nullptr) *from_peer = false;
  if (!active_.is_open()) return false;
  ++stats_.lookups;
  if (metric_lookups_ != nullptr) metric_lookups_->Increment();
  auto it = index_.find(StoreKey{scope, key.lo, key.hi});
  if (it == index_.end()) return false;
  ++stats_.hits;
  if (metric_hits_ != nullptr) metric_hits_->Increment();
  if (it->second.from_peer) {
    ++stats_.peer_hits;
    if (metric_peer_hits_ != nullptr) metric_peer_hits_->Increment();
  }
  if (score != nullptr) *score = it->second.score;
  if (from_peer != nullptr) *from_peer = it->second.from_peer;
  return true;
}

bool ScoreStore::Put(uint64_t scope, const models::PairKey& key,
                     double score) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!active_.is_open()) return false;
  auto [it, inserted] = index_.try_emplace(StoreKey{scope, key.lo, key.hi},
                                           Entry{score, /*from_peer=*/false});
  (void)it;
  if (!inserted) return true;  // deterministic scores: re-put is a no-op
  active_.Append(PayloadBytes(Payload{scope, key.lo, key.hi, score}));
  ++stats_.appends;
  if (metric_appends_ != nullptr) metric_appends_->Increment();
  if (active_.size() + active_.pending_bytes() > options_.max_segment_bytes) {
    // Roll to a fresh segment; the sync first keeps every buffered
    // record on this side of the boundary.
    if (!SyncLocked() || !OpenActiveLocked(active_segment_ + 1, nullptr)) {
      return false;
    }
    ++stats_.segments;
  }
  return true;
}

bool ScoreStore::SyncLocked() {
  if (!active_.is_open()) return false;
  if (metric_syncs_ != nullptr) metric_syncs_->Increment();
  return active_.Sync();
}

bool ScoreStore::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  return SyncLocked();
}

bool ScoreStore::Compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!SyncLocked()) return false;

  // Shared mode: the directory-wide lease serializes compactions so at
  // most one worker churns the directory at a time. Busy means a
  // sibling is mid-rewrite — skipping is safe (this stream's segments
  // are untouched by the sibling, and a later Compact retries), so a
  // held lease is "done for now", not failure.
  DirLock lease;
  if (options_.stream_slot >= 0) {
    std::string lease_error;
    if (!lease.AcquireFile(dir_, CompactionLeaseFileName(), &lease_error)) {
      return true;
    }
  }

  // Only entries this writer paid for (or replayed from its own
  // stream) are rewritten: every byte on disk keeps exactly one
  // writer, and a sibling-paid entry stays durable in the sibling's
  // stream where its owner compacts it.
  std::string records;
  for (const auto& [key, entry] : index_) {
    if (entry.from_peer) continue;
    FrameRecord(kFormat,
                PayloadBytes(Payload{key.scope, key.lo, key.hi, entry.score}),
                &records);
  }
  const long long next = active_segment_ + 1;
  // A kill before the atomic rename leaves only a swept-on-open temp;
  // after it, the new segment is complete and old ones are at worst
  // duplicated.
  if (!RewriteRecordLog(SegmentPath(next), kFormat, records)) return false;
  active_.Close();
  for (long long number = active_segment_; number >= 1; --number) {
    const std::string path = SegmentPath(number);
    if (util::PathExists(path)) ::unlink(path.c_str());
  }
  util::SyncDirectory(dir_);
  if (!OpenActiveLocked(next, nullptr)) return false;
  stats_.segments = 1;
  ++stats_.compactions;
  if (metric_compactions_ != nullptr) metric_compactions_->Increment();
  return true;
}

void ScoreStore::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_.is_open()) {
    SyncLocked();
    active_.Close();
  }
  dir_lock_.Release();
}

void ScoreStore::BindMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry == nullptr) {
    metric_lookups_ = metric_hits_ = metric_peer_hits_ =
        metric_peer_records_ = metric_appends_ = metric_syncs_ =
            metric_compactions_ = nullptr;
    return;
  }
  metric_lookups_ = registry->counter("store.lookups");
  metric_hits_ = registry->counter("store.hits");
  metric_peer_hits_ = registry->counter("store.peer_hits");
  metric_peer_records_ = registry->counter("store.peer_records");
  metric_appends_ = registry->counter("store.appends");
  metric_syncs_ = registry->counter("store.syncs");
  metric_compactions_ = registry->counter("store.compactions");
}

ScoreStore::Stats ScoreStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = index_.size();
  return out;
}

size_t ScoreStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

uint64_t HashScope(const std::string& matcher_id,
                   uint64_t model_fingerprint) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;  // FNV-1a prime
  };
  for (char c : matcher_id) mix(static_cast<unsigned char>(c));
  mix(0x1F);  // unit separator: "ab"+"c" != "a"+"bc"
  for (int i = 0; i < 8; ++i) {
    mix(static_cast<unsigned char>(model_fingerprint >> (8 * i)));
  }
  // splitmix64 finalizer: avalanche so nearby fingerprints land far
  // apart.
  hash ^= hash >> 30;
  hash *= 0xBF58476D1CE4E5B9ULL;
  hash ^= hash >> 27;
  hash *= 0x94D049BB133111EBULL;
  hash ^= hash >> 31;
  return hash;
}

}  // namespace certa::persist
