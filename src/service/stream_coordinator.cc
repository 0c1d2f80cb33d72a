#include "service/stream_coordinator.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "data/benchmarks.h"
#include "data/csv.h"
#include "util/atomic_file.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace certa::service {
namespace {

constexpr persist::RecordFormat kWalFormat{"CERTASTREAM v1\n", 0};
constexpr char kCheckpointMagic[] = "CERTASTRCKPT v1 ";
/// Rewrite the state checkpoint after this many applied or absorbed
/// ops (Close always checkpoints).
constexpr int kCheckpointEvery = 64;
/// Minimum interval between MaybeAbsorbPeers directory scans.
constexpr int64_t kAbsorbIntervalMs = 200;

void WriteRecordFields(JsonWriter* writer,
                       const std::string& dataset,
                       const std::string& data_dir, int side, int id) {
  writer->Key("dataset");
  writer->String(dataset);
  writer->Key("data_dir");
  writer->String(data_dir);
  writer->Key("side");
  writer->Int(side);
  writer->Key("id");
  writer->Int(id);
}

bool ReadStringField(const JsonValue& object, const char* key,
                     std::string* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_string()) return false;
  *out = value->string_value();
  return true;
}

bool ReadIntField(const JsonValue& object, const char* key,
                  long long* out) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_integer()) return false;
  *out = value->int_value();
  return true;
}

}  // namespace

StreamCoordinator::~StreamCoordinator() { Close(); }

std::string StreamCoordinator::WalFileName(int slot) {
  return "ops-w" + std::to_string(slot) + ".wal";
}

std::string StreamCoordinator::CheckpointFileName(int slot) {
  return "state-w" + std::to_string(slot) + ".ckpt";
}

std::string StreamCoordinator::DatasetKey(const std::string& dataset,
                                          const std::string& data_dir) {
  return dataset + '\x1f' + data_dir;
}

std::string StreamCoordinator::RecordKey(const std::string& dataset,
                                         const std::string& data_dir,
                                         int side, int id) {
  return dataset + '\x1f' + data_dir + '\x1f' + std::to_string(side) +
         '\x1f' + std::to_string(id);
}

int64_t StreamCoordinator::NowMs() const {
  return util::RealClock()->NowMicros() / 1000;
}

bool StreamCoordinator::Open(const Options& options, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (wal_.is_open()) {
    if (error != nullptr) *error = "stream coordinator already open";
    return false;
  }
  options_ = options;
  if (options_.slot < 0) options_.slot = 0;
  if (!util::EnsureDirectory(options_.dir)) {
    if (error != nullptr) {
      *error = "cannot create stream directory " + options_.dir;
    }
    return false;
  }
  if (options_.metrics != nullptr) {
    metric_ops_ = options_.metrics->counter("stream.ops_applied");
    metric_absorbed_ = options_.metrics->counter("stream.ops_absorbed");
    metric_invalidations_ =
        options_.metrics->counter("stream.invalidations");
    metric_checkpoints_ = options_.metrics->counter("stream.checkpoints");
  }

  // 1. Derived state from the last atomic checkpoint, when it is valid.
  //    A missing or corrupt checkpoint just means replaying every
  //    stream from its header — slower, never wrong.
  size_t own_offset = 0;
  LoadCheckpointLocked(&own_offset);

  // 2. The own stream is the only file this worker may write: the log
  //    cuts a torn (never fsync'd) tail so the append point is clean.
  const std::string own_path =
      options_.dir + "/" + WalFileName(options_.slot);
  persist::RecordLogRecovery recovery;
  if (!wal_.Open(own_path, kWalFormat,
                 [](std::string_view payload) {
                   StreamOp op;
                   return ParseOp(payload, &op);
                 },
                 &recovery)) {
    if (error != nullptr) {
      *error = "cannot open stream wal " + own_path + ": " +
               std::strerror(errno);
    }
    return false;
  }
  stats_.torn_bytes_dropped += static_cast<long long>(recovery.dropped_bytes);
  if (recovery.bad_header || own_offset > wal_.size()) {
    // The checkpoint may describe ops that did not survive in the
    // stream — it is from a future that never became durable. Start
    // derived state over from the streams themselves.
    overlays_.clear();
    mods_.clear();
    deps_.clear();
    watchers_.clear();
    stale_.clear();
    peers_.clear();
    clock_ = 0;
    own_offset = 0;
  }

  // 3. Replay the own tail, then absorb every sibling tail, so the
  //    in-memory overlays reflect everything durable in the directory.
  std::vector<Invalidation> ignored;
  persist::PeerTail own(own_path, kWalFormat, own_offset);
  stats_.replayed_ops += static_cast<long long>(
      own.Absorb([this, &ignored](std::string_view payload) {
        return ApplyPayloadLocked(payload, &ignored);
      }));
  AbsorbPeersLocked();

  // 4. Staleness is derived, never persisted: re-judge every
  //    registered job against the recovered record versions.
  for (auto it = deps_.begin(); it != deps_.end(); ++it) {
    RecomputeJobStalenessLocked(it->first);
  }
  return true;
}

void StreamCoordinator::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!wal_.is_open()) return;
  WriteCheckpointLocked();
  wal_.Close();
}

StreamCoordinator::Overlay* StreamCoordinator::GetOverlayLocked(
    const std::string& dataset, const std::string& data_dir,
    std::string* error) {
  const std::string key = DatasetKey(dataset, data_dir);
  auto it = overlays_.find(key);
  if (it != overlays_.end()) return &it->second;
  data::Dataset base;
  if (!data_dir.empty()) {
    if (!data::LoadDatasetDirectory(data_dir, dataset, &base)) {
      if (error != nullptr) {
        *error = "cannot load dataset directory " + data_dir;
      }
      return nullptr;
    }
  } else {
    const std::vector<std::string>& codes = data::BenchmarkCodes();
    if (std::find(codes.begin(), codes.end(), dataset) == codes.end()) {
      if (error != nullptr) *error = "unknown benchmark code " + dataset;
      return nullptr;
    }
    base = data::MakeBenchmark(dataset);
  }
  Overlay& overlay = overlays_[key];
  overlay.dataset = dataset;
  overlay.data_dir = data_dir;
  overlay.sides[0] = data::MutableTable(base.left);
  overlay.sides[1] = data::MutableTable(base.right);
  overlay.base_rows[0] = base.left.size();
  overlay.base_rows[1] = base.right.size();
  overlay.base = std::move(base);
  return &overlay;
}

std::string StreamCoordinator::SerializeOp(const StreamOp& op) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op");
  switch (op.kind) {
    case StreamOp::Kind::kUpsert:
      writer.String("upsert");
      break;
    case StreamOp::Kind::kRemove:
      writer.String("remove");
      break;
    case StreamOp::Kind::kDeps:
      writer.String("deps");
      break;
  }
  writer.Key("seq");
  writer.Int(static_cast<long long>(op.seq));
  writer.Key("slot");
  writer.Int(op.slot);
  if (op.kind == StreamOp::Kind::kDeps) {
    writer.Key("job_id");
    writer.String(op.job_id);
    writer.Key("snapshot");
    writer.Int(static_cast<long long>(op.snapshot));
    writer.Key("records");
    writer.BeginArray();
    for (const StreamOp::DepRecord& dep : op.dep_records) {
      writer.BeginObject();
      WriteRecordFields(&writer, dep.dataset, dep.data_dir, dep.side,
                        dep.id);
      writer.EndObject();
    }
    writer.EndArray();
  } else {
    WriteRecordFields(&writer, op.dataset, op.data_dir, op.side,
                      op.record.id);
    if (op.kind == StreamOp::Kind::kUpsert) {
      writer.Key("values");
      writer.BeginArray();
      for (const std::string& value : op.record.values) {
        writer.String(value);
      }
      writer.EndArray();
    }
  }
  writer.EndObject();
  return writer.str();
}

bool StreamCoordinator::ParseOp(std::string_view json, StreamOp* op) {
  JsonValue value;
  std::string error;
  if (!JsonValue::Parse(json, &value, &error) || !value.is_object()) {
    return false;
  }
  std::string kind;
  if (!ReadStringField(value, "op", &kind)) return false;
  long long seq = 0;
  long long slot = 0;
  if (!ReadIntField(value, "seq", &seq) ||
      !ReadIntField(value, "slot", &slot) || seq < 0 || slot < 0) {
    return false;
  }
  op->seq = static_cast<uint64_t>(seq);
  op->slot = static_cast<int>(slot);
  if (kind == "deps") {
    op->kind = StreamOp::Kind::kDeps;
    long long snapshot = 0;
    if (!ReadStringField(value, "job_id", &op->job_id) ||
        !ReadIntField(value, "snapshot", &snapshot)) {
      return false;
    }
    op->snapshot = static_cast<uint64_t>(snapshot);
    const JsonValue* records = value.Find("records");
    if (records == nullptr || !records->is_array()) return false;
    op->dep_records.clear();
    for (const JsonValue& entry : records->array_items()) {
      if (!entry.is_object()) return false;
      StreamOp::DepRecord dep;
      long long side = 0;
      long long id = 0;
      if (!ReadStringField(entry, "dataset", &dep.dataset) ||
          !ReadStringField(entry, "data_dir", &dep.data_dir) ||
          !ReadIntField(entry, "side", &side) ||
          !ReadIntField(entry, "id", &id)) {
        return false;
      }
      dep.side = static_cast<int>(side);
      dep.id = static_cast<int>(id);
      op->dep_records.push_back(std::move(dep));
    }
    return true;
  }
  if (kind == "upsert") {
    op->kind = StreamOp::Kind::kUpsert;
  } else if (kind == "remove") {
    op->kind = StreamOp::Kind::kRemove;
  } else {
    return false;
  }
  long long side = 0;
  long long id = 0;
  if (!ReadStringField(value, "dataset", &op->dataset) ||
      !ReadStringField(value, "data_dir", &op->data_dir) ||
      !ReadIntField(value, "side", &side) ||
      !ReadIntField(value, "id", &id) || side < 0 || side > 1) {
    return false;
  }
  op->side = static_cast<int>(side);
  op->record.id = static_cast<int>(id);
  op->record.values.clear();
  if (op->kind == StreamOp::Kind::kUpsert) {
    const JsonValue* values = value.Find("values");
    if (values == nullptr || !values->is_array()) return false;
    for (const JsonValue& entry : values->array_items()) {
      if (!entry.is_string()) return false;
      op->record.values.push_back(entry.string_value());
    }
  }
  return true;
}

bool StreamCoordinator::CommitLocked(const StreamOp& op, Ack* ack,
                                     std::vector<Invalidation>* invalidated,
                                     std::string* error) {
  wal_.Append(SerializeOp(op));
  if (!wal_.Sync()) {
    if (error != nullptr) {
      *error = std::string("stream wal append failed: ") +
               std::strerror(errno);
    }
    return false;
  }
  ApplyOpLocked(op, ack, invalidated);
  if (op.kind != StreamOp::Kind::kDeps) {
    ++stats_.ops_applied;
    if (metric_ops_ != nullptr) metric_ops_->Increment();
  }
  MaybeCheckpointLocked();
  return true;
}

bool StreamCoordinator::ApplyPayloadLocked(
    std::string_view payload, std::vector<Invalidation>* invalidated) {
  StreamOp op;
  if (!ParseOp(payload, &op)) return false;
  if (op.seq > clock_) clock_ = op.seq;  // Lamport receive
  ApplyOpLocked(op, nullptr, invalidated);
  return true;
}

void StreamCoordinator::MarkWatchersStaleLocked(
    const StreamOp& op, std::vector<Invalidation>* invalidated) {
  const std::string key =
      RecordKey(op.dataset, op.data_dir, op.side, op.record.id);
  auto it = watchers_.find(key);
  if (it == watchers_.end()) return;
  for (const std::string& job_id : it->second) {
    // Application-order rule: any state-changing op that lands on a
    // watched record after the job registered makes the job stale.
    // Deliberately conservative — a replayed op the materialization
    // already included can re-flag the job after a crash, costing one
    // redundant recompute over identical data (same bytes out), never
    // a silently-stale answer. Open()'s final version-compare pass
    // clears those false positives when the record versions prove the
    // snapshot already covered them.
    if (stale_.insert(job_id).second) {
      ++stats_.invalidations;
      if (metric_invalidations_ != nullptr) {
        metric_invalidations_->Increment();
      }
      if (invalidated != nullptr) {
        invalidated->push_back(Invalidation{job_id, op.dataset, op.side,
                                            op.record.id});
      }
    }
  }
}

void StreamCoordinator::RecomputeJobStalenessLocked(
    const std::string& job_id) {
  auto it = deps_.find(job_id);
  if (it == deps_.end()) {
    stale_.erase(job_id);
    return;
  }
  bool stale = false;
  for (const StreamOp::DepRecord& dep : it->second.records) {
    auto mod = mods_.find(
        RecordKey(dep.dataset, dep.data_dir, dep.side, dep.id));
    if (mod != mods_.end() && mod->second.Newer(it->second.version)) {
      stale = true;
      break;
    }
  }
  if (stale) {
    stale_.insert(job_id);
  } else {
    stale_.erase(job_id);
  }
}

bool StreamCoordinator::ApplyOpLocked(
    const StreamOp& op, Ack* ack, std::vector<Invalidation>* invalidated) {
  ++ops_since_checkpoint_;
  if (op.kind == StreamOp::Kind::kDeps) {
    Version version{op.seq, op.slot};
    auto it = deps_.find(op.job_id);
    if (it != deps_.end() && !version.Newer(it->second.version)) {
      return true;  // older registration — last writer wins
    }
    if (it != deps_.end()) {
      for (const StreamOp::DepRecord& dep : it->second.records) {
        auto watch = watchers_.find(
            RecordKey(dep.dataset, dep.data_dir, dep.side, dep.id));
        if (watch != watchers_.end()) {
          watch->second.erase(op.job_id);
          if (watch->second.empty()) watchers_.erase(watch);
        }
      }
    }
    JobDeps& deps = deps_[op.job_id];
    deps.version = version;
    deps.snapshot = op.snapshot;
    deps.records = op.dep_records;
    for (const StreamOp::DepRecord& dep : deps.records) {
      watchers_[RecordKey(dep.dataset, dep.data_dir, dep.side, dep.id)]
          .insert(op.job_id);
    }
    ++stats_.deps_registered;
    RecomputeJobStalenessLocked(op.job_id);
    return true;
  }

  const std::string record_key =
      RecordKey(op.dataset, op.data_dir, op.side, op.record.id);
  Version version{op.seq, op.slot};
  auto mod = mods_.find(record_key);
  if (mod != mods_.end() && !version.Newer(mod->second)) {
    // A newer op already decided this record — convergence over
    // absorption order is exactly this skip.
    if (ack != nullptr) {
      ack->seq = op.seq;
      ack->slot = op.slot;
      ack->row = -1;
    }
    return true;
  }
  std::string error;
  Overlay* overlay = GetOverlayLocked(op.dataset, op.data_dir, &error);
  if (overlay == nullptr) return false;
  mods_[record_key] = version;
  int row = -1;
  bool created = false;
  bool removed = false;
  if (op.kind == StreamOp::Kind::kUpsert) {
    row = overlay->sides[op.side].Upsert(op.record, &created, &error);
    if (row < 0) {
      // A malformed-but-durable op (schema changed underneath the
      // stream): keep the version so convergence holds, touch nothing.
      return false;
    }
    ++stats_.upserts;
  } else {
    removed = overlay->sides[op.side].Remove(op.record.id);
    ++stats_.removes;
  }
  if (ack != nullptr) {
    ack->seq = op.seq;
    ack->slot = op.slot;
    ack->row = row;
    ack->created = created;
    ack->removed = removed;
  }
  MarkWatchersStaleLocked(op, invalidated);
  return true;
}

StreamCoordinator::OpStatus StreamCoordinator::Upsert(
    const std::string& dataset, const std::string& data_dir, int side,
    const data::Record& record, Ack* ack,
    std::vector<Invalidation>* invalidated, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!wal_.is_open()) {
    if (error != nullptr) *error = "stream coordinator not open";
    return OpStatus::kIo;
  }
  if (side < 0 || side > 1) {
    if (error != nullptr) *error = "side must be 0 (left) or 1 (right)";
    return OpStatus::kBadRecord;
  }
  Overlay* overlay = GetOverlayLocked(dataset, data_dir, error);
  if (overlay == nullptr) return OpStatus::kUnknownDataset;
  if (record.id < 0) {
    if (error != nullptr) *error = "record id must be >= 0";
    return OpStatus::kBadRecord;
  }
  const data::Schema& schema = overlay->sides[side].schema();
  if (static_cast<int>(record.values.size()) != schema.size()) {
    if (error != nullptr) {
      *error = "record has " + std::to_string(record.values.size()) +
               " values; side " + std::to_string(side) + " schema wants " +
               std::to_string(schema.size());
    }
    return OpStatus::kBadRecord;
  }
  StreamOp op;
  op.kind = StreamOp::Kind::kUpsert;
  op.seq = ++clock_;
  op.slot = options_.slot;
  op.dataset = dataset;
  op.data_dir = data_dir;
  op.side = side;
  op.record = record;
  if (!CommitLocked(op, ack, invalidated, error)) return OpStatus::kIo;
  return OpStatus::kOk;
}

StreamCoordinator::OpStatus StreamCoordinator::Remove(
    const std::string& dataset, const std::string& data_dir, int side,
    int record_id, Ack* ack, std::vector<Invalidation>* invalidated,
    std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!wal_.is_open()) {
    if (error != nullptr) *error = "stream coordinator not open";
    return OpStatus::kIo;
  }
  if (side < 0 || side > 1) {
    if (error != nullptr) *error = "side must be 0 (left) or 1 (right)";
    return OpStatus::kBadRecord;
  }
  if (record_id < 0) {
    if (error != nullptr) *error = "record id must be >= 0";
    return OpStatus::kBadRecord;
  }
  if (GetOverlayLocked(dataset, data_dir, error) == nullptr) {
    return OpStatus::kUnknownDataset;
  }
  StreamOp op;
  op.kind = StreamOp::Kind::kRemove;
  op.seq = ++clock_;
  op.slot = options_.slot;
  op.dataset = dataset;
  op.data_dir = data_dir;
  op.side = side;
  op.record.id = record_id;
  if (!CommitLocked(op, ack, invalidated, error)) return OpStatus::kIo;
  return OpStatus::kOk;
}

StreamCoordinator::OpStatus StreamCoordinator::Match(
    const std::string& dataset, const std::string& data_dir, int side,
    const std::vector<std::string>& probe_values, int k,
    std::vector<MatchCandidate>* candidates, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (side < 0 || side > 1) {
    if (error != nullptr) *error = "side must be 0 (left) or 1 (right)";
    return OpStatus::kBadRecord;
  }
  AbsorbPeersLocked();
  Overlay* overlay = GetOverlayLocked(dataset, data_dir, error);
  if (overlay == nullptr) return OpStatus::kUnknownDataset;
  const data::MutableTable& table = overlay->sides[side];
  if (static_cast<int>(probe_values.size()) > table.schema().size()) {
    if (error != nullptr) {
      *error = "probe has " + std::to_string(probe_values.size()) +
               " values; side " + std::to_string(side) + " schema wants at "
               "most " + std::to_string(table.schema().size());
    }
    return OpStatus::kBadRecord;
  }
  data::Record probe;
  probe.id = -1;
  probe.values = probe_values;
  // Short probes are fine: missing attributes contribute no tokens.
  probe.values.resize(static_cast<size_t>(table.schema().size()), "NaN");
  std::vector<data::MutableTable::MatchCandidate> ranked =
      table.TopK(probe, k < 0 ? 0 : k);
  // Re-rank on (overlap desc, id asc): record ids are stable across
  // the fleet while row numbers are per-worker, so this is the
  // convergent order once every sibling op is absorbed.
  std::sort(ranked.begin(), ranked.end(),
            [](const data::MutableTable::MatchCandidate& a,
               const data::MutableTable::MatchCandidate& b) {
              if (a.overlap != b.overlap) return a.overlap > b.overlap;
              return a.id < b.id;
            });
  candidates->clear();
  candidates->reserve(ranked.size());
  for (const data::MutableTable::MatchCandidate& entry : ranked) {
    MatchCandidate out;
    out.id = entry.id;
    out.overlap = entry.overlap;
    out.values = table.record(entry.row).values;
    candidates->push_back(std::move(out));
  }
  return OpStatus::kOk;
}

bool StreamCoordinator::ProvideDataset(const api::ExplainRequest& request,
                                       data::Dataset* dataset,
                                       std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  AbsorbPeersLocked();
  Overlay* overlay =
      GetOverlayLocked(request.dataset, request.data_dir, error);
  if (overlay == nullptr) return false;
  *dataset = overlay->base;
  dataset->left = overlay->sides[0].Materialize();
  dataset->right = overlay->sides[1].Materialize();
  if (!wal_.is_open() || request.id.empty() || request.pair_index < 0 ||
      request.pair_index >= static_cast<int>(dataset->test.size())) {
    // Nothing to register (anonymous request or the runner will reject
    // the pair index anyway) — still serve the overlay view.
    return true;
  }
  const data::LabeledPair& pair =
      dataset->test[static_cast<size_t>(request.pair_index)];
  StreamOp op;
  op.kind = StreamOp::Kind::kDeps;
  op.seq = ++clock_;
  op.slot = options_.slot;
  op.job_id = request.id;
  op.snapshot = op.seq - 1;
  StreamOp::DepRecord left;
  left.dataset = request.dataset;
  left.data_dir = request.data_dir;
  left.side = 0;
  left.id = dataset->left.record(pair.left_index).id;
  StreamOp::DepRecord right;
  right.dataset = request.dataset;
  right.data_dir = request.data_dir;
  right.side = 1;
  right.id = dataset->right.record(pair.right_index).id;
  op.dep_records.push_back(std::move(left));
  op.dep_records.push_back(std::move(right));
  return CommitLocked(op, nullptr, nullptr, error);
}

bool StreamCoordinator::IsStale(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stale_.count(job_id) != 0;
}

std::vector<std::string> StreamCoordinator::StaleJobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<std::string>(stale_.begin(), stale_.end());
}

std::vector<StreamCoordinator::Invalidation>
StreamCoordinator::MaybeAbsorbPeers() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t now = NowMs();
  if (now - last_absorb_ms_ < kAbsorbIntervalMs) return {};
  return AbsorbPeersLocked();
}

std::vector<StreamCoordinator::Invalidation>
StreamCoordinator::AbsorbPeers() {
  std::lock_guard<std::mutex> lock(mutex_);
  return AbsorbPeersLocked();
}

std::vector<StreamCoordinator::Invalidation>
StreamCoordinator::AbsorbPeersLocked() {
  last_absorb_ms_ = NowMs();
  std::vector<Invalidation> invalidated;
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) return invalidated;
  const std::string own = WalFileName(options_.slot);
  std::vector<std::string> peers;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == own) continue;
    if (name.rfind("ops-w", 0) != 0) continue;
    if (name.size() < 5 || name.compare(name.size() - 4, 4, ".wal") != 0) {
      continue;
    }
    peers.push_back(name);
  }
  ::closedir(dir);
  std::sort(peers.begin(), peers.end());
  for (const std::string& name : peers) {
    persist::PeerTail& tail =
        peers_.try_emplace(name, options_.dir + "/" + name, kWalFormat)
            .first->second;
    const size_t absorbed =
        tail.Absorb([this, &invalidated](std::string_view payload) {
          return ApplyPayloadLocked(payload, &invalidated);
        });
    stats_.ops_absorbed += static_cast<long long>(absorbed);
    if (metric_absorbed_ != nullptr) {
      metric_absorbed_->Add(static_cast<long long>(absorbed));
    }
  }
  MaybeCheckpointLocked();
  return invalidated;
}

void StreamCoordinator::MaybeCheckpointLocked() {
  if (ops_since_checkpoint_ < kCheckpointEvery) return;
  WriteCheckpointLocked();
}

bool StreamCoordinator::WriteCheckpointLocked() {
  if (!wal_.is_open()) return false;
  // Sorted by file name, the own stream among its siblings.
  std::map<std::string, size_t> offsets;
  offsets[WalFileName(options_.slot)] = wal_.size();
  for (const auto& [name, tail] : peers_) offsets[name] = tail.absorbed();
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema_version");
  writer.Int(api::kSchemaVersion);
  writer.Key("slot");
  writer.Int(options_.slot);
  writer.Key("clock");
  writer.Int(static_cast<long long>(clock_));
  writer.Key("offsets");
  writer.BeginObject();
  for (const auto& [name, offset] : offsets) {
    writer.Key(name);
    writer.Int(static_cast<long long>(offset));
  }
  writer.EndObject();
  writer.Key("datasets");
  writer.BeginArray();
  for (const auto& [key, overlay] : overlays_) {
    writer.BeginObject();
    writer.Key("dataset");
    writer.String(overlay.dataset);
    writer.Key("data_dir");
    writer.String(overlay.data_dir);
    writer.Key("sides");
    writer.BeginArray();
    for (int side = 0; side < 2; ++side) {
      const data::MutableTable& table = overlay.sides[side];
      writer.BeginObject();
      // Diffs only, split by origin: mutated base rows rebuild in
      // place, appended rows rebuild in row order, so the recovered
      // table numbers every row exactly as the live one did.
      writer.Key("mutated");
      writer.BeginArray();
      for (int row = 0; row < overlay.base_rows[side]; ++row) {
        const data::Record& base_record =
            (side == 0 ? overlay.base.left : overlay.base.right)
                .record(row);
        const data::Record& record = table.record(row);
        if (record == base_record && table.alive(row)) continue;
        writer.BeginObject();
        writer.Key("id");
        writer.Int(record.id);
        writer.Key("alive");
        writer.Bool(table.alive(row));
        writer.Key("values");
        writer.BeginArray();
        for (const std::string& value : record.values) {
          writer.String(value);
        }
        writer.EndArray();
        writer.EndObject();
      }
      writer.EndArray();
      writer.Key("appended");
      writer.BeginArray();
      for (int row = overlay.base_rows[side]; row < table.size(); ++row) {
        const data::Record& record = table.record(row);
        writer.BeginObject();
        writer.Key("id");
        writer.Int(record.id);
        writer.Key("alive");
        writer.Bool(table.alive(row));
        writer.Key("values");
        writer.BeginArray();
        for (const std::string& value : record.values) {
          writer.String(value);
        }
        writer.EndArray();
        writer.EndObject();
      }
      writer.EndArray();
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("mods");
  writer.BeginArray();
  for (const auto& [key, version] : mods_) {
    // Key parts round-trip structurally, not via the packed string.
    const size_t p1 = key.find('\x1f');
    const size_t p2 = key.find('\x1f', p1 + 1);
    const size_t p3 = key.find('\x1f', p2 + 1);
    writer.BeginObject();
    WriteRecordFields(&writer, key.substr(0, p1),
                      key.substr(p1 + 1, p2 - p1 - 1),
                      std::stoi(key.substr(p2 + 1, p3 - p2 - 1)),
                      std::stoi(key.substr(p3 + 1)));
    writer.Key("seq");
    writer.Int(static_cast<long long>(version.seq));
    writer.Key("vslot");
    writer.Int(version.slot);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("deps");
  writer.BeginArray();
  for (const auto& [job_id, deps] : deps_) {
    writer.BeginObject();
    writer.Key("job_id");
    writer.String(job_id);
    writer.Key("seq");
    writer.Int(static_cast<long long>(deps.version.seq));
    writer.Key("vslot");
    writer.Int(deps.version.slot);
    writer.Key("snapshot");
    writer.Int(static_cast<long long>(deps.snapshot));
    writer.Key("records");
    writer.BeginArray();
    for (const StreamOp::DepRecord& dep : deps.records) {
      writer.BeginObject();
      WriteRecordFields(&writer, dep.dataset, dep.data_dir, dep.side,
                        dep.id);
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  const std::string& payload = writer.str();
  const std::string content =
      kCheckpointMagic + util::Crc32Hex(util::Crc32(payload)) + "\n" +
      payload;
  const std::string path =
      options_.dir + "/" + CheckpointFileName(options_.slot);
  if (!util::AtomicWriteFile(path, content)) return false;
  ops_since_checkpoint_ = 0;
  ++stats_.checkpoints;
  if (metric_checkpoints_ != nullptr) metric_checkpoints_->Increment();
  return true;
}

bool StreamCoordinator::LoadCheckpointLocked(size_t* own_offset) {
  const std::string path =
      options_.dir + "/" + CheckpointFileName(options_.slot);
  std::string content;
  if (!util::ReadFileToString(path, &content)) return false;
  // "<magic><crc hex>\n<payload>", CRC over the payload.
  const size_t magic_len = sizeof(kCheckpointMagic) - 1;
  uint32_t expected = 0;
  if (content.size() < magic_len + 9 ||
      content.compare(0, magic_len, kCheckpointMagic) != 0 ||
      content[magic_len + 8] != '\n' ||
      !util::ParseCrc32Hex(
          std::string_view(content.data() + magic_len, 8), &expected)) {
    return false;
  }
  const std::string_view payload(content.data() + magic_len + 9,
                                 content.size() - magic_len - 9);
  if (util::Crc32(payload.data(), payload.size()) != expected) return false;
  JsonValue root;
  std::string parse_error;
  if (!JsonValue::Parse(payload, &root, &parse_error) ||
      !root.is_object()) {
    return false;
  }
  long long clock = 0;
  if (!ReadIntField(root, "clock", &clock) || clock < 0) return false;
  const JsonValue* offsets = root.Find("offsets");
  const JsonValue* datasets = root.Find("datasets");
  const JsonValue* mods = root.Find("mods");
  const JsonValue* deps = root.Find("deps");
  if (offsets == nullptr || !offsets->is_object() || datasets == nullptr ||
      !datasets->is_array() || mods == nullptr || !mods->is_array() ||
      deps == nullptr || !deps->is_array()) {
    return false;
  }
  clock_ = static_cast<uint64_t>(clock);
  const std::string own = WalFileName(options_.slot);
  for (const auto& [name, value] : offsets->object_items()) {
    if (!value.is_integer() || value.int_value() < 0) continue;
    const size_t offset = static_cast<size_t>(value.int_value());
    if (name == own) {
      *own_offset = offset;
    } else {
      peers_.insert_or_assign(
          name, persist::PeerTail(options_.dir + "/" + name, kWalFormat,
                                  offset));
    }
  }
  for (const JsonValue& entry : datasets->array_items()) {
    if (!entry.is_object()) continue;
    std::string dataset;
    std::string data_dir;
    if (!ReadStringField(entry, "dataset", &dataset) ||
        !ReadStringField(entry, "data_dir", &data_dir)) {
      continue;
    }
    std::string overlay_error;
    Overlay* overlay = GetOverlayLocked(dataset, data_dir, &overlay_error);
    if (overlay == nullptr) continue;
    const JsonValue* sides = entry.Find("sides");
    if (sides == nullptr || !sides->is_array() ||
        sides->array_items().size() != 2) {
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const JsonValue& side_value = sides->array_items()[side];
      if (!side_value.is_object()) continue;
      for (const char* section : {"mutated", "appended"}) {
        const JsonValue* rows = side_value.Find(section);
        if (rows == nullptr || !rows->is_array()) continue;
        for (const JsonValue& row : rows->array_items()) {
          if (!row.is_object()) continue;
          long long id = 0;
          if (!ReadIntField(row, "id", &id)) continue;
          const JsonValue* alive = row.Find("alive");
          const JsonValue* values = row.Find("values");
          if (alive == nullptr || !alive->is_bool() || values == nullptr ||
              !values->is_array()) {
            continue;
          }
          data::Record record;
          record.id = static_cast<int>(id);
          for (const JsonValue& value : values->array_items()) {
            if (value.is_string()) {
              record.values.push_back(value.string_value());
            }
          }
          overlay->sides[side].Upsert(record);
          if (!alive->bool_value()) {
            overlay->sides[side].Remove(record.id);
          }
        }
      }
    }
  }
  for (const JsonValue& entry : mods->array_items()) {
    if (!entry.is_object()) continue;
    std::string dataset;
    std::string data_dir;
    long long side = 0;
    long long id = 0;
    long long seq = 0;
    long long vslot = 0;
    if (!ReadStringField(entry, "dataset", &dataset) ||
        !ReadStringField(entry, "data_dir", &data_dir) ||
        !ReadIntField(entry, "side", &side) ||
        !ReadIntField(entry, "id", &id) ||
        !ReadIntField(entry, "seq", &seq) ||
        !ReadIntField(entry, "vslot", &vslot)) {
      continue;
    }
    mods_[RecordKey(dataset, data_dir, static_cast<int>(side),
                    static_cast<int>(id))] =
        Version{static_cast<uint64_t>(seq), static_cast<int>(vslot)};
  }
  for (const JsonValue& entry : deps->array_items()) {
    if (!entry.is_object()) continue;
    std::string job_id;
    long long seq = 0;
    long long vslot = 0;
    long long snapshot = 0;
    if (!ReadStringField(entry, "job_id", &job_id) ||
        !ReadIntField(entry, "seq", &seq) ||
        !ReadIntField(entry, "vslot", &vslot) ||
        !ReadIntField(entry, "snapshot", &snapshot)) {
      continue;
    }
    const JsonValue* records = entry.Find("records");
    if (records == nullptr || !records->is_array()) continue;
    JobDeps& job = deps_[job_id];
    job.version = Version{static_cast<uint64_t>(seq),
                          static_cast<int>(vslot)};
    job.snapshot = static_cast<uint64_t>(snapshot);
    for (const JsonValue& record : records->array_items()) {
      if (!record.is_object()) continue;
      StreamOp::DepRecord dep;
      long long side = 0;
      long long id = 0;
      if (!ReadStringField(record, "dataset", &dep.dataset) ||
          !ReadStringField(record, "data_dir", &dep.data_dir) ||
          !ReadIntField(record, "side", &side) ||
          !ReadIntField(record, "id", &id)) {
        continue;
      }
      dep.side = static_cast<int>(side);
      dep.id = static_cast<int>(id);
      watchers_[RecordKey(dep.dataset, dep.data_dir, dep.side, dep.id)]
          .insert(job_id);
      job.records.push_back(std::move(dep));
    }
  }
  return true;
}

StreamCoordinator::Stats StreamCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.clock = clock_;
  stats.datasets = static_cast<int>(overlays_.size());
  stats.stale_jobs = static_cast<int>(stale_.size());
  return stats;
}

std::string StreamCoordinator::StatsJson() const {
  const Stats s = stats();
  JsonWriter json;
  json.BeginObject();
  json.Key("slot");
  json.Int(options_.slot);
  json.Key("clock");
  json.Int(static_cast<long long>(s.clock));
  json.Key("ops_applied");
  json.Int(s.ops_applied);
  json.Key("ops_absorbed");
  json.Int(s.ops_absorbed);
  json.Key("upserts");
  json.Int(s.upserts);
  json.Key("removes");
  json.Int(s.removes);
  json.Key("deps_registered");
  json.Int(s.deps_registered);
  json.Key("invalidations");
  json.Int(s.invalidations);
  json.Key("checkpoints");
  json.Int(s.checkpoints);
  json.Key("torn_bytes_dropped");
  json.Int(s.torn_bytes_dropped);
  json.Key("replayed_ops");
  json.Int(s.replayed_ops);
  json.Key("datasets");
  json.Int(s.datasets);
  json.Key("stale_jobs");
  json.Int(s.stale_jobs);
  json.EndObject();
  return json.str();
}

}  // namespace certa::service
