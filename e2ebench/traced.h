// The traced replay of one explain job: the calls
// service::RunDurableExplain makes, in its order, with spans around
// each call into a layer.
#ifndef CERTA_E2EBENCH_TRACED_H_
#define CERTA_E2EBENCH_TRACED_H_

#include <string>

#include "api/explain_request.h"
#include "persist/score_store.h"
#include "service/stream_coordinator.h"

namespace certa::e2ebench {

/// Per-job layer split. Times are milliseconds of wall time; spans of
/// calls that overlap (model batches fanned out over the pool) count
/// their union unless named *_cpu_*.
struct LayerTimes {
  double run_ms = 0;
  double data_load_ms = 0;
  double provide_dataset_ms = 0;
  double train_ms = 0;
  double model_wall_ms = 0;
  double model_cpu_ms = 0;
  /// CertaExplainer construction (thread pool, candidate indexes).
  double core_init_ms = 0;
  /// pivot, triangles, lattice, counterfactuals: the interval between
  /// ExplainProgress boundaries minus every span inside it.
  double core_phase_ms[4] = {0, 0, 0, 0};
  double to_json_ms = 0;
  double atomic_write_ms = 0;
  double store_lookup_ms = 0;
  double store_put_ms = 0;
  double store_sync_ms = 0;
  double refresh_peers_ms = 0;
  double journal_append_ms = 0;
  double journal_fsync_ms = 0;
  double checkpoint_ms = 0;
  /// Sum of the engine's scoring.batch.latency_us, in ms.
  double batch_latency_ms = 0;
  /// Union of every span plus the core phases' self time: the part of
  /// run_ms some layer accounts for.
  double attributed_ms = 0;
  long long pairs = 0;
  long long batches = 0;
  long long lookups = 0;
  long long puts = 0;
  long long appends = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long store_hits = 0;
  long long predictions_expected = 0;
  long long predictions_saved = 0;
};

struct TracedJob {
  bool ok = false;
  std::string error;
  std::string result_json;
  LayerTimes times;
};

/// Runs `spec` in `job_dir` exactly as the server's durable runner
/// does, against `store` (may be null) and, when `coordinator` is set,
/// with the dataset taken from its live overlays.
TracedJob TracedRunDurableExplain(const api::ExplainRequest& spec,
                                  const std::string& job_dir,
                                  persist::ScoreStore* store,
                                  service::StreamCoordinator* coordinator);

}  // namespace certa::e2ebench

#endif  // CERTA_E2EBENCH_TRACED_H_
