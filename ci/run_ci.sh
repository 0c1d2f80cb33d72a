#!/usr/bin/env bash
# Full CI gate, runnable locally or from .github/workflows/ci.yml:
#   1. Release build + complete ctest suite;
#   2. address+undefined sanitizer build + the suites most likely to
#      hide memory/UB bugs (resilience fault paths, durability journal
#      recovery and kill/resume, and the perf suite, whose batch
#      scoring keeps string_views into caller-owned records);
#   3. thread sanitizer build (CERTA_SANITIZE=thread) + the concurrency
#      suite (thread pool, sharded metrics, cache shards under pooled
#      writers) and the service-net suite (the socket server's event
#      loop against its runner threads);
#   4. the perf suite (SIMD kernel differentials + scaling determinism):
#      portable build with the dispatched kernels, the same build with
#      CERTA_KERNELS=scalar forcing the reference kernels, a
#      -DCERTA_NATIVE=ON build when the host compiler supports
#      -march=native, and the TSan build;
#   5. the observability overhead bench, which fails if instrumentation
#      changes a result byte and writes BENCH_obs.json, and the
#      durability bench, which fails unless journal resumes re-pay
#      nothing and match the uninterrupted result, and writes
#      BENCH_durability.json;
#   6. the store suite (score-store crash-fuzz — including SIGKILLed
#      sibling streams sharing one directory — + candidate-index
#      differential battery) in the Release, ASan and TSan builds, plus
#      an optional 100k-record scale smoke gated on CERTA_CI_SCALE=1
#      whose bench also asserts the 2-worker shared-store warm rerun
#      (fleet-wide hit_rate == 1.0, zero fresh model calls);
#   7. the fleet suite (multi-process master/worker serving: dir-lock
#      contention, crash recovery, rolling restart, the shared
#      cross-worker score store, and the randomized SIGKILL chaos
#      battery — which also absorbs a concurrent v2 upsert stream) in
#      the Release, ASan and TSan builds;
#   8. the stream suite (incremental MutableTable differential, v2 wire
#      verbs + negotiation + golden v1 byte corpus, SIGKILL/resume and
#      recompute-equals-fresh-batch e2e) in the Release, ASan and TSan
#      builds, plus the streaming-latency/durability bench which writes
#      BENCH_stream.json and fails on any lost acked upsert;
#   9. the wire-level end-to-end benchmark's smoke test (every workload
#      at a tiny size in both trace modes, plus a corrupted reference
#      per correctness check that must be caught).
# Any failure fails the script.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${CERTA_CI_JOBS:-$(nproc)}"

echo "== Release build =="
cmake -B "${REPO_ROOT}/build-ci" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "${REPO_ROOT}/build-ci" -j "${JOBS}"

echo "== Full test suite (Release) =="
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -j "${JOBS}"

echo "== Labelled suites (Release) =="
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L resilience
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L durability
# Networked service: wire edge cases, live server, and the e2e round
# trip through the real serve/client binaries (8 concurrent clients
# byte-compared against direct `certa explain`, SIGTERM drain).
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L service-net
# Cross-job score store + candidate index: CRC known answers, crash-fuzz
# (SIGKILL mid-append/mid-compaction, kill the real CLI mid-run), the
# index-vs-linear-scan differential battery, and flag/thread/restart
# byte-identity.
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L store
# Multi-process fleet serving: flock exclusivity across processes,
# supervised worker SIGKILL recovery, SIGHUP rolling restart, per-worker
# backpressure, the shared cross-worker score store (sibling reuse,
# warm-fleet reruns, retry-streak budgets, torn-STATS fan-in), and the
# chaos battery (random worker kills under live multi-client load over
# one shared store dir, byte-compared against single-process explains).
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L fleet
# Streaming/incremental serving: the MutableTable incremental-index
# differential, v2 wire verbs + per-connection version negotiation +
# the golden v1 byte-for-byte corpus, and the SIGKILL/resume +
# stale-recompute-equals-fresh-batch e2e through the real binaries.
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L stream

echo "== address+undefined sanitizer build =="
cmake -B "${REPO_ROOT}/build-ci-asan" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCERTA_SANITIZE=address+undefined
cmake --build "${REPO_ROOT}/build-ci-asan" -j "${JOBS}"

echo "== Sanitized resilience + durability + service-net + store + perf suites =="
ctest --test-dir "${REPO_ROOT}/build-ci-asan" --output-on-failure -L resilience
ctest --test-dir "${REPO_ROOT}/build-ci-asan" --output-on-failure -L durability
ctest --test-dir "${REPO_ROOT}/build-ci-asan" --output-on-failure -L service-net
ctest --test-dir "${REPO_ROOT}/build-ci-asan" --output-on-failure -L store
ctest --test-dir "${REPO_ROOT}/build-ci-asan" --output-on-failure -L fleet
ctest --test-dir "${REPO_ROOT}/build-ci-asan" --output-on-failure -L stream
ctest --test-dir "${REPO_ROOT}/build-ci-asan" --output-on-failure -L perf

echo "== thread sanitizer build =="
cmake -B "${REPO_ROOT}/build-ci-tsan" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCERTA_SANITIZE=thread
cmake --build "${REPO_ROOT}/build-ci-tsan" -j "${JOBS}"

echo "== Sanitized concurrency suite (TSan) =="
ctest --test-dir "${REPO_ROOT}/build-ci-tsan" --output-on-failure \
  -L concurrency

echo "== Sanitized service-net suite (TSan) =="
ctest --test-dir "${REPO_ROOT}/build-ci-tsan" --output-on-failure \
  -L service-net

echo "== Sanitized store suite (TSan) =="
ctest --test-dir "${REPO_ROOT}/build-ci-tsan" --output-on-failure -L store

echo "== Sanitized fleet suite (TSan) =="
ctest --test-dir "${REPO_ROOT}/build-ci-tsan" --output-on-failure -L fleet

echo "== Sanitized stream suite (TSan) =="
ctest --test-dir "${REPO_ROOT}/build-ci-tsan" --output-on-failure -L stream

echo "== Perf suite: portable build, dispatched (vector) kernels =="
ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L perf

echo "== Perf suite: forced scalar kernels (CERTA_KERNELS=scalar) =="
CERTA_KERNELS=scalar \
  ctest --test-dir "${REPO_ROOT}/build-ci" --output-on-failure -L perf

echo "== Perf suite: -march=native build (skipped if unsupported) =="
if cmake -B "${REPO_ROOT}/build-ci-native" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=Release -DCERTA_NATIVE=ON; then
  cmake --build "${REPO_ROOT}/build-ci-native" -j "${JOBS}" --target \
    simd_kernel_test scoring_engine_test
  ctest --test-dir "${REPO_ROOT}/build-ci-native" --output-on-failure -L perf
else
  echo "   -march=native unavailable; skipping the native perf pass"
fi

echo "== Perf suite under TSan =="
ctest --test-dir "${REPO_ROOT}/build-ci-tsan" --output-on-failure -L perf

echo "== Observability overhead bench =="
CERTA_BENCH_OBS_JSON="${REPO_ROOT}/BENCH_obs.json" \
  "${REPO_ROOT}/build-ci/bench/bench_observability"

# Durability bench: journal replay, CompactJournal prefixes and resume at
# 25/50/75% of the paid work; fails on any re-paid score, a resume that
# does not add up to the uninterrupted run, or a result byte that moved.
echo "== Durability bench =="
CERTA_BENCH_DURABILITY_JSON="${REPO_ROOT}/BENCH_durability.json" \
  "${REPO_ROOT}/build-ci/bench/bench_durability"

# Streaming bench: sustained upsert/match/remove p50/p95/p99 through the
# WAL'd coordinator, staleness-detection churn, and a SIGKILL-and-resume
# leg that fails the build on any lost acked upsert.
echo "== Streaming latency + durability bench =="
CERTA_BENCH_STREAM_JSON="${REPO_ROOT}/BENCH_stream.json" \
  "${REPO_ROOT}/build-ci/bench/bench_stream"

# End-to-end benchmark smoke test: builds `certa` and the load generator
# into .bench_build/, runs every workload through real `certa serve`
# processes, and checks that each correctness check catches a corrupted
# reference (about a minute once built).
echo "== End-to-end benchmark smoke test =="
python3 "${REPO_ROOT}/e2ebench/smoke_test.py"

# Scale smoke: candidate-index speedup + store warm-hit verification,
# including the 2-worker shared-store leg (stream 1 must rerun the job
# with zero fresh model calls, hit_rate == 1.0, every hit paid by its
# sibling stream — the bench exits nonzero otherwise).
# Minutes of wall clock, so gated — set CERTA_CI_SCALE=1 to run it.
# Defaults to 100k records (manual dispatch); the nightly workflow sets
# CERTA_CI_SCALE_RECORDS=1000000 for the full 1M-record pass.
if [[ "${CERTA_CI_SCALE:-0}" == "1" ]]; then
  SCALE_RECORDS="${CERTA_CI_SCALE_RECORDS:-100000}"
  echo "== Scale smoke (bench_scale, ${SCALE_RECORDS} records) =="
  CERTA_BENCH_SCALE_JSON="${REPO_ROOT}/BENCH_scale.json" \
    "${REPO_ROOT}/build-ci/bench/bench_scale" --records "${SCALE_RECORDS}"
else
  echo "== Scale smoke skipped (set CERTA_CI_SCALE=1 to run) =="
fi

echo "CI passed."
