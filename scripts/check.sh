#!/usr/bin/env bash
# Full pre-merge gate:
#
#   1. tier-1  — plain build + the whole ctest suite (ROADMAP.md);
#      werror  — every target built with -DHARMONY_WERROR=ON (warnings
#      are errors, except GCC 12's -Wmaybe-uninitialized false
#      positives, which CMakeLists.txt keeps as warnings);
#   2. analyze — the static-analysis subsystem (race detector, linter,
#      execution checker; ctest -L analyze) plus harmony-lint CLI smoke
#      runs, including --check-exec on one affine and one TableMap
#      fixture and one --pipeline chain (tune + per-stage ExecChecker
#      certification against producer-substituted input homes);
#   3. ASan/UBSan build running the serve + sched + analyze + support
#      tests and the compiled-evaluation, strategy and pipeline fm tests
#      (the concurrent subsystem and the shadow-memory detector are where
#      lifetime bugs would live; the sched tests cover the heap-allocated
#      scheduler roots, where a double run or a leak would show;
#      support_test exercises the Rng full-domain ranges whose old
#      arithmetic was signed-overflow UB;
#      the serve_dist tests cover the router/worker wire path, where a
#      bounds bug in frame decoding would be a heap overread; the fm
#      parity sweeps index the compiled legality pass and the pipeline
#      executor, where an off-by-one would read out of bounds);
#   4. TSan build running the tier1 + serve + serve_dist + analyze +
#      trace + fm_search + fm_strategy + fm_pipeline labels — the whole
#      correctness suite
#      (parallel search parity, compiled-evaluation parity, delta-eval
#      parity, multi-chain anneal/beam worker-count identity, scheduler
#      wakeup, roots, coalescing, cache, concurrent trace-ring writes, router
#      coalescing/stealing/drain against live worker threads) plus the
#      stress test under ThreadSanitizer;
#   5. perf    — smoke runs of the mapping-search, compiled-evaluation,
#      stochastic-search and pipeline-tuning benchmarks (bench_e8 +
#      bench_e22 + bench_e23 + bench_e24) and the shard-scaling gtest
#      (ctest -L perf): fails if a search winner does not re-verify and
#      re-cost identically through the FunctionSpec oracles or the edit
#      distance's time winner is not the wavefront, the fast path's
#      reports diverge from the legacy oracles, a
#      parallel search diverges from serial, the anneal misses the
#      affine optimum, the median delta-eval speedup drops below its
#      contract, the co-optimizing pipeline tuner loses to the greedy
#      baseline / fails certification, or any open-loop request to a 1-
#      or 4-shard fleet is answered other than kOk; then 2 s perfbench
#      runs of hot_hits, cold_tunes (the BENCHMARK.json workloads) and
#      mixed_fleet (a multi-shard fleet serving fresh misses, duplicate
#      tunes and byte-checked hits), which fail on any wrong reply.
#
# Usage:
#   scripts/check.sh                         # all stages
#   scripts/check.sh tier1                   # just the plain build + tests
#   scripts/check.sh werror|analyze|asan|tsan|perf  # just that stage
#
# Every stage runs as one &&-chain inside its function.  This matters:
# `set -e` is suspended while a function runs as part of a condition
# (`if run_x`, `run_x && ...`), so a bare multi-command function body
# would keep going after a failing cmake/ctest and let a later passing
# command mask the failure.  The &&-chain propagates the first nonzero
# exit code regardless of errexit context, and the runner records each
# stage's result instead of stopping at the first, so one broken
# sanitizer stage cannot hide behind — or be hidden by — another.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"
STAGE="${1:-all}"

run_tier1() {
  echo "== tier-1: build + full test suite ==" &&
  cmake -B build -S . &&
  cmake --build build -j "$(nproc)" &&
  ctest --test-dir build --output-on-failure -j
}

run_werror() {
  echo "== werror: every target with warnings as errors ==" &&
  cmake -B build-werror -S . -DHARMONY_WERROR=ON &&
  cmake --build build-werror -j "$(nproc)"
}

run_analyze() {
  echo "== analyze: race detector + linter + execution checker ==" &&
  cmake -B build -S . &&
  cmake --build build -j "$(nproc)" --target analyze_race_test \
    analyze_lint_test analyze_exec_test analyze_witness_test \
    harmony_lint_cli_test harmony_lint &&
  ctest --test-dir build --output-on-failure -L analyze &&
  ./build/examples/harmony-lint --spec=editdist:16x16 --machine=4x1 \
    --map=wavefront &&
  ./build/examples/harmony-lint --spec=editdist:8x8 --machine=8x1 \
    --map=affine:1,1,101,0,1,0 --check-exec &&
  ./build/examples/harmony-lint --spec=stencil:64,8 --machine=4x1 \
    --map=table --check-exec &&
  # Pipeline mode: tune a chain and certify every stage winner.  Exit 1
  # (warnings only — low-utilization hints are normal for these tiny
  # smoke chains) passes; exit 2 (lint/exec errors) fails the stage.
  { ./build/examples/harmony-lint --pipeline=scanchain:16 --machine=4x1 \
      || [ "$?" -eq 1 ]; } &&
  { ./build/examples/harmony-lint --pipeline=irregular:24,3,7 \
      --machine=4x1 --tuner=greedy || [ "$?" -eq 1 ]; }
}

run_asan() {
  echo "== ASan/UBSan: serve + sched + analyze + support + fm tests ==" &&
  cmake -B build-asan -S . -DHARMONY_ASAN=ON &&
  cmake --build build-asan -j "$(nproc)" --target serve_test serve_ring_test \
    serve_wire_test serve_dist_test serve_stress_test sched_test \
    sched_robustness_test analyze_race_test analyze_lint_test \
    analyze_exec_test analyze_witness_test support_test fm_compiled_test \
    fm_strategy_test fm_pipeline_test fm_search_parallel_test \
    fm_search_driver_test &&
  ctest --test-dir build-asan --output-on-failure \
    -R "serve|sched_test|sched_robustness|analyze|support|fm_compiled|fm_strategy|fm_pipeline|fm_search_parallel|fm_search_driver"
}

run_tsan() {
  echo "== TSan: tier1 + serve + serve_dist + analyze + trace +" \
       "fm_search + fm_strategy + fm_pipeline labels ==" &&
  cmake -B build-tsan -S . -DHARMONY_TSAN=ON &&
  cmake --build build-tsan -j "$(nproc)" --target harmony_tests &&
  ctest --test-dir build-tsan --output-on-failure \
    -L "tier1|serve|serve_dist|analyze|trace|fm_search|fm_strategy|fm_pipeline|exec"
}

run_perf() {
  # bench_e22's exit code also enforces the parallel-search scaling
  # floor: modeled >= 2x at 8 workers always (deterministic work-span
  # replay of the grain schedule, DESIGN.md §15), measured >= 2x only
  # when the host has >= 8 hardware threads.
  echo "== perf: mapping-search + compiled-eval + stochastic-search +" \
       "pipeline bench smoke + shard scaling ==" &&
  cmake -B build -S . &&
  cmake --build build -j "$(nproc)" --target bench_e8_mapping_search \
    bench_e22_cost_eval bench_e23_anneal bench_e24_pipeline \
    shard_scaling_test &&
  ctest --test-dir build --output-on-failure -L perf &&
  # perfbench (BENCHMARK.json's command) builds its own Release tree in
  # .bench_build and exits non-zero on any wrong reply, so a short run of
  # each workload keeps the benchmark building and its answers checked.
  python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 2 \
    --trace 0 &&
  python3 perfbench/run.py --workload cold_tunes --seed 1 --seconds 2 \
    --trace 0 &&
  python3 perfbench/run.py --workload mixed_fleet --seed 1 --seconds 2 \
    --trace 0
}

run_stage() {
  # Runs one stage, recording rather than aborting on failure so every
  # requested stage reports.  The `if` guard keeps errexit from killing
  # the whole script on the first broken stage.
  local stage="$1"
  if "run_${stage}"; then
    echo "check.sh: stage ${stage} passed"
  else
    local rc=$?
    echo "check.sh: stage ${stage} FAILED (exit ${rc})" >&2
    FAILED+=("${stage}")
  fi
}

declare -a FAILED=()
case "$STAGE" in
  all)     for s in tier1 werror analyze asan tsan perf; do
             run_stage "$s"
           done ;;
  tier1)   run_stage tier1 ;;
  werror)  run_stage werror ;;
  analyze) run_stage analyze ;;
  asan)    run_stage asan ;;
  tsan)    run_stage tsan ;;
  perf)    run_stage perf ;;
  *)       echo "usage: $0 [all|tier1|werror|analyze|asan|tsan|perf]" >&2
           exit 2 ;;
esac

if [ "${#FAILED[@]}" -ne 0 ]; then
  echo "check.sh: FAILED stages: ${FAILED[*]}" >&2
  exit 1
fi
echo "check.sh: $STAGE passed"
