#!/usr/bin/env bash
# CI entry point. Stages mirror the jobs of .github/workflows/ci.yml
# 1:1 — test, sanitize, tsan, serve, incremental, plan, coverage,
# bench-gate — so every job can be reproduced locally with a single
# command and "the serve stage failed" means the same thing in both
# places. Set SKIP_ASAN=1 / SKIP_TSAN=1 / SKIP_SERVE=1 /
# SKIP_INCREMENTAL=1 / SKIP_PLAN=1 / SKIP_BENCH_GATE=1 to drop a
# stage (e.g. TSan is slow on small boxes). The coverage
# stage is the one exception: it defaults to *skipped* locally
# (gcovr + a Debug rebuild); opt in with RUN_COVERAGE=1.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

echo "==> test (plain build + full suite)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${SKIP_ASAN:-0}" != 1 ]]; then
  echo "==> sanitize (address;undefined)"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    "-DFAURE_SANITIZE=address;undefined"
  cmake --build build-asan -j "$JOBS"
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "${SKIP_TSAN:-0}" != 1 ]]; then
  echo "==> tsan (thread sanitizer, scenario fan-out widened)"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFAURE_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  FAURE_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
fi

if [[ "${SKIP_SERVE:-0}" != 1 ]]; then
  echo "==> serve (scenario service smoke + byte-identity gate)"
  # The batch front-end, the stdin line protocol, and the unix-socket
  # server (DESIGN.md §12), then the scenario gate: batch and serve
  # frames byte-identical to single-scenario whatif runs at fan-out
  # widths {1,2,8} x cache on/off. CI runs this stage under ASan; the
  # plain build keeps the local loop fast.
  python3 tools/serve_smoke.py --faure build/tools/faure
  python3 tools/determinism_check.py --faure build/tools/faure \
    --threads 1,2,8 --scenarios data/whatif_scenarios.fl \
    data/whatif_net.fdb data/whatif_reach.fl
fi

if [[ "${SKIP_INCREMENTAL:-0}" != 1 ]]; then
  echo "==> incremental (whatif oracle byte-identity + reuse)"
  # The oracle contract: every {mode, cache} whatif variant
  # prints byte-identical epochs, and the incremental mode re-fires
  # strictly fewer rules (keep the script list in sync with ci.yml's
  # `incremental` job matrix).
  for edits in data/whatif_edits.fl data/whatif_churn.fl; do
    python3 tools/determinism_check.py --faure build/tools/faure \
      --edit-script "$edits" \
      data/whatif_net.fdb data/whatif_reach.fl
  done
fi

if [[ "${SKIP_PLAN:-0}" != 1 ]]; then
  echo "==> plan (join-planner transparency, plan on/off byte-identity)"
  # Cost-based planning is a physical layer only (DESIGN.md §11): the
  # full determinism matrix, with a plan on/off sweep folded in, must
  # stay byte-identical — for plain runs and across what-if epochs
  # (persistent indexes are retained by the incremental engine).
  python3 tools/determinism_check.py --faure build/tools/faure \
    --plan \
    data/figure1.fdb data/listing2.fl \
    data/enterprise.fdb data/t2_constraint.fl
  python3 tools/determinism_check.py --faure build/tools/faure \
    --plan --edit-script data/whatif_edits.fl \
    data/whatif_net.fdb data/whatif_reach.fl
fi

if [[ "${RUN_COVERAGE:-0}" == 1 ]]; then
  echo "==> coverage (gcovr line floor, Debug instrumented build)"
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DFAURE_COVERAGE=ON
  cmake --build build-cov -j "$JOBS"
  ctest --test-dir build-cov --output-on-failure -j "$JOBS"
  gcovr --root . --filter 'src/' --object-directory build-cov \
    --exclude-throw-branches --print-summary --fail-under-line 88
fi

if [[ "${SKIP_BENCH_GATE:-0}" != 1 ]]; then
  echo "==> bench-gate (Table 4, cache on + off)"
  (cd build && FAURE_TABLE4_SIZES=200,500 \
    FAURE_BENCH_JSON=BENCH_table4_gate.json ./bench/table4_reachability)
  python3 tools/bench_check.py --current build/BENCH_table4_gate.json \
    --baseline bench/baseline_table4.json --tolerance 0.30 \
    --diff-out build/bench_diff.json

  echo "==> bench-gate (incremental what-if)"
  (cd build && FAURE_BENCH_JSON=BENCH_incremental.json \
    ./bench/whatif_incremental)
  python3 tools/bench_check.py --current build/BENCH_incremental.json \
    --baseline bench/baseline_incremental.json --family incremental \
    --tolerance 0.50 --diff-out build/bench_diff_incremental.json

  echo "==> bench-gate (join planner)"
  (cd build && FAURE_BENCH_JSON=BENCH_join.json ./bench/join_planner)
  python3 tools/bench_check.py --current build/BENCH_join.json \
    --baseline bench/baseline_join.json --family join \
    --tolerance 0.50 --diff-out build/bench_diff_join.json

  echo "==> bench-gate (scenario batch)"
  (cd build && FAURE_BENCH_JSON=BENCH_scenario.json ./bench/scenario_batch)
  python3 tools/bench_check.py --current build/BENCH_scenario.json \
    --baseline bench/baseline_scenario.json --family scenario \
    --tolerance 0.50 --diff-out build/bench_diff_scenario.json

  echo "==> bench-gate (engine benchmark self-test)"
  python3 perfbench/selftest.py
fi

echo "==> all green"
