#!/usr/bin/env sh
# Tier-1 verification: configure + build + ctest in Release, then repeat
# under ASan/UBSan to catch carry-propagation UB and lifetime bugs in the
# bigint kernels and the shared core::ParallelRuntime pool, then once more
# with DUBHE_SIMD=OFF so the portable scalar GEMM fallback stays green
# (the only build with no AVX instructions, so the only one that runs on a
# pre-AVX2 x86 host). The release leg additionally runs the
# multi-process net smoke (tools/net_smoke.sh: dubhe_node server + 3 client
# processes over localhost, plus a 1-root + 2-shard + 4-client
# aggregation-tree leg, every transcript diffed against the in-process
# selftest) and a DUBHE_CPU=portable pass of the dispatch-sensitive suites
# (ctest label portable_tier: scalar GEMM, C Montgomery rows, poll(2)
# backend — the scalar tiers inside the AVX2 build). Data races
# are a separate tool's job: a final ThreadSanitizer pass builds the
# thread-invariance and transport suites (ctest label tsan, build target
# tsan_suites; both lists live in CMakeLists.txt) under the `tsan`
# preset and runs them, so a racy edit to the pool, the compute kernels, the
# TCP event loop, the quarantine/deadline machinery, the aggregation tree
# (client and shard threads driving the shared pool at once), the
# telemetry counters, the admin endpoint's serving thread or the pooled
# prime search fails loudly.
# Usage: tools/ci.sh [--quick] [extra cmake args...]
#   --quick: run only the fast suites (ctest label `tier1`) in each preset.
set -eu

cd "$(dirname "$0")/.."

# Hang safety: every ctest invocation gets a global per-test timeout so a
# deadlocked TCP event loop or a stuck multi-round session fails the run in
# minutes instead of stalling a CI job until the runner limit.
CTEST_TIMEOUT="${DUBHE_CTEST_TIMEOUT:-300}"
CTEST_ARGS="--no-tests=error --timeout $CTEST_TIMEOUT"
QUICK=0
if [ "${1:-}" = "--quick" ]; then
  CTEST_ARGS="-L tier1 --no-tests=error --timeout $CTEST_TIMEOUT"
  QUICK=1
  shift
fi

run_preset() {
  preset="$1"
  shift
  echo "== configure ($preset) =="
  cmake --preset "$preset" "$@"
  echo "== build ($preset) =="
  cmake --build --preset "$preset" -j "$(nproc 2>/dev/null || echo 4)"
  echo "== ctest ($preset) =="
  # shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
  ctest --preset "$preset" $CTEST_ARGS -j "$(nproc 2>/dev/null || echo 4)"
}

run_preset release "$@"

# Two full 3-round secure sessions (multi-process + selftest) — not a fast
# suite. The script enforces its own wall-clock timeout (see net_smoke.sh).
if [ "$QUICK" -eq 0 ]; then
  echo "== multi-process net smoke (release build) =="
  tools/net_smoke.sh build
fi

# Portable-tier leg: DUBHE_CPU=portable masks every runtime capability, so
# the release binaries must pass the net + dispatch + bigint + Paillier
# suites (label portable_tier: the key-holder encryption every client runs,
# the packed vector and the direct secure session included) on scalar
# GEMM, the C Montgomery row loop (with __int128, unlike the *_portable
# suites) and the poll(2) event-loop backend, and test_transcript_golden's
# pinned transcript digests must still match. These are the tiers a host
# without AVX2/ADX/epoll would select, run inside the AVX2 build; only the
# simd-off leg below runs on such a host.
echo "== portable capability tier (DUBHE_CPU=portable, release build) =="
DUBHE_CPU=portable ctest --preset release -L portable_tier \
  --no-tests=error --timeout "$CTEST_TIMEOUT"

run_preset asan "$@"
run_preset simd-off "$@"

echo "== thread-invariance under TSan =="
cmake --preset tsan "$@"
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)" --target tsan_suites
ctest --preset tsan -L tsan --no-tests=error --timeout "$CTEST_TIMEOUT"

echo "CI OK"
