#!/usr/bin/env bash
# Pre-merge gate: static analysis first, then the sanitizer matrix with the
# full test suite under each configuration. Every build here runs with
# LANDMARK_WERROR=ON, so a new compiler warning fails the gate:
#
#   lint        scripts/lint.sh — landmark_lint over the whole tree
#               (determinism / concurrency / telemetry / hygiene contracts)
#               plus clang-tidy where available
#   asan-ubsan  memory errors + undefined behaviour
#   tsan        data races in the engine's task graph and the telemetry
#               hot paths (sharded counters, trace rings, the pool gauges);
#               an explicit second pass re-runs the telemetry-, engine-
#               and flight-deck-focused tests (TaskGraph / EngineScheduler /
#               EngineOneRecord / FlightDeck / Profiler / Stall suites,
#               including the concurrent-scrape-during-batch test, plus the
#               EmTraining / FeatureExtractor / PreparedFeatures suites that
#               run training's concurrent ExtractInto and PredictProba, and
#               the Levenshtein / Jaro / Simd / TokenizedValue / TokenCache
#               suites whose string kernels keep per-thread scratch and run
#               from concurrent query nodes, and the PreparedBatch suites,
#               whose batches fill Jaro-Winkler tables from concurrent query
#               nodes) so a race there fails loudly
#               even when triaging the full run
#   deadlock-debug  dedicated -DLANDMARK_DEADLOCK_DEBUG=ON build (no
#               sanitizers): death tests for the runtime lock-order
#               detector, the engine/telemetry suites under
#               instrumentation, and a byte-compare of `landmark_cli
#               explain` output against the default build proving the
#               detector is observation-only
#
# After the sanitizer matrix, a default (non-sanitized) landmark_cli runs
# `telemetry-demo --trace-out --metrics-out --audit-out --profile-out`
# and the outputs are checked by scripts/validate_trace.py
# (stdlib Python; skipped when python3 is absent). The perfbench smoke
# stage then runs perfbench's own tests (`python3 -m unittest discover -s
# perfbench/tests`): the golden-check unit tests plus one short run of
# every benchmark workload, which must report correct output.
#
# Finally the exporter smoke stage starts a tiny batch with
# `--metrics-port 0` (ephemeral port announced on stdout), scrapes /metrics,
# /healthz and /statusz through tools/http_probe (raw sockets; the image
# has no curl), asserts the exposition contains the explain/quality
# histograms, and checks the OpenMetrics exposition (Accept negotiation +
# the mandatory `# EOF` trailer) — once against the default build and once
# against the TSan build.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

scripts/lint.sh "$JOBS"

for preset in asan-ubsan tsan; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset" -DLANDMARK_WERROR=ON
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] test ==="
  ctest --preset "$preset" -j "$JOBS"
done

echo "=== [tsan] telemetry + scheduler focused re-run ==="
ctest --preset tsan -j "$JOBS" -R \
  'Counter|Gauge|Histogram|MetricsRegistry|TraceRecorder|EngineTelemetry|ThreadPool|HttpExporter|Audit|Prometheus|TaskGraph|Scheduler|EngineOneRecord|FlightDeck|Profiler|Activity|Stall|EmTraining|FeatureExtractor|PreparedFeatures|PreparedBatch|Levenshtein|Jaro|Simd|TokenizedValue|TokenCache'

echo "=== [default] telemetry outputs ==="
cmake -B build -S . -DLANDMARK_WERROR=ON >/dev/null
cmake --build build -j "$JOBS" --target landmark_cli http_probe
TELEMETRY_TMP="$(mktemp -d)"
trap 'rm -rf "$TELEMETRY_TMP"' EXIT
./build/tools/landmark_cli telemetry-demo --records 8 \
  --trace-out="$TELEMETRY_TMP/trace.json" \
  --metrics-out="$TELEMETRY_TMP/metrics.json" \
  --audit-out="$TELEMETRY_TMP/audit.jsonl" \
  --profile-out="$TELEMETRY_TMP/profile.folded" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/validate_trace.py \
    "$TELEMETRY_TMP/trace.json" "$TELEMETRY_TMP/metrics.json" \
    --audit "$TELEMETRY_TMP/audit.jsonl" \
    --profile "$TELEMETRY_TMP/profile.folded"
else
  echo "python3 not found; skipped trace/metrics validation"
fi

# Perfbench smoke: the benchmark's golden-check unit tests and one short
# run of each workload (perfbench builds itself under .bench_build/).
echo "=== perfbench smoke ==="
python3 -m unittest discover -s perfbench/tests

# Deadlock-debug stage: a dedicated (non-sanitized) build with the runtime
# lock-order detector on. The asan-ubsan preset above already runs the full
# suite with the detector; this stage runs fast and in isolation so a
# lock-discipline failure is attributable without sanitizer noise, then
# proves the detector only observes: `landmark_cli explain` output must be
# byte-identical between the default build and the instrumented one.
echo "=== [deadlock-debug] build (runtime lock-order detector ON) ==="
cmake -B build-deadlock -S . -DLANDMARK_WERROR=ON \
  -DLANDMARK_DEADLOCK_DEBUG=ON >/dev/null
cmake --build build-deadlock -j "$JOBS"
echo "=== [deadlock-debug] death tests + engine/telemetry suites ==="
(cd build-deadlock && ctest --output-on-failure -j "$JOBS" -R \
  'DeadlockDebug|ThreadPool|TaskGraph|Scheduler|Engine|HttpExporter|FlightDeck|Profiler|Stall|Audit')
echo "=== [deadlock-debug] explanations bit-identical with detection on ==="
./build/tools/landmark_cli explain --dataset S-BR --pair 7 \
  --technique double >"$TELEMETRY_TMP/explain_detector_off.txt"
./build-deadlock/tools/landmark_cli explain --dataset S-BR --pair 7 \
  --technique double >"$TELEMETRY_TMP/explain_detector_on.txt"
cmp "$TELEMETRY_TMP/explain_detector_off.txt" \
  "$TELEMETRY_TMP/explain_detector_on.txt"
# Audit unit lines are deterministic too (the "batch" trailer carries wall
# times, so it is excluded).
./build/tools/landmark_cli telemetry-demo --records 8 \
  --audit-out="$TELEMETRY_TMP/audit_detector_off.jsonl" >/dev/null
./build-deadlock/tools/landmark_cli telemetry-demo --records 8 \
  --audit-out="$TELEMETRY_TMP/audit_detector_on.jsonl" >/dev/null
cmp <(grep '"type":"unit"' "$TELEMETRY_TMP/audit_detector_off.jsonl") \
  <(grep '"type":"unit"' "$TELEMETRY_TMP/audit_detector_on.jsonl")
echo "deadlock-debug: detector is observation-only (outputs identical)"

# Exporter smoke: background a tiny batch that serves /metrics on an
# ephemeral port and lingers, poll the announced port until the finished
# batch's explain/quality histograms appear in the exposition, check
# /healthz, /statusz and the OpenMetrics exposition behind Accept
# negotiation, then take the process down.
exporter_smoke() {
  local bindir="$1" tag="$2"
  local log="$TELEMETRY_TMP/exporter_$tag.log"
  "$bindir/tools/landmark_cli" telemetry-demo --records 4 --samples 32 \
    --scale 0.25 --metrics-port 0 --metrics-linger 300 >"$log" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 600); do
    port="$(sed -n 's#.*http://127\.0\.0\.1:\([0-9]*\)/metrics.*#\1#p' \
      "$log" | head -n 1)"
    [ -n "$port" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "exporter smoke [$tag]: process exited before announcing a port"
      cat "$log"
      return 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "exporter smoke [$tag]: no port announced"
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  local scraped=""
  for _ in $(seq 1 600); do
    if "$bindir/tools/http_probe" "$port" /metrics \
        --expect-substring landmark_explain_quality_match_fraction_count \
        >"$TELEMETRY_TMP/metrics_$tag.prom" 2>/dev/null; then
      scraped=1
      break
    fi
    sleep 0.2
  done
  if [ -z "$scraped" ]; then
    echo "exporter smoke [$tag]: /metrics never showed explain/quality"
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  test -s "$TELEMETRY_TMP/metrics_$tag.prom"
  "$bindir/tools/http_probe" "$port" /healthz --expect-substring ok \
    >/dev/null
  "$bindir/tools/http_probe" "$port" /statusz \
    --expect-substring engine/batches >/dev/null
  "$bindir/tools/http_probe" "$port" /metrics \
    --accept application/openmetrics-text \
    --expect-substring "# EOF" \
    >"$TELEMETRY_TMP/openmetrics_$tag.prom"
  kill "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  echo "exporter smoke [$tag]: ok (port $port)"
}

echo "=== exporter smoke [default] ==="
exporter_smoke build default
echo "=== exporter smoke [tsan] ==="
exporter_smoke build-tsan tsan

echo "All sanitizer checks passed."
