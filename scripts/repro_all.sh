#!/usr/bin/env bash
# Full reproduction run: build, test, and regenerate every table/figure and
# ablation. Outputs land in test_output.txt / bench_output.txt at the repo
# root. Pass --paper to ALSO rerun the headline experiments at Table II input
# sizes (adds ~10-30 minutes).
#
# Sweep-shaped harnesses fan their cells out over the spf::orchestrate
# engine; SPF_THREADS caps the worker count (default: all cores, which still
# emits bit-identical artifacts — see docs/orchestrator.md). Every sweep grid
# (the full cross-product, the adaptive, phase-bound and provenance figures)
# is one spf_sweep command line below, and each runs once.
set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="${SPF_THREADS:-$(nproc)}"

# The figure grids, shared by the CI-scale runs and the --paper reruns.
ADAPTIVE_GRID=(--workloads=em3d,mcf,mst --controllers=static,aimd,capped)
PHASE_BOUND_GRID=(--workloads=em3d,em3d-late,mcf,mst
                  --controllers=capped,phase-capped)
PROVENANCE_GRID=(--workloads=em3d,mcf,mst --provenance)

# Prints a banner naming the command line, then runs it.
run_banner() {
  echo "=============================================================="
  echo "== $*"
  echo "=============================================================="
  "$@"
}

cmake -B build -S .
cmake --build build --parallel "$THREADS"

ctest --test-dir build 2>&1 | tee test_output.txt

{
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    # spf_sweep's argument-free em3d ladder is a subset of the full-grid run
    # below.
    case "$b" in *.cmake|*/spf_sweep) continue ;; esac
    # micro_substrate is a google-benchmark binary: it rejects unknown flags,
    # so it runs argument-free; everything else takes the bench_common knobs.
    # perf_smoke additionally writes the hot-path throughput record
    # (BENCH_perf.json at the repo root) consumed by docs/simulator.md.
    args="--threads=$THREADS"
    case "$b" in
      *micro_substrate) args="" ;;
      *perf_smoke) args="--threads=$THREADS --out=BENCH_perf.json" ;;
    esac
    # shellcheck disable=SC2086  # args is one word or empty, splitting intended
    run_banner "$b" $args
    echo
  done
} 2>&1 | tee bench_output.txt

# Validate the perf record against its schema + contracts (required keys,
# telemetry_overhead_pct bounds, zero fused-path record allocations) — the
# same validator ctest runs against the --quick artifact.
if [ -f BENCH_perf.json ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_bench_json.py BENCH_perf.json
fi

# Accumulate this run's perf record — including the telemetry off/on delta
# perf_smoke measures (telemetry_overhead_pct) — into the git-ignored local
# history, one compact JSONL line per reproduction run, so hot-path drift is
# visible across runs on the same machine.
if [ -f BENCH_perf.json ] && command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import datetime
import json

with open("BENCH_perf.json") as f:
    rec = json.load(f)
rec["recorded_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
    timespec="seconds")
with open("BENCH_history.jsonl", "a") as f:
    f.write(json.dumps(rec, sort_keys=True) + "\n")
print("appended BENCH_perf.json -> BENCH_history.jsonl")
EOF
  # Guard the trendline: flag key throughput metrics that dropped >15% below
  # the trailing median of prior full-scale runs. A regression (exit 2) is a
  # loud warning, not a failure — a loaded host can legitimately dent a run;
  # a structural error (exit 1) in the history still aborts.
  python3 scripts/check_perf_history.py BENCH_history.jsonl || {
    status=$?
    if [ "$status" -eq 2 ]; then
      echo "WARNING: perf history regression flagged (see above)" >&2
    else
      exit "$status"
    fi
  }
fi

# The full cross-product in one orchestrated run: every workload × a ladder
# of distances around each plane's bound × both RP regimes, JSONL artifact
# alongside the table — plus the telemetry artifacts: a deterministic metrics
# dump and a Perfetto-loadable per-worker timeline of the whole sweep (open
# sweep_trace.json in https://ui.perfetto.dev; see docs/telemetry.md).
run_banner build/bench/spf_sweep --workloads=em3d,mcf,mst --rps=0.5,1.0 \
  --threads="$THREADS" --jsonl=sweep_results.jsonl \
  --metrics-out=sweep_metrics.jsonl --trace-out=sweep_trace.json \
  2>&1 | tee -a bench_output.txt

# Sanity-check the emitted timeline when python3 is around (same validator
# ctest runs against the perf_smoke artifact), and hold the sweep JSONL to
# its per-cell contracts (phase_count >= 1, one trajectory entry per
# interval, re-clamped distances at or under their phase bounds).
if [ -f sweep_trace.json ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace_json.py sweep_trace.json
fi
if [ -f sweep_results.jsonl ] && command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_bench_json.py --sweep sweep_results.jsonl
fi

# Runs one figure grid (flags after the first two arguments) with its JSONL,
# metrics and timeline artifacts named after the figure, then validates the
# timeline and holds the JSONL to the contracts of the given
# check_bench_json.py mode.
run_figure() {
  local name=$1 mode=$2
  shift 2
  run_banner build/bench/spf_sweep "$@" --threads="$THREADS" \
    --jsonl="$name.jsonl" --metrics-out="${name}_metrics.jsonl" \
    --trace-out="${name}_trace.json" 2>&1 | tee -a bench_output.txt
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/check_trace_json.py "${name}_trace.json"
    python3 scripts/check_bench_json.py "$mode" "$name.jsonl"
  fi
}

# Adaptive-vs-static controller ablation: every workload × the distance
# ladder × {static, adaptive-AIMD, adaptive-capped}, JSONL carrying the
# per-cell distance trajectories, plus a timeline with the per-interval
# adaptive.distance counter track.
run_figure fig_adaptive --sweep "${ADAPTIVE_GRID[@]}"

# Whole-run vs per-phase capping ablation: adaptive-capped against
# adaptive-phase-capped on every workload plus the late-tight-phase em3d
# fixture, JSONL carrying the per-cell phase bound schedules and re-clamp
# events.
run_figure fig_phase_bound --sweep "${PHASE_BOUND_GRID[@]}"

# Prefetch-lifecycle provenance: the fate-mix and timeliness figure (what
# happened to every helper/hardware prefetch fill across the distance
# ladder), JSONL carrying the per-cell fate counts, fill→first-use and
# victim reuse-distance histograms, and per-set pollution heatmaps, held to
# the lifecycle accounting contracts (docs/provenance.md).
run_figure fig_provenance --provenance "${PROVENANCE_GRID[@]}"

if [[ "${1:-}" == "--paper" ]]; then
  {
    for b in table2_benchmarks fig2_em3d_sweep fig4_em3d_behavior; do
      run_banner "build/bench/$b" --scale=paper --threads="$THREADS"
      echo
    done
    run_banner build/bench/spf_sweep "${ADAPTIVE_GRID[@]}" --scale=paper \
      --threads="$THREADS"
    echo
    run_banner build/bench/spf_sweep "${PHASE_BOUND_GRID[@]}" --scale=paper \
      --threads="$THREADS"
    echo
    run_banner build/bench/spf_sweep "${PROVENANCE_GRID[@]}" --scale=paper \
      --threads="$THREADS"
    echo
  } 2>&1 | tee bench_output_paper.txt
fi
