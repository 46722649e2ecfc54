#!/usr/bin/env bash
# Full reproduction run: build, test, and regenerate every table/figure and
# ablation. Outputs land in test_output.txt / bench_output.txt at the repo
# root. Pass --paper to ALSO rerun the headline experiments at Table II input
# sizes (adds ~10-30 minutes).
#
# Sweep-shaped harnesses fan their cells out over the spf::orchestrate
# engine; SPF_THREADS caps the worker count (default: all cores, which still
# emits bit-identical artifacts — see docs/orchestrator.md). Every sweep grid
# (the full cross-product and the distance-ladder, helper-kind, adaptive,
# phase-bound and provenance figures) is one spf_sweep command line below,
# and each runs once. Each stage (build, test, bench, paper) prints its wall
# and CPU time (user + sys, children included) on stderr when it ends.
set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="${SPF_THREADS:-$(nproc)}"

# The figure grids, shared by the CI-scale runs and the --paper reruns.
# Figs. 2, 4 and 5 are the RP 0.5 rows of the full grid: em3d for Figs. 2 and
# 4, mcf for Fig. 5. The paper stops MST's sweep (Fig. 6) far below MST's
# bound, so Fig. 6 runs at explicit distances.
FULL_GRID=(--workloads=em3d,mcf,mst --rps=0.5,1.0)
FIG2_FIG4_GRID=(--workloads=em3d)
FIG6_GRID=(--workloads=mst --distances=5,10,20,30,50,70,100,200)
HELPER_KIND_GRID=(--workloads=em3d --helpers=blocking,prefetch)
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

# Runs the function named $2 as stage $1, then prints the stage's times.
stage() {
  local TIMEFORMAT="== stage $1: %R s wall, %U s user, %S s sys"
  time "$2"
}

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

build_stage() {
  cmake -B build -S .
  cmake --build build --parallel "$THREADS"
}

test_stage() {
  ctest --test-dir build 2>&1 | tee test_output.txt
}

bench_stage() {
  # The bench targets CMake declares, one name per line. Listing
  # build/bench/ instead would also run the stale binary that a deleted
  # target leaves behind in an existing build tree.
  local manifest=build/bench/bench_targets.txt names
  if [ ! -f "$manifest" ]; then
    echo "missing $manifest (configure with -DSPF_BUILD_BENCH=ON)" >&2
    exit 1
  fi
  mapfile -t names <"$manifest"

  {
    for name in "${names[@]}"; do
      # micro_substrate is a google-benchmark binary: it rejects unknown
      # flags, so it runs argument-free; everything else takes the
      # bench_common knobs. perf_smoke additionally writes the hot-path
      # throughput record (BENCH_perf.json at the repo root) consumed by
      # docs/simulator.md. spf_sweep's argument-free em3d ladder is a subset
      # of the full-grid run below.
      args="--threads=$THREADS"
      case "$name" in
        spf_sweep) continue ;;
        micro_substrate) args="" ;;
        perf_smoke) args="--threads=$THREADS --out=BENCH_perf.json" ;;
      esac
      # shellcheck disable=SC2086  # args is one word or empty, splitting intended
      run_banner "build/bench/$name" $args
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
  # history, one compact JSONL line per reproduction run, so hot-path drift
  # is visible across runs on the same machine.
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
    # Guard the trendline: flag key throughput metrics that dropped >15%
    # below the trailing median of prior full-scale runs. A regression
    # (exit 2) is a loud warning, not a failure — a loaded host can
    # legitimately dent a run; a structural error (exit 1) in the history
    # still aborts.
    python3 scripts/check_perf_history.py BENCH_history.jsonl || {
      status=$?
      if [ "$status" -eq 2 ]; then
        echo "WARNING: perf history regression flagged (see above)" >&2
      else
        exit "$status"
      fi
    }
  fi

  # The full cross-product in one orchestrated run: every workload × a
  # ladder of distances around each plane's bound × both RP regimes, JSONL
  # artifact alongside the table — plus the telemetry artifacts: a
  # deterministic metrics dump and a Perfetto-loadable per-worker timeline
  # of the whole sweep (open sweep_trace.json in https://ui.perfetto.dev;
  # see docs/telemetry.md). Its RP 0.5 rows are Figs. 2, 4 and 5.
  run_banner build/bench/spf_sweep "${FULL_GRID[@]}" \
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

  # Fig. 6: MST behavior change and normalized runtime at the paper's
  # distances.
  run_figure fig6_mst --sweep "${FIG6_GRID[@]}"

  # Blocking-load helper (the paper's) vs prefetch-instruction helper over
  # the em3d ladder: the self-throttling helper wins at every distance.
  run_figure fig_helper_kind --sweep "${HELPER_KIND_GRID[@]}"

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
  # victim reuse-distance histograms, and per-set pollution heatmaps, held
  # to the lifecycle accounting contracts (docs/provenance.md).
  run_figure fig_provenance --provenance "${PROVENANCE_GRID[@]}"
}

# The headline experiments at Table II input sizes: one em3d ladder holds
# Figs. 2 and 4.
paper_stage() {
  {
    run_banner build/bench/table2_benchmarks --scale=paper \
      --threads="$THREADS"
    echo
    run_banner build/bench/spf_sweep "${FIG2_FIG4_GRID[@]}" --scale=paper \
      --threads="$THREADS"
    echo
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
}

stage build build_stage
stage test test_stage
stage bench bench_stage
if [[ "${1:-}" == "--paper" ]]; then
  stage paper paper_stage
fi
