// spf_sweep — declarative parallel sweep driver over the SP experiment grid.
//
// Runs a (workload × A_SKI × RP × L2 geometry × helper kind × controller)
// sweep through spf::orchestrate::run_sweep: every cell is one
// original-vs-SP comparison, fanned out over a fixed-size thread pool with
// slot-indexed aggregation, so the emitted table / CSV / JSONL artifacts are
// byte-identical at any --threads value. See docs/orchestrator.md. The
// adaptive-vs-static controller ablation, whole-run vs per-phase capping
// and the prefetch fate mix are command lines of this driver (README.md
// lists them).
//
// Flags (all optional; argument-free = CI-scale EM3D auto-distance sweep):
//   --workloads=em3d,mcf,mst   comma list (default em3d; em3d-late is the
//                              late-tight-phase fixture — reduced-arity
//                              prelude passes, full-arity pressured pass
//                              last — where per-phase capping can relax the
//                              quiet prelude)
//   --distances=1,2,4,8        explicit A_SKI list (default: auto ladder
//                              around each plane's Set-Affinity bound;
//                              adaptive cells start their walk here)
//   --rps=0.5,1.0              prefetch ratios (default 0.5)
//   --geoms=1048576:16:64;...  semicolon list of bytes:ways:line geometries
//                              (default: one geometry from --l2/--assoc/--line)
//   --helpers=blocking,prefetch  helper kinds (default blocking)
//   --controllers=static,aimd,capped,phase-capped  distance-controller axis
//                              (default static): the paper's fixed A_SKI,
//                              the AIMD feedback walk, the walk clamped to
//                              the plane's Set-Affinity bound, and the walk
//                              re-clamped to the active phase's bound at
//                              each interval boundary (docs/adaptive.md)
//   --interval=N               controller observation interval in outer
//                              iterations (default 1000)
//   --max-distance=N           AIMD ceiling before any bound clamp
//                              (default 1024)
//   --warm                     carry simulator cache/MSHR state across
//                              interval boundaries (default off: cold
//                              intervals, the bit-identical reference)
//   --phase-window=N           phase-detection window in outer iterations
//                              (default 64; every plane reports phase_count
//                              in the JSONL)
//   --phase-hysteresis=X       relative EMA shift that opens a new phase
//                              (default 0.5)
//   --provenance               track every prefetch fill's fate (JSONL
//                              `prov_*` fields) and print the fate-mix table
//                              instead of the runtime table
//                              (docs/provenance.md)
//   --jsonl=PATH               also write a JSONL artifact (- = stdout)
//   --threads=N                0 = hardware concurrency, 1 = serial
//   --metrics-out=PATH         telemetry metrics dump (JSONL)
//   --trace-out=PATH           Perfetto/chrome://tracing timeline: one lane
//                              per worker, one slice per cell with
//                              replay/refine/memo child slices
//   --scale=paper, --l2=, --assoc=, --line=, --csv   as in every bench binary
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "spf/orchestrate/sweep.hpp"

namespace {

/// Fate-mix table: one row per cell, fates as percentages of tracked fills.
spf::Table fate_table(const spf::orchestrate::SweepResult& result) {
  using spf::ProvenanceSummary;
  spf::Table t({"workload", "L2", "RP", "A_SKI", "vs bound", "status",
                "tracked", "timely(%)", "late(%)", "evicted(%)",
                "polluting(%)", "resident(%)", "fill_to_use_mean",
                "pollution_rate"});
  for (const auto& c : result.cells) {
    t.row()
        .add(c.cell.workload)
        .add(c.cell.l2.to_string())
        .add(c.cell.rp, 2)
        .add(static_cast<std::uint64_t>(c.cell.distance));
    if (!c.ok) {
      t.add("-").add("failed: " + c.error);
      for (int i = 0; i < 8; ++i) t.add("-");
      continue;
    }
    const ProvenanceSummary& p = c.cmp->sp.provenance;
    const double denom =
        p.tracked_fills == 0 ? 1.0 : static_cast<double>(p.tracked_fills);
    const auto pct = [&](std::uint64_t n) {
      return 100.0 * static_cast<double>(n) / denom;
    };
    t.add(c.cell.distance < c.cell.bound_upper ? "within" : "beyond")
        .add("ok")
        .add(p.tracked_fills)
        .add(pct(p.used_timely), 2)
        .add(pct(p.used_late), 2)
        .add(pct(p.evicted_unused), 2)
        .add(pct(p.polluting), 2)
        .add(pct(p.resident_unused), 2)
        .add(p.fill_to_use_mean(), 1)
        .add(c.cmp->sp.l2_lookups == 0
                 ? 0.0
                 : static_cast<double>(
                       c.cmp->sp.pollution.total_pollution()) /
                       static_cast<double>(c.cmp->sp.l2_lookups),
             4);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  const bench::Scale scale = bench::parse_scale(flags);

  orchestrate::SweepSpec spec;
  for (const auto& name : bench::split(flags.get("workloads", "em3d"), ',')) {
    spec.workloads.push_back(bench::workload_spec(name, scale));
  }
  for (const auto& d : bench::split(flags.get("distances", ""), ',')) {
    std::uint32_t dist = 0;
    if (!bench::parse_u32(d, dist)) {
      bench::usage_error("bad --distances value '" + d +
                         "' (want unsigned int)");
    }
    spec.distances.push_back(dist);
  }
  spec.rps.clear();
  for (const auto& r : bench::split(flags.get("rps", "0.5"), ',')) {
    double rp = 0.0;
    if (!bench::parse_double(r, rp)) {
      bench::usage_error("bad --rps value '" + r + "' (want number)");
    }
    spec.rps.push_back(rp);
  }
  spec.helpers.clear();
  for (const auto& h : bench::split(flags.get("helpers", "blocking"), ',')) {
    if (h == "blocking") {
      spec.helpers.push_back(orchestrate::HelperKind::kBlockingLoad);
    } else if (h == "prefetch") {
      spec.helpers.push_back(orchestrate::HelperKind::kPrefetchInstruction);
    } else {
      bench::usage_error("unknown helper kind '" + h +
                         "' (blocking|prefetch)");
    }
  }
  spec.geometries.clear();
  const std::string geoms = flags.get("geoms", "");
  if (geoms.empty()) {
    spec.geometries.push_back(scale.l2);
  } else {
    for (const auto& g : bench::split(geoms, ';')) {
      const auto parts = bench::split(g, ':');
      std::uint64_t bytes = 0;
      std::uint32_t ways = 0;
      std::uint32_t line = 0;
      if (parts.size() != 3 || !bench::parse_u64(parts[0], bytes) ||
          !bench::parse_u32(parts[1], ways) || !bench::parse_u32(parts[2], line)) {
        bench::usage_error("bad geometry '" + g + "' (want bytes:ways:line)");
      }
      spec.geometries.emplace_back(bytes, ways, line);
    }
  }
  spec.controllers.clear();
  for (const auto& c : bench::split(flags.get("controllers", "static"), ',')) {
    if (c == "static") {
      spec.controllers.push_back(orchestrate::ControllerKind::kStatic);
    } else if (c == "aimd") {
      spec.controllers.push_back(orchestrate::ControllerKind::kAdaptiveAimd);
    } else if (c == "capped") {
      spec.controllers.push_back(orchestrate::ControllerKind::kAdaptiveCapped);
    } else if (c == "phase-capped") {
      spec.controllers.push_back(
          orchestrate::ControllerKind::kAdaptivePhaseCapped);
    } else {
      bench::usage_error("unknown controller '" + c +
                         "' (static|aimd|capped|phase-capped)");
    }
  }
  spec.adaptive.interval_iters = static_cast<std::uint32_t>(
      bench::require_uint(flags, "interval", 1000));
  spec.adaptive.max_distance = static_cast<std::uint32_t>(
      bench::require_uint(flags, "max-distance", 1024));
  spec.adaptive.warm_intervals = flags.get_bool("warm", false);
  spec.phase.window_iters = static_cast<std::uint32_t>(
      bench::require_uint(flags, "phase-window", spec.phase.window_iters));
  spec.phase.hysteresis =
      bench::require_double(flags, "phase-hysteresis", spec.phase.hysteresis);
  spec.provenance = bench::require_bool(flags, "provenance", false);
  const std::string jsonl_path = flags.get("jsonl", "");
  // Constructed before the unknown-flag check: the sink consumes
  // --metrics-out=/--trace-out= and installs the telemetry session the sweep
  // records into. Artifacts are written when it goes out of scope.
  bench::TelemetrySink telemetry_sink(flags, scale, "spf_sweep");
  bench::fail_on_unknown_flags(flags);

  // Every structural flag mistake funnels through the spec's own validator,
  // so the CLI and library agree on what a runnable grid is (usage = exit 2).
  if (const std::string problem = spec.validate(); !problem.empty()) {
    std::cerr << "invalid sweep: " << problem << "\n";
    return 2;
  }

  // Open the artifact before the (potentially long) sweep so a bad path
  // fails in milliseconds, not after the last cell.
  std::ofstream jsonl_file;
  if (!jsonl_path.empty() && jsonl_path != "-") {
    jsonl_file.open(jsonl_path);
    if (!jsonl_file) {
      std::cerr << "cannot open " << jsonl_path << "\n";
      return 1;
    }
  }

  orchestrate::SweepOptions opts;
  opts.threads = scale.threads;
  opts.progress = orchestrate::stderr_progress("  cells");
  const orchestrate::SweepResult result = orchestrate::run_sweep(spec, opts);

  if (jsonl_path == "-") {
    result.write_jsonl(std::cout);
  } else {
    if (jsonl_file.is_open()) result.write_jsonl(jsonl_file);
    std::cout << "== spf_sweep: " << result.cells.size() << " cells ("
              << result.failed_count() << " failed) ==\n\n";
    bench::emit(spec.provenance ? fate_table(result) : result.to_table(),
                scale);
  }
  return result.failed_count() == 0 ? 0 : 1;
}
