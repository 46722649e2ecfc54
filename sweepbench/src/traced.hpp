// The traced run: the end-to-end sweep's cells driven through each layer's
// public entry point, with the benchmark's own spans around every call.
//
// run_sweep interleaves its layers inside one call, so it cannot say where
// its time goes. The traced pass re-drives the same grid phase by phase —
// trace emission (WorkloadSpec::make), the per-plane Set-Affinity analysis
// (estimate_phase_bounds) and baseline (ExperimentContext::run_original),
// then every cell (run_sp_once / run_adaptive) — on the same worker count,
// and charges each call's thread CPU time to its layer. Its per-cell results
// must equal the sweep's; that comparison is what keeps this file's copy of
// the sweep's cell recipe honest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/orchestrate/sweep.hpp"

namespace sweepbench {

/// Thread CPU seconds spent inside each layer's entry points.
struct LayerSeconds {
  double emit = 0.0;         // workloads: WorkloadSpec::make
  double phase_bound = 0.0;  // profile: estimate_phase_bounds
  double baseline = 0.0;     // core: ExperimentContext::run_original
  double sp = 0.0;           // core: ExperimentContext::run_sp_once
  double adaptive = 0.0;     // core: ExperimentContext::run_adaptive

  [[nodiscard]] double total() const noexcept {
    return emit + phase_bound + baseline + sp + adaptive;
  }
};

/// One workload × geometry plane as the traced pass computed it.
struct TracedPlane {
  std::shared_ptr<const spf::TraceSource> source;
  spf::PhasedDistanceBound bound;
  spf::SpRunSummary baseline;
};

struct TracedPass {
  /// The driven cells in grid order, with bound_upper / phase_count taken
  /// from the traced analysis — comparable field for field with the
  /// end-to-end sweep's result.
  spf::orchestrate::SweepResult result;
  std::vector<TracedPlane> planes;  // index = workload * geometries + geometry
  LayerSeconds layers;
  double cpu_s = 0.0;  // process CPU time of the whole pass
  std::uint64_t emitted_records = 0;  // records of the emitted traces
  std::uint64_t sp_runs = 0;
  std::uint64_t sp_records = 0;  // main-trace records fed to SP runs
  std::uint64_t adaptive_records = 0;
  /// Bytes the leased contexts' arenas hold, summed over distinct contexts.
  std::uint64_t arena_bytes = 0;
};

/// Drives `cells` — the grid the end-to-end sweep of `spec` expanded — on
/// `threads` workers leasing contexts from `pool`. A failed emission or plane
/// fails its cells, as in run_sweep.
[[nodiscard]] TracedPass run_traced(
    const spf::orchestrate::SweepSpec& spec,
    const std::vector<spf::orchestrate::SweepCell>& cells,
    spf::ExperimentContextPool& pool, unsigned threads);

/// Simulated component counts that SpRunSummary does not carry.
struct Components {
  std::uint64_t runs = 0;
  std::uint64_t l2_fills = 0;
  std::uint64_t l2_evictions = 0;
  std::uint64_t mshr_allocations = 0;
  std::uint64_t mshr_merges = 0;
  std::uint64_t mshr_full_rejections = 0;
  std::uint64_t queue_delay_cycles = 0;
  std::uint64_t hw_prefetches_issued = 0;
  std::uint64_t l1_hits = 0;       // all cores
  std::uint64_t stall_cycles = 0;  // all cores
};

/// One direct CmpSimulator::run per plane baseline and per static cell of
/// `pass`, each checked against the summary the context produced; every
/// mismatch is appended to `problems`.
[[nodiscard]] Components run_components(const spf::orchestrate::SweepSpec& spec,
                                        const TracedPass& pass, unsigned threads,
                                        std::vector<std::string>& problems);

/// Differences between the traced pass's cells and the end-to-end sweep's:
/// artifact bytes and every summary field of every cell.
[[nodiscard]] std::vector<std::string> compare_results(
    const spf::orchestrate::SweepResult& traced,
    const spf::orchestrate::SweepResult& end_to_end);

}  // namespace sweepbench
