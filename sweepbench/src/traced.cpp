#include "traced.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "clocks.hpp"
#include "gate.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/orchestrate/pool.hpp"
#include "spf/sim/simulator.hpp"

namespace sweepbench {
namespace {

using spf::orchestrate::CellResult;
using spf::orchestrate::ControllerKind;
using spf::orchestrate::HelperKind;
using spf::orchestrate::SweepCell;
using spf::orchestrate::SweepSpec;

// The three recipes below restate what run_sweep does for a plane baseline,
// a static cell and an adaptive cell (src/orchestrate/sweep.cpp). They are
// copies on purpose: the traced pass must call the layers itself, and
// compare_results fails the run the moment a copy drifts.

spf::SpExperimentConfig plane_config(const SweepSpec& spec,
                                     const spf::CacheGeometry& l2) {
  spf::SpExperimentConfig cfg;
  cfg.sim.l2 = l2;
  cfg.sim.provenance = spec.provenance;
  cfg.baseline_hw_prefetch = spec.baseline_hw_prefetch;
  return cfg;
}

spf::SpExperimentConfig cell_config(const SweepSpec& spec,
                                    const SweepCell& cell) {
  spf::SpExperimentConfig cfg = plane_config(spec, cell.l2);
  cfg.helper.use_prefetch_instructions =
      cell.helper == HelperKind::kPrefetchInstruction;
  cfg.helper.helper_compute_gap = spec.helper_compute_gap;
  if (cell.controller == ControllerKind::kStatic) {
    cfg.params = spf::SpParams::from_distance_rp(cell.distance, cell.rp);
  }
  return cfg;
}

spf::AdaptiveConfig adaptive_config(const SweepSpec& spec,
                                    const SweepCell& cell,
                                    const spf::PhasedDistanceBound& bound) {
  spf::AdaptiveConfig acfg = spec.adaptive;
  acfg.initial_distance = cell.distance;
  acfg.rp = cell.rp;
  const std::uint32_t upper = bound.whole.upper_limit;
  if (cell.controller == ControllerKind::kAdaptiveCapped && upper > 0) {
    acfg.max_distance = std::max(acfg.min_distance,
                                 std::min(acfg.max_distance, upper));
  }
  if (cell.controller == ControllerKind::kAdaptivePhaseCapped) {
    for (const spf::PhaseDistanceBound& ph : bound.phases) {
      acfg.phase_caps.push_back(
          spf::PhaseDistanceCap{ph.begin_iter, ph.upper_limit});
    }
  }
  return acfg;
}

spf::orchestrate::AdaptiveCellStats cell_stats(spf::AdaptiveRunResult run,
                                               spf::AdaptiveConfig acfg) {
  spf::orchestrate::AdaptiveCellStats s;
  s.final_distance = run.final_distance();
  s.mean_distance = run.mean_distance();
  s.trajectory = std::move(run.distance_trajectory);
  s.intervals = run.intervals;
  s.increases = run.increases;
  s.decreases = run.decreases;
  s.distance_cap = acfg.max_distance;
  s.phase_caps = std::move(acfg.phase_caps);
  s.reclamps = std::move(run.reclamps);
  return s;
}

std::size_t plane_of(const SweepSpec& spec, const SweepCell& cell) {
  std::size_t w = 0;
  while (w < spec.workloads.size() && spec.workloads[w].name != cell.workload) {
    ++w;
  }
  std::size_t g = 0;
  while (g < spec.geometries.size() && !(spec.geometries[g] == cell.l2)) ++g;
  if (w == spec.workloads.size() || g == spec.geometries.size()) {
    throw std::logic_error("cell " + std::to_string(cell.id) +
                           " is not in the sweep spec's grid");
  }
  return w * spec.geometries.size() + g;
}

void add_components(Components& into, const spf::SimResult& r) {
  ++into.runs;
  into.l2_fills += r.l2.fills;
  into.l2_evictions += r.l2.evictions;
  into.mshr_allocations += r.mshr.allocations;
  into.mshr_merges += r.mshr.merges;
  into.mshr_full_rejections += r.mshr.full_rejections;
  into.queue_delay_cycles += r.memory.total_queue_delay;
  into.hw_prefetches_issued += r.hw_prefetches_issued;
  for (const spf::ThreadMetrics& core : r.per_core) {
    into.l1_hits += core.l1_hits;
    into.stall_cycles += core.stall_cycles;
  }
}

}  // namespace

TracedPass run_traced(const SweepSpec& spec,
                      const std::vector<SweepCell>& cells,
                      spf::ExperimentContextPool& pool, unsigned threads) {
  TracedPass out;
  const double cpu0 = process_cpu_now();
  const std::size_t n_workloads = spec.workloads.size();
  const std::size_t n_geoms = spec.geometries.size();
  const std::size_t n_planes = n_workloads * n_geoms;
  out.planes.resize(n_planes);

  // Each job writes only its own slots, so no span store needs a lock.
  std::vector<std::shared_ptr<const spf::TraceSource>> sources(n_workloads);
  std::vector<double> emit_cpu(n_workloads, 0.0);
  const auto emitted = spf::orchestrate::run_indexed(
      n_workloads, threads, [&](std::size_t w) {
        const double t0 = thread_cpu_now();
        sources[w] = spec.workloads[w].make();
        emit_cpu[w] = thread_cpu_now() - t0;
        if (!sources[w]) throw std::runtime_error("emitter returned no trace");
      });

  using ArenaSample = std::pair<const spf::ExperimentContext*, std::uint64_t>;
  std::vector<double> bound_cpu(n_planes, 0.0);
  std::vector<double> baseline_cpu(n_planes, 0.0);
  std::vector<ArenaSample> plane_arena(n_planes, ArenaSample{nullptr, 0});
  const auto planes_done = spf::orchestrate::run_indexed(
      n_planes, threads, [&](std::size_t p) {
        const std::size_t w = p / n_geoms;
        if (!emitted[w].ok) throw std::runtime_error(emitted[w].error);
        TracedPlane& plane = out.planes[p];
        plane.source = sources[w];
        const spf::TraceSource& src = *plane.source;
        const spf::CacheGeometry& l2 = spec.geometries[p % n_geoms];
        const double t0 = thread_cpu_now();
        plane.bound = spf::estimate_phase_bounds(
            src.trace, src.invocation_starts, l2, spec.phase);
        const double t1 = thread_cpu_now();
        bound_cpu[p] = t1 - t0;
        const auto lease = pool.acquire();
        const double t2 = thread_cpu_now();
        plane.baseline = lease->run_original(src.trace, plane_config(spec, l2));
        baseline_cpu[p] = thread_cpu_now() - t2;
        plane_arena[p] = {&*lease, lease->arena_bytes()};
      });

  out.result.cells.resize(cells.size());
  std::vector<double> cell_cpu(cells.size(), 0.0);
  std::vector<ArenaSample> cell_arena(cells.size(), ArenaSample{nullptr, 0});
  const auto cells_done = spf::orchestrate::run_indexed(
      cells.size(), threads, [&](std::size_t i) {
        CellResult& r = out.result.cells[i];
        r.cell = cells[i];
        const std::size_t p = plane_of(spec, r.cell);
        if (!planes_done[p].ok) throw std::runtime_error(planes_done[p].error);
        const TracedPlane& plane = out.planes[p];
        r.cell.bound_upper = plane.bound.whole.upper_limit;
        r.cell.phase_count = plane.bound.phase_count();
        const spf::TraceBuffer& trace = plane.source->trace;
        const spf::SpExperimentConfig cfg = cell_config(spec, r.cell);
        spf::SpComparison cmp;
        cmp.original = plane.baseline;
        const auto lease = pool.acquire();
        if (r.cell.controller == ControllerKind::kStatic) {
          const double t0 = thread_cpu_now();
          cmp.sp = lease->run_sp_once(trace, cfg);
          cell_cpu[i] = thread_cpu_now() - t0;
        } else {
          spf::AdaptiveConfig acfg = adaptive_config(spec, r.cell, plane.bound);
          const double t0 = thread_cpu_now();
          spf::AdaptiveRunResult run = lease->run_adaptive(trace, cfg, acfg);
          cell_cpu[i] = thread_cpu_now() - t0;
          cmp.sp = run.aggregate;
          r.adaptive = cell_stats(std::move(run), std::move(acfg));
        }
        cell_arena[i] = {&*lease, lease->arena_bytes()};
        r.cmp = cmp;
      });

  for (std::size_t w = 0; w < n_workloads; ++w) {
    out.layers.emit += emit_cpu[w];
    if (sources[w]) out.emitted_records += sources[w]->trace.size();
  }
  for (std::size_t p = 0; p < n_planes; ++p) {
    out.layers.phase_bound += bound_cpu[p];
    out.layers.baseline += baseline_cpu[p];
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellResult& r = out.result.cells[i];
    r.ok = cells_done[i].ok;
    r.error = cells_done[i].error;
    if (!r.ok) {
      r.cmp.reset();
      r.adaptive.reset();
      continue;
    }
    const std::uint64_t records =
        out.planes[plane_of(spec, r.cell)].source->trace.size();
    if (r.cell.controller == ControllerKind::kStatic) {
      out.layers.sp += cell_cpu[i];
      ++out.sp_runs;
      out.sp_records += records;
    } else {
      out.layers.adaptive += cell_cpu[i];
      out.adaptive_records += records;
    }
  }
  std::map<const spf::ExperimentContext*, std::uint64_t> arena;
  for (const auto* samples : {&plane_arena, &cell_arena}) {
    for (const ArenaSample& s : *samples) {
      if (s.first) arena[s.first] = std::max(arena[s.first], s.second);
    }
  }
  for (const auto& [ctx, bytes] : arena) out.arena_bytes += bytes;
  out.cpu_s = process_cpu_now() - cpu0;
  return out;
}

Components run_components(const SweepSpec& spec, const TracedPass& pass,
                          unsigned threads,
                          std::vector<std::string>& problems) {
  // Jobs: every plane baseline, then every static cell.
  std::vector<std::size_t> static_cells;
  for (std::size_t i = 0; i < pass.result.cells.size(); ++i) {
    const CellResult& c = pass.result.cells[i];
    if (c.ok && c.cell.controller == ControllerKind::kStatic) {
      static_cells.push_back(i);
    }
  }
  const std::size_t n_planes = pass.planes.size();
  std::vector<Components> counts(n_planes + static_cells.size());
  std::vector<std::string> mismatch(counts.size());
  const auto done = spf::orchestrate::run_indexed(
      counts.size(), threads, [&](std::size_t j) {
        std::optional<spf::SimResult> result;
        const spf::SpRunSummary* expected = nullptr;
        if (j < n_planes) {
          const TracedPlane& plane = pass.planes[j];
          if (!plane.source) return;  // failed plane: nothing to re-run
          const spf::SpExperimentConfig cfg =
              plane_config(spec, spec.geometries[j % spec.geometries.size()]);
          spf::SimConfig sim = cfg.sim;
          sim.hw_prefetch = cfg.baseline_hw_prefetch;
          spf::CmpSimulator simulator(sim);
          result = simulator.run({spf::CoreStream{
              .trace = &plane.source->trace,
              .origin = spf::FillOrigin::kDemand,
              .sync = std::nullopt}});
          expected = &plane.baseline;
        } else {
          const CellResult& c = pass.result.cells[static_cells[j - n_planes]];
          const spf::TraceBuffer& trace =
              pass.planes[plane_of(spec, c.cell)].source->trace;
          const spf::SpExperimentConfig cfg = cell_config(spec, c.cell);
          const spf::TraceBuffer helper =
              spf::make_helper_trace(trace, cfg.params, cfg.helper);
          spf::CmpSimulator simulator(cfg.sim);
          result = simulator.run(
              {spf::CoreStream{.trace = &trace,
                               .origin = spf::FillOrigin::kDemand,
                               .sync = std::nullopt},
               spf::CoreStream{
                   .trace = &helper,
                   .origin = spf::FillOrigin::kHelper,
                   .sync = spf::RoundSync{.leader = 0,
                                          .round_iters = cfg.params.round()}}});
          expected = &c.cmp->sp;
        }
        add_components(counts[j], *result);
        if (summary_fields(spf::SpRunSummary::from(*result)) !=
            summary_fields(*expected)) {
          mismatch[j] = "direct simulator run " + std::to_string(j) +
                        " disagrees with the context's summary";
        }
      });
  Components total;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    if (!done[j].ok) {
      problems.push_back("direct simulator run " + std::to_string(j) +
                         " failed: " + done[j].error);
    }
    if (!mismatch[j].empty()) problems.push_back(mismatch[j]);
    const Components& c = counts[j];
    total.runs += c.runs;
    total.l2_fills += c.l2_fills;
    total.l2_evictions += c.l2_evictions;
    total.mshr_allocations += c.mshr_allocations;
    total.mshr_merges += c.mshr_merges;
    total.mshr_full_rejections += c.mshr_full_rejections;
    total.queue_delay_cycles += c.queue_delay_cycles;
    total.hw_prefetches_issued += c.hw_prefetches_issued;
    total.l1_hits += c.l1_hits;
    total.stall_cycles += c.stall_cycles;
  }
  return total;
}

std::vector<std::string> compare_results(
    const spf::orchestrate::SweepResult& traced,
    const spf::orchestrate::SweepResult& end_to_end) {
  std::vector<std::string> problems;
  if (traced.cells.size() != end_to_end.cells.size()) {
    problems.push_back("traced run drove " +
                       std::to_string(traced.cells.size()) + " cells, sweep " +
                       std::to_string(end_to_end.cells.size()));
    return problems;
  }
  if (traced.to_jsonl() != end_to_end.to_jsonl()) {
    problems.push_back("traced run's JSONL artifact differs from the sweep's");
  }
  for (std::size_t i = 0; i < traced.cells.size(); ++i) {
    const CellResult& a = traced.cells[i];
    const CellResult& b = end_to_end.cells[i];
    if (!a.cmp || !b.cmp) continue;  // failed cells are the gate's business
    if (summary_fields(a.cmp->original) != summary_fields(b.cmp->original) ||
        summary_fields(a.cmp->sp) != summary_fields(b.cmp->sp)) {
      problems.push_back("cell " + std::to_string(i) +
                         ": traced summary differs from the sweep's");
    }
  }
  return problems;
}

}  // namespace sweepbench
