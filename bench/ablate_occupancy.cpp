// Ablation: shared-cache occupancy composition vs prefetch distance —
// measuring §III.A's argument directly: "the bigger the prefetch distance,
// the larger the active data set since the prefetched data must be kept
// longer time in shared cache".
#include <iostream>

#include "bench_common.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  const bench::Scale scale = bench::parse_scale(flags);
  bench::fail_on_unknown_flags(flags);

  Em3dWorkload workload(bench::em3d_config(scale));
  const TraceBuffer trace = workload.emit_trace();
  const DistanceBound bound = estimate_distance_bound(
      trace, workload.invocation_starts(), scale.l2);

  std::cout << "== Ablation: L2 occupancy composition vs distance (EM3D) ==\n"
            << "L2 " << scale.l2.to_string() << ", " << bound.to_string()
            << "\n\n";

  Table t({"distance", "vs bound", "mean unused-prefetch share (%)",
           "peak unused-prefetch lines", "norm runtime"});
  const std::uint64_t l2_lines = scale.l2.num_sets() * scale.l2.ways();

  SimConfig sim;
  sim.l2 = scale.l2;
  sim.occupancy_sample_interval = 200000;

  // Baseline runtime for normalization.
  CmpSimulator base_sim(sim);
  const SimResult baseline = base_sim.run({CoreStream{.trace = &trace}});

  for (std::uint32_t d : orchestrate::distance_ladder(bound.upper_limit)) {
    const SpParams params = SpParams::from_distance_rp(d, 0.5);
    const TraceBuffer helper = make_helper_trace(trace, params);
    CmpSimulator simulator(sim);
    const SimResult r = simulator.run({
        CoreStream{.trace = &trace},
        CoreStream{.trace = &helper,
                   .origin = FillOrigin::kHelper,
                   .sync = RoundSync{.leader = 0, .round_iters = params.round()}},
    });
    t.row()
        .add(static_cast<std::uint64_t>(d))
        .add(bound.allows(d) ? "within" : "beyond")
        .add(100.0 * r.occupancy.mean_unused_prefetch_fraction(), 2)
        .add(r.occupancy.peak_unused_prefetch())
        .add(static_cast<double>(r.per_core[0].finish_time) /
                 static_cast<double>(baseline.per_core[0].finish_time),
             3);
    std::cerr << ".";
  }
  std::cerr << "\n";
  bench::emit(t, scale);

  std::cout << "\n(L2 holds " << l2_lines << " lines total.)\n"
            << "Shape check: the unused-prefetch share of the shared cache "
               "grows with distance —\nprefetched data parked longer is "
               "exactly the active-data-set inflation the paper's\nSet "
               "Affinity bound exists to cap.\n";
  return 0;
}
