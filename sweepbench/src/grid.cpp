#include "grid.hpp"

#include "spf/common/rng.hpp"
#include "spf/orchestrate/workload_specs.hpp"

namespace sweepbench {

using spf::orchestrate::ControllerKind;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "ladder") return Workload::kLadder;
  if (name == "adaptive") return Workload::kAdaptive;
  if (name == "fates") return Workload::kFates;
  return std::nullopt;
}

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::kLadder: return "ladder";
    case Workload::kAdaptive: return "adaptive";
    case Workload::kFates: return "fates";
  }
  return "?";
}

Inputs make_inputs(std::uint64_t seed, bool smoke, unsigned set) {
  Inputs in;
  // CI scale, as bench/bench_common.hpp defines it for every bench driver.
  in.em3d.nodes = 20000;
  in.em3d.arity = 64;
  in.em3d.passes = 1;
  in.mcf.nodes = 8000;
  in.mcf.arcs = 48000;
  in.mcf.passes = 3;
  in.mst.vertices = 1200;
  in.mst.degree = 64;
  in.mst.buckets = 128;
  if (smoke) {
    // perf_smoke --quick's inputs: small enough that every workload plus the
    // traced run finishes in seconds, paired with a small L2 so the traces
    // still saturate cache sets (the distance-bound analysis needs that).
    in.em3d.nodes = 2000;
    in.em3d.arity = 8;
    in.mcf.nodes = 1000;
    in.mcf.arcs = 6000;
    in.mcf.passes = 1;
    in.mst.vertices = 400;
    in.mst.degree = 8;
    in.mst.buckets = 32;
    in.l2 = spf::CacheGeometry(64 << 10, 8, 64);
  }
  spf::SplitMix64 mix(seed);
  for (unsigned i = 0; i < 3 * set; ++i) mix.next();
  in.em3d.seed = mix.next();
  in.mcf.seed = mix.next();
  in.mst.seed = mix.next();
  return in;
}

spf::orchestrate::SweepSpec make_spec(Workload w, const Inputs& inputs) {
  spf::orchestrate::SweepSpec spec;
  spec.workloads = {spf::orchestrate::em3d_spec(inputs.em3d),
                    spf::orchestrate::mcf_spec(inputs.mcf),
                    spf::orchestrate::mst_spec(inputs.mst)};
  spec.geometries = {inputs.l2};
  switch (w) {
    case Workload::kLadder:
      break;  // spec defaults: auto ladder, RP 0.5, blocking-load, static
    case Workload::kAdaptive:
      // Explicit distances apply to every plane: 8 and 64 sit on or below
      // em3d's ladder bottom and bound, 512 in the lower half of the mcf and
      // mst ladders. The 1024 policy ceiling is bench/fig_adaptive's.
      spec.distances = {8, 64, 512};
      spec.controllers = {ControllerKind::kAdaptiveCapped,
                          ControllerKind::kAdaptivePhaseCapped};
      spec.adaptive.max_distance = 1024;
      break;
    case Workload::kFates:
      spec.provenance = true;
      break;
  }
  return spec;
}

}  // namespace sweepbench
