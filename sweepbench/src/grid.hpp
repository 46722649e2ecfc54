// The benchmark's three workloads as sweep grids over seed-derived inputs.
//
// Every workload sweeps the same three traces (em3d, mcf, mst) on one L2
// geometry; they differ in which layers of the simulator the grid exercises
// (see sweepbench/README.md for why each was chosen).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "spf/mem/geometry.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"

namespace sweepbench {

enum class Workload : std::uint8_t {
  kLadder,    // static SP over the automatic 9-distance ladder
  kAdaptive,  // adaptive-capped / adaptive-phase-capped controllers
  kFates      // the ladder grid with provenance (fill fates) on
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload w) noexcept;

/// The generated inputs: three trace configs and the shared L2 geometry.
struct Inputs {
  spf::Em3dConfig em3d;
  spf::McfConfig mcf;
  spf::MstConfig mst;
  spf::CacheGeometry l2 = spf::CacheGeometry(1 << 20, 16, 64);
};

/// Input sets an end-to-end run cycles its sweeps over. One set's host cost
/// depends on its traces (their Set-Affinity bounds place the ladder), so
/// timing a fixed number of sets per seed keeps that from setting the figure.
inline constexpr unsigned kInputSets = 4;

/// CI-scale inputs (the repo's bench drivers' default scale) or, with
/// `smoke`, tiny ones for the benchmark's own tests. The three trace seeds
/// of input set `set` are the SplitMix64 stream of `seed`, draws 3*set to
/// 3*set+2; every other field is fixed.
[[nodiscard]] Inputs make_inputs(std::uint64_t seed, bool smoke,
                                 unsigned set);

/// The sweep grid a workload runs over `inputs`.
[[nodiscard]] spf::orchestrate::SweepSpec make_spec(Workload w,
                                                    const Inputs& inputs);

}  // namespace sweepbench
