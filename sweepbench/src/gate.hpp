// Output checks and model-level totals over one sweep result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spf/core/adaptive.hpp"
#include "spf/core/experiment.hpp"
#include "spf/orchestrate/sweep.hpp"

namespace sweepbench {

/// FNV-1a 64-bit hash of `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view bytes);

/// Every violation of the output contract in `result`; empty when correct:
///   - every cell is ok;
///   - every summary's totally + partially hits + totally misses equals its
///     demand L2 lookups (paper §V.B classes partition the lookups);
///   - with `provenance`, every summary tracked fates and the five fates
///     partition its tracked fills;
///   - every adaptive cell records one trajectory entry per interval, each at
///     or under the cap active in that interval (`policy` gives the
///     controller's floor for the phase-capped re-clamp rule).
[[nodiscard]] std::vector<std::string> check_sweep(
    const spf::orchestrate::SweepResult& result,
    const spf::AdaptiveConfig& policy, bool provenance);

/// Deterministic totals over the ok cells of a sweep (simulated, not host).
struct SimTotals {
  std::uint64_t cells = 0;
  double norm_runtime_gmean = 0.0;  // geometric mean of SP ÷ baseline runtime
  double pollution_rate = 0.0;      // mean of per-cell pollution ÷ lookups
  // Sums over the SP (static or adaptive-aggregate) runs.
  std::uint64_t sp_cycles = 0;
  std::uint64_t l2_lookups = 0;
  std::uint64_t totally_hits = 0;
  std::uint64_t partially_hits = 0;
  std::uint64_t totally_misses = 0;
  std::uint64_t memory_requests = 0;
  std::uint64_t pollution_case1 = 0;
  std::uint64_t pollution_case2 = 0;
  std::uint64_t pollution_case3 = 0;
  /// The cells' baseline totally-misses (one baseline per cell, repeated).
  std::uint64_t baseline_totally_misses = 0;
  // Fill fates summed over SP runs (zero unless provenance was on).
  std::uint64_t fills_tracked = 0;
  std::uint64_t used_timely = 0;
  std::uint64_t used_late = 0;
  std::uint64_t evicted_unused = 0;
  std::uint64_t polluting = 0;
  // Adaptive cells only.
  std::uint64_t adaptive_cells = 0;
  std::uint64_t adaptive_intervals = 0;
  double adaptive_mean_distance = 0.0;  // mean over cells of the walk's mean
  std::uint64_t adaptive_reclamps = 0;
};

[[nodiscard]] SimTotals sim_totals(const spf::orchestrate::SweepResult& result);

/// Every recorded field of a run summary, in a fixed order, for exact
/// comparison of two runs of one cell.
[[nodiscard]] std::vector<std::uint64_t> summary_fields(
    const spf::SpRunSummary& s);

}  // namespace sweepbench
