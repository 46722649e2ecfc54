// Simulation results: per-core access classification in the paper's taxonomy
// plus shared-structure statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/mem/types.hpp"
#include "spf/memsys/memory.hpp"
#include "spf/mshr/mshr.hpp"
#include "spf/sim/occupancy.hpp"
#include "spf/sim/pollution.hpp"

namespace spf {

/// Per-core classification of demand traffic (paper §V.B):
/// memory accesses = totally_misses + partially_hits.
struct ThreadMetrics {
  /// Demand (non-prefetch-kind) accesses the core performed.
  std::uint64_t demand_accesses = 0;
  std::uint64_t l1_hits = 0;
  /// Demand L2 lookups (L1 misses).
  std::uint64_t l2_lookups = 0;
  /// Line valid in L2 at access time.
  std::uint64_t totally_hits = 0;
  /// Merged into an outstanding fill (issued, not yet serviced).
  std::uint64_t partially_hits = 0;
  /// Full memory round trip.
  std::uint64_t totally_misses = 0;
  /// Software prefetch-kind records issued / dropped (MSHR full or already
  /// cached).
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetches_elided = 0;
  std::uint64_t prefetches_dropped = 0;
  /// Cycles this core spent waiting on fills.
  Cycle stall_cycles = 0;
  /// Core-local time when its stream ended.
  Cycle finish_time = 0;

  /// The paper's "memory access" metric: demanded data missing in L2.
  [[nodiscard]] std::uint64_t memory_accesses() const noexcept {
    return totally_misses + partially_hits;
  }
  [[nodiscard]] std::string to_string() const;
};

struct SimResult {
  std::vector<ThreadMetrics> per_core;
  PollutionStats pollution;
  CacheStats l2;
  MshrStats mshr;
  MemoryStats memory;
  /// Hardware-prefetch lines actually issued to memory.
  std::uint64_t hw_prefetches_issued = 0;
  /// Periodic L2 composition snapshots (empty unless
  /// SimConfig::occupancy_sample_interval is set).
  OccupancySeries occupancy;
  /// Sets with at least one pollution event, and the 16 worst offenders
  /// (set index, event count) in descending order.
  std::uint64_t polluted_set_count = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> top_polluted_sets;
  /// Prefetch-lifecycle fate attribution (enabled == false unless
  /// SimConfig::provenance was set for the run).
  ProvenanceSummary provenance;
  /// Time at which the last core finished.
  Cycle makespan = 0;

  /// Core 0 is the main computation thread by convention.
  [[nodiscard]] const ThreadMetrics& main() const { return per_core.at(0); }
  [[nodiscard]] std::string to_string() const;
};

}  // namespace spf
