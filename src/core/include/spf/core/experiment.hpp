// SP experiment orchestration: run a workload's hot-loop trace through the
// CMP simulator twice — original (main thread alone) and with the SP helper —
// and report the paper's evaluation quantities:
//
//   Figure 2:    runtime, memory accesses, hot-loop L2 misses, each
//                normalized to the original run;
//   Figures 4-6: change of totally hits / totally misses / partially hits as
//                a percentage of the original run's memory accesses, plus
//                normalized runtime.
//
// One documented surface, one implementation: every run recipe — original,
// SP, comparison, and the adaptive interval replay
// (spf/core/adaptive.hpp) — lives on spf::ExperimentContext
// (spf/core/experiment_context.hpp). The free functions below (and
// run_adaptive_experiment) are thin wrappers that construct a short-lived
// private context per call, so there is no second code path to drift from
// the context members.
//
// Re-entrancy: the free functions are pure functions of their arguments —
// the throwaway context touches no global mutable state — so concurrent
// calls from different threads are safe; a shared TraceBuffer is only ever
// read. The spf::orchestrate sweep engine relies on this;
// tests/orchestrate_test.cpp runs under -DSPF_SANITIZE=thread to keep it
// true.
//
// Hot callers that run many experiments should lease a reusable context
// instead — ExperimentContextPool under sweep fan-out, or one
// ExperimentContext for a single-threaded loop: identical results, no
// per-call construction.
#pragma once

#include <cstdint>
#include <string>

#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/sim/config.hpp"
#include "spf/sim/result.hpp"
#include "spf/trace/trace.hpp"

namespace spf {

struct SpExperimentConfig {
  SimConfig sim{};
  SpParams params{};
  HelperGenOptions helper{};
  /// Hardware prefetchers in the *original* (baseline) run. The paper's
  /// normalization baseline is the unmodified program on the real machine,
  /// prefetchers on.
  bool baseline_hw_prefetch = true;
};

/// One run's headline numbers (main thread's view).
struct SpRunSummary {
  Cycle runtime = 0;
  std::uint64_t l2_lookups = 0;
  std::uint64_t totally_hits = 0;
  std::uint64_t partially_hits = 0;
  std::uint64_t totally_misses = 0;
  PollutionStats pollution;
  std::uint64_t memory_requests = 0;
  std::uint64_t helper_finish = 0;
  /// Prefetch-lifecycle fate attribution; enabled only when the run's
  /// SimConfig::provenance was set (spf/sim/pollution.hpp).
  ProvenanceSummary provenance;

  [[nodiscard]] std::uint64_t memory_accesses() const noexcept {
    return totally_misses + partially_hits;
  }
  static SpRunSummary from(const SimResult& result);
};

struct SpComparison {
  SpRunSummary original;
  SpRunSummary sp;

  // Figure 2 series.
  [[nodiscard]] double norm_runtime() const;
  [[nodiscard]] double norm_memory_accesses() const;
  [[nodiscard]] double norm_hot_misses() const;  // totally misses ratio

  // Figure 4/5/6(a) series: deltas as fractions of the original run's memory
  // accesses (positive = increase under SP).
  [[nodiscard]] double delta_totally_hit() const;
  [[nodiscard]] double delta_totally_miss() const;
  [[nodiscard]] double delta_partially_hit() const;

  [[nodiscard]] std::string to_string() const;
};

// Convenience wrappers (one throwaway ExperimentContext per call — see the
// header note; hot callers lease from ExperimentContextPool instead).

/// Runs original and SP configurations of `main_trace` and returns both
/// summaries. The helper stream is synthesized from the trace with
/// config.params and staggered by round-level synchronization. Identical to
/// ExperimentContext::run_comparison.
[[nodiscard]] SpComparison run_sp_experiment(const TraceBuffer& main_trace,
                                             const SpExperimentConfig& config);

/// Just the SP run (no baseline) — for sweeps that share one baseline.
/// Identical to ExperimentContext::run_sp_once.
[[nodiscard]] SpRunSummary run_sp_once(const TraceBuffer& main_trace,
                                       const SpExperimentConfig& config);

/// Just the original run. Identical to ExperimentContext::run_original.
[[nodiscard]] SpRunSummary run_original(const TraceBuffer& main_trace,
                                        const SpExperimentConfig& config);

}  // namespace spf
