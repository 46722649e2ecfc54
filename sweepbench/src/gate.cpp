#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sweepbench {
namespace {

using spf::orchestrate::AdaptiveCellStats;
using spf::orchestrate::CellResult;
using spf::orchestrate::ControllerKind;

std::string where(const CellResult& c) {
  return "cell " + std::to_string(c.cell.id) + " (" + c.cell.workload +
         ", " + spf::orchestrate::to_string(c.cell.controller) +
         ", distance " + std::to_string(c.cell.distance) + ")";
}

void check_summary(const CellResult& c, const char* run,
                   const spf::SpRunSummary& s, bool provenance,
                   std::vector<std::string>& problems) {
  if (s.totally_hits + s.partially_hits + s.totally_misses != s.l2_lookups) {
    problems.push_back(where(c) + ": " + run +
                       " L2 classes do not sum to the lookups");
  }
  if (!provenance) return;
  if (!s.provenance.enabled) {
    problems.push_back(where(c) + ": " + run + " tracked no fill fates");
  } else if (s.provenance.fate_total() != s.provenance.tracked_fills) {
    problems.push_back(where(c) + ": " + run +
                       " fates do not partition the tracked fills");
  }
}

/// Trajectory entries must stay under the ceiling active in their interval:
/// the whole-run cap, and for phase-capped cells additionally the cap of the
/// latest re-clamp event (the first one at interval 0), each event's cap
/// being its phase's bound clamped into [min_distance, distance_cap].
void check_adaptive(const CellResult& c, const AdaptiveCellStats& a,
                    const spf::AdaptiveConfig& policy,
                    std::vector<std::string>& problems) {
  if (a.trajectory.size() != a.intervals) {
    problems.push_back(where(c) + ": trajectory length " +
                       std::to_string(a.trajectory.size()) + " != intervals " +
                       std::to_string(a.intervals));
    return;
  }
  const bool phased = c.cell.controller == ControllerKind::kAdaptivePhaseCapped;
  if (phased && !a.trajectory.empty() &&
      (a.reclamps.empty() || a.reclamps.front().interval != 0)) {
    problems.push_back(where(c) + ": no re-clamp at interval 0");
    return;
  }
  for (const spf::PhaseReclampEvent& ev : a.reclamps) {
    const std::uint32_t scheduled = ev.phase < a.phase_caps.size()
                                        ? a.phase_caps[ev.phase].upper_limit
                                        : a.distance_cap;
    const std::uint32_t expected =
        std::max(policy.min_distance, std::min(scheduled, a.distance_cap));
    if (ev.cap != expected) {
      problems.push_back(where(c) + ": re-clamp at interval " +
                         std::to_string(ev.interval) + " has cap " +
                         std::to_string(ev.cap) + ", expected " +
                         std::to_string(expected));
    }
  }
  std::size_t next_event = 0;
  std::uint32_t cap = a.distance_cap;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    while (next_event < a.reclamps.size() &&
           a.reclamps[next_event].interval <= i) {
      cap = std::min(a.distance_cap, a.reclamps[next_event].cap);
      ++next_event;
    }
    if (a.trajectory[i] > cap) {
      problems.push_back(where(c) + ": interval " + std::to_string(i) +
                         " ran distance " + std::to_string(a.trajectory[i]) +
                         " above its cap " + std::to_string(cap));
      return;
    }
  }
}

}  // namespace

std::string digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::string> check_sweep(
    const spf::orchestrate::SweepResult& result,
    const spf::AdaptiveConfig& policy, bool provenance) {
  std::vector<std::string> problems;
  for (const CellResult& c : result.cells) {
    if (!c.ok || !c.cmp) {
      problems.push_back(where(c) + " failed: " + c.error);
      continue;
    }
    check_summary(c, "baseline", c.cmp->original, provenance, problems);
    check_summary(c, "SP run", c.cmp->sp, provenance, problems);
    const bool adaptive = c.cell.controller != ControllerKind::kStatic;
    if (adaptive != c.adaptive.has_value()) {
      problems.push_back(where(c) + ": adaptive stats present != adaptive cell");
    } else if (adaptive) {
      check_adaptive(c, *c.adaptive, policy, problems);
    }
  }
  return problems;
}

SimTotals sim_totals(const spf::orchestrate::SweepResult& result) {
  SimTotals t;
  double log_sum = 0.0;
  double rate_sum = 0.0;
  double mean_distance_sum = 0.0;
  for (const CellResult& c : result.cells) {
    if (!c.ok || !c.cmp) continue;
    const spf::SpRunSummary& sp = c.cmp->sp;
    ++t.cells;
    log_sum += std::log(c.cmp->norm_runtime());
    rate_sum += sp.l2_lookups == 0
                    ? 0.0
                    : static_cast<double>(sp.pollution.total_pollution()) /
                          static_cast<double>(sp.l2_lookups);
    t.sp_cycles += sp.runtime;
    t.l2_lookups += sp.l2_lookups;
    t.totally_hits += sp.totally_hits;
    t.partially_hits += sp.partially_hits;
    t.totally_misses += sp.totally_misses;
    t.memory_requests += sp.memory_requests;
    t.pollution_case1 += sp.pollution.case1_reuse_displaced;
    t.pollution_case2 += sp.pollution.case2_helper_displaced;
    t.pollution_case3 += sp.pollution.case3_hw_displaced;
    t.baseline_totally_misses += c.cmp->original.totally_misses;
    t.fills_tracked += sp.provenance.tracked_fills;
    t.used_timely += sp.provenance.used_timely;
    t.used_late += sp.provenance.used_late;
    t.evicted_unused += sp.provenance.evicted_unused;
    t.polluting += sp.provenance.polluting;
    if (c.adaptive) {
      ++t.adaptive_cells;
      t.adaptive_intervals += c.adaptive->intervals;
      mean_distance_sum += c.adaptive->mean_distance;
      t.adaptive_reclamps += c.adaptive->reclamps.size();
    }
  }
  if (t.cells != 0) {
    const auto n = static_cast<double>(t.cells);
    t.norm_runtime_gmean = std::exp(log_sum / n);
    t.pollution_rate = rate_sum / n;
  }
  if (t.adaptive_cells != 0) {
    t.adaptive_mean_distance =
        mean_distance_sum / static_cast<double>(t.adaptive_cells);
  }
  return t;
}

std::vector<std::uint64_t> summary_fields(const spf::SpRunSummary& s) {
  const spf::ProvenanceSummary& p = s.provenance;
  std::vector<std::uint64_t> f = {
      s.runtime, s.l2_lookups, s.totally_hits, s.partially_hits,
      s.totally_misses, s.pollution.case1_reuse_displaced,
      s.pollution.case2_helper_displaced, s.pollution.case3_hw_displaced,
      s.pollution.prefetch_caused_evictions, s.pollution.total_evictions,
      s.memory_requests, s.helper_finish, p.enabled ? 1u : 0u,
      p.tracked_fills, p.helper_fills, p.hardware_fills, p.used_timely,
      p.used_late, p.evicted_unused, p.polluting, p.resident_unused,
      p.reuse_confirms, p.late_pollution_confirms, p.fill_to_use_total,
      p.polluted_sets};
  for (const auto* hist : {&p.fill_to_use, &p.victim_reuse, &p.set_heatmap}) {
    f.insert(f.end(), hist->begin(), hist->end());
  }
  return f;
}

}  // namespace sweepbench
