// Executable specification of the CMP simulator (docs/simulator.md), the
// semantic oracle tests/spec_sim_differential_test.cpp fuzzes CmpSimulator
// against.
//
// Written from the documented model, not from the engine: one scheduler
// round per record (min next-access time, lower core id on ties, round
// gating with resume at the leader's clock), the paper's §V.B
// classification (totally hit / partially hit / totally miss), MSHR merge,
// full-file stall and drain-at-t, write-allocate dirty installs and
// writebacks, the §II.C pollution cases over a FIFO-bounded shadow with
// the used-bit and origin rules, and — with SimConfig::provenance — the five
// prefetch fates of docs/provenance.md. Caches are std::list LRU sets in a
// std::map, outstanding misses a plain vector, the shadow a std::map plus a
// std::deque, fate records a std::map keyed by line with a per-fill serial
// number — no batching, SIMD, arena, packing, record window or slot index.
//
// It reuses only the leaf timing/prediction models (MemoryController,
// CorePrefetchers) and the engine's input description (CoreStream, trace
// streams only), never Cache, MshrFile, PollutionTracker or CmpSimulator,
// so a bug in the engine's shared access path cannot hide behind an
// identical copy of itself. LRU replacement only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <list>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/memsys/memory.hpp"
#include "spf/prefetch/core_prefetchers.hpp"
#include "spf/sim/config.hpp"
#include "spf/sim/result.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/trace/trace.hpp"

namespace spf::spec {

/// An LRU set-associative cache as a map of recency lists (front = MRU).
class LruCache {
 public:
  struct Line {
    LineAddr line = 0;
    bool dirty = false;
    bool used = false;  // touched by the processor since the fill
    FillOrigin origin = FillOrigin::kDemand;
  };

  explicit LruCache(const CacheGeometry& geometry) : geo_(geometry) {}

  [[nodiscard]] bool contains(LineAddr line) const {
    const auto it = sets_.find(geo_.set_of_line(line));
    if (it == sets_.end()) return false;
    return std::any_of(it->second.begin(), it->second.end(),
                       [line](const Line& l) { return l.line == line; });
  }

  /// A lookup: a hit moves the line to MRU, marks it used unless `kind` is a
  /// prefetch, and dirty on a write.
  bool access(LineAddr line, AccessKind kind) {
    ++stats.lookups;
    Line* l = touch(line);
    if (l == nullptr) {
      ++stats.misses;
      return false;
    }
    ++stats.hits;
    if (kind != AccessKind::kPrefetch) l->used = true;
    if (kind == AccessKind::kWrite) l->dirty = true;
    return true;
  }

  /// Installs `line`; returns the LRU victim when the set was full. A line
  /// already present is only promoted (and marked used by a demand fill).
  std::optional<Line> fill(LineAddr line, FillOrigin origin) {
    if (Line* l = touch(line)) {
      if (origin == FillOrigin::kDemand) l->used = true;
      return std::nullopt;
    }
    ++stats.fills;
    std::list<Line>& set = sets_[geo_.set_of_line(line)];
    std::optional<Line> victim;
    if (set.size() == geo_.ways()) {
      victim = set.back();
      set.pop_back();
      ++stats.evictions;
      if (!victim->used && victim->origin == FillOrigin::kHelper) {
        ++stats.evicted_unused_helper;
      }
      if (!victim->used && victim->origin == FillOrigin::kHardware) {
        ++stats.evicted_unused_hw;
      }
    }
    set.push_front(Line{.line = line,
                        .dirty = false,
                        .used = origin == FillOrigin::kDemand,
                        .origin = origin});
    return victim;
  }

  void mark_dirty(LineAddr line) {
    for (Line& l : sets_[geo_.set_of_line(line)]) {
      if (l.line == line) l.dirty = true;
    }
  }

  [[nodiscard]] OccupancySample occupancy(Cycle when) const {
    OccupancySample s;
    s.when = when;
    for (const auto& [set, lines] : sets_) {
      for (const Line& l : lines) {
        if (l.origin == FillOrigin::kDemand) {
          ++s.demand_lines;
        } else if (l.origin == FillOrigin::kHelper) {
          ++(l.used ? s.helper_used : s.helper_unused);
        } else {
          ++(l.used ? s.hw_used : s.hw_unused);
        }
      }
    }
    return s;
  }

  CacheStats stats;

 private:
  /// The present line, moved to MRU; nullptr when absent.
  Line* touch(LineAddr line) {
    std::list<Line>& set = sets_[geo_.set_of_line(line)];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line == line) {
        set.splice(set.begin(), set, it);
        return &set.front();
      }
    }
    return nullptr;
  }

  CacheGeometry geo_;
  std::map<std::uint64_t, std::list<Line>> sets_;
};

/// Test-only tallies of two fate corners, kept outside SimResult so the
/// engine has nothing to compare them with: the fuzz coverage test uses them
/// to prove its matrix reaches the corners on its own.
struct FateCorners {
  /// A fill already used by the main thread, then confirmed polluting (the
  /// polluting-over-used precedence decides its fate).
  std::uint64_t used_then_polluting = 0;
  /// A confirm whose displacing fill had already left the cache, so its
  /// slot may hold a different fill (the generation check decides).
  std::uint64_t recycled_confirms = 0;
};

class SpecSimulator {
 public:
  explicit SpecSimulator(const SimConfig& config)
      : config_(config), l2_(config.l2), memory_(config.memory) {
    SPF_ASSERT(config.replacement == ReplacementKind::kLru,
               "the spec models LRU replacement only");
  }

  /// Replays `streams` from a cold machine; one run per simulator.
  SimResult run(const std::vector<CoreStream>& streams) {
    SPF_ASSERT(cores_.empty(), "a spec simulator runs once");
    for (const CoreStream& s : streams) {
      SPF_ASSERT(s.trace != nullptr, "the spec replays materialized traces");
      cores_.emplace_back(s, config_);
    }
    Cycle next_sample = config_.occupancy_sample_interval;
    for (;;) {
      std::optional<std::size_t> pick;
      Cycle best = std::numeric_limits<Cycle>::max();
      bool any_remaining = false;
      for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core& c = cores_[i];
        if (c.done()) continue;
        any_remaining = true;
        if (gated(c)) {
          c.was_gated = true;
          continue;
        }
        if (c.was_gated) {  // spun at the barrier until the leader crossed
          c.clock = std::max(c.clock, cores_[c.stream.sync->leader].clock);
          c.was_gated = false;
        }
        const Cycle next = c.clock + c.pending().compute_gap;
        if (next < best) {  // strict: ties go to the lower core id
          best = next;
          pick = i;
        }
      }
      if (!any_remaining) break;
      SPF_ASSERT(pick.has_value(), "all remaining cores gated");
      Core& c = cores_[*pick];
      if (config_.occupancy_sample_interval != 0 && c.clock >= next_sample) {
        result_.occupancy.samples.push_back(l2_.occupancy(c.clock));
        while (next_sample <= c.clock) {
          next_sample += config_.occupancy_sample_interval;
        }
      }
      const TraceRecord& rec = (*c.stream.trace)[c.pos++];
      c.outer_iter = rec.outer_iter;
      c.started = true;
      const Cycle start = c.clock + rec.compute_gap;
      c.clock = rec.kind() == AccessKind::kPrefetch
                    ? software_prefetch(c, rec, start)
                    : demand_access(c, rec, start);
    }
    drain(std::numeric_limits<Cycle>::max());

    for (Core& c : cores_) {
      c.metrics.finish_time = c.clock;
      result_.per_core.push_back(c.metrics);
      result_.makespan = std::max(result_.makespan, c.clock);
    }
    result_.l2 = l2_.stats;
    result_.mshr = mshr_stats_;
    result_.memory = memory_.stats();
    result_.hw_prefetches_issued = hw_issued_;
    for (const auto& [set, events] : polluted_sets_) {
      result_.top_polluted_sets.emplace_back(set, events);
    }
    result_.polluted_set_count = result_.top_polluted_sets.size();
    if (config_.provenance) {
      ProvenanceSummary& f = result_.provenance;
      f.enabled = true;
      for (const auto& [line, record] : records_) settle(record, false);
      for (const auto& [set, events] : polluted_sets_) {
        ++f.polluted_sets;
        ++f.set_heatmap[ProvenanceSummary::bucket_of(events)];
      }
    }
    std::stable_sort(
        result_.top_polluted_sets.begin(), result_.top_polluted_sets.end(),
        [](const auto& a, const auto& b) { return a.second > b.second; });
    if (result_.top_polluted_sets.size() > 16) {
      result_.top_polluted_sets.resize(16);
    }
    return result_;
  }

  [[nodiscard]] const FateCorners& corners() const { return corners_; }

 private:
  struct Core {
    Core(const CoreStream& s, const SimConfig& config)
        : stream(s), l1(config.l1), prefetchers(config.l2.line_bytes()) {}
    [[nodiscard]] bool done() const { return pos >= stream.trace->size(); }
    [[nodiscard]] const TraceRecord& pending() const {
      return (*stream.trace)[pos];
    }
    CoreStream stream;
    std::size_t pos = 0;
    Cycle clock = 0;
    std::uint32_t outer_iter = 0;
    bool started = false;
    bool was_gated = false;
    LruCache l1;
    CorePrefetchers prefetchers;
    ThreadMetrics metrics;
  };

  struct FateRecord {  // a resident, non-merged prefetch fill
    std::uint64_t serial = 0;  // which fill this is, across the run
    std::uint64_t fill_lookup = 0;
    bool used = false;
    std::uint64_t use_distance = 0;
    bool polluting = false;
  };

  struct Shadowed {  // a victim of a prefetch fill, awaiting its re-miss
    std::uint64_t evict_lookup = 0;
    LineAddr evictor_line = 0;
    std::optional<std::uint64_t> evictor_serial;  // without provenance: none
  };

  struct Miss {  // an issued, not yet serviced L2 fill
    LineAddr line = 0;
    Cycle fill_time = 0;
    FillOrigin origin = FillOrigin::kDemand;
    bool demand_merged = false;
    bool write = false;
  };

  /// A record in round k waits until the leader's outer iteration is in
  /// round k; a finished leader opens every gate.
  [[nodiscard]] bool gated(const Core& c) const {
    if (!c.stream.sync) return false;
    const Core& leader = cores_[c.stream.sync->leader];
    if (leader.done()) return false;
    const std::uint32_t round_iters = c.stream.sync->round_iters;
    const std::uint32_t next_round = c.pending().outer_iter / round_iters;
    if (!leader.started) return next_round != 0;
    return leader.outer_iter / round_iters < next_round;
  }

  Miss* outstanding(LineAddr line) {
    for (Miss& m : misses_) {
      if (m.line == line) return &m;
    }
    return nullptr;
  }
  [[nodiscard]] bool mshr_full() const {
    return misses_.size() >= config_.l2_mshrs;
  }
  void allocate(LineAddr line, Cycle fill_time, FillOrigin origin) {
    misses_.push_back(Miss{.line = line, .fill_time = fill_time,
                           .origin = origin});
    ++mshr_stats_.allocations;
    mshr_stats_.peak_occupancy =
        std::max<std::uint64_t>(mshr_stats_.peak_occupancy, misses_.size());
  }

  /// Installs every fill with fill_time <= now, earliest first.
  void drain(Cycle now) {
    std::stable_sort(misses_.begin(), misses_.end(),
                     [](const Miss& a, const Miss& b) {
                       return a.fill_time < b.fill_time;
                     });
    while (!misses_.empty() && misses_.front().fill_time <= now) {
      const Miss m = misses_.front();
      misses_.erase(misses_.begin());
      // A demand request merged into this fill: it lands as wanted data.
      const FillOrigin origin =
          m.demand_merged ? FillOrigin::kDemand : m.origin;
      if (config_.provenance && m.origin != FillOrigin::kDemand) {
        on_prefetch_fill(m);
      }
      if (const auto victim = l2_.fill(m.line, origin)) {
        if (victim->dirty) memory_.writeback(m.fill_time);
        on_eviction(*victim, origin, m.line);
      }
      if (m.write) l2_.mark_dirty(m.line);  // write-allocate
    }
  }

  /// A helper/hardware fill reaching L2 (origin before the demand-merge
  /// upgrade): tracked; used_late at once when a demand miss merged into it,
  /// else a live record of the line until its fate is known.
  void on_prefetch_fill(const Miss& m) {
    ProvenanceSummary& f = result_.provenance;
    ++f.tracked_fills;
    ++(m.origin == FillOrigin::kHelper ? f.helper_fills : f.hardware_fills);
    if (m.demand_merged) {
      ++f.used_late;
      return;
    }
    SPF_ASSERT(!records_.contains(m.line), "one live record per line");
    records_[m.line] = FateRecord{.serial = next_serial_++,
                                  .fill_lookup = demand_lookups_};
  }

  /// A record's fate once its line leaves the cache (`evicted`) or the run
  /// ends: polluting > used_timely > evicted_unused / resident_unused.
  void settle(const FateRecord& r, bool evicted) {
    ProvenanceSummary& f = result_.provenance;
    if (r.polluting) {
      ++f.polluting;
    } else if (r.used) {
      ++f.used_timely;
      f.fill_to_use_total += r.use_distance;
      ++f.fill_to_use[ProvenanceSummary::bucket_of(r.use_distance)];
    } else {
      ++(evicted ? f.evicted_unused : f.resident_unused);
    }
  }

  /// §II.C: a prefetch fill evicting an unused helper (case 2) or hardware
  /// (case 3) fill is pollution now; one evicting useful data is shadowed
  /// until a demand miss confirms the reuse (case 1). `evictor_line` is the
  /// line whose fill displaced the victim.
  void on_eviction(const LruCache::Line& victim, FillOrigin evictor,
                   LineAddr evictor_line) {
    if (const auto it = records_.find(victim.line); it != records_.end()) {
      settle(it->second, /*evicted=*/true);
      records_.erase(it);
    }
    PollutionStats& p = result_.pollution;
    ++p.total_evictions;
    if (evictor == FillOrigin::kDemand) {
      shadow_.erase(victim.line);
      return;
    }
    ++p.prefetch_caused_evictions;
    if (!victim.used && victim.origin != FillOrigin::kDemand) {
      ++(victim.origin == FillOrigin::kHelper ? p.case2_helper_displaced
                                              : p.case3_hw_displaced);
      ++polluted_sets_[config_.l2.set_of_line(victim.line)];
      return;
    }
    shadow_fifo_.push_back(victim.line);
    if (shadow_fifo_.size() > config_.shadow_capacity) {
      shadow_.erase(shadow_fifo_.front());
      shadow_fifo_.pop_front();
    }
    const auto record = records_.find(evictor_line);
    shadow_[victim.line] = Shadowed{
        .evict_lookup = demand_lookups_,
        .evictor_line = evictor_line,
        .evictor_serial = record != records_.end()
                              ? std::optional(record->second.serial)
                              : std::nullopt};
  }

  /// A demand miss on a shadowed line: case 1, and with provenance the
  /// victim's reuse distance plus blame on the displacing fill's record —
  /// if that very fill (same serial) is still live.
  void confirm_reuse(LineAddr line) {
    const auto it = shadow_.find(line);
    if (it == shadow_.end()) return;
    const Shadowed s = it->second;
    shadow_.erase(it);
    ++result_.pollution.case1_reuse_displaced;
    ++polluted_sets_[config_.l2.set_of_line(line)];
    if (!config_.provenance) return;
    ProvenanceSummary& f = result_.provenance;
    ++f.reuse_confirms;
    ++f.victim_reuse[ProvenanceSummary::bucket_of(demand_lookups_ -
                                                  s.evict_lookup)];
    const auto record = records_.find(s.evictor_line);
    if (s.evictor_serial && record != records_.end() &&
        record->second.serial == *s.evictor_serial) {
      if (record->second.used && !record->second.polluting) {
        ++corners_.used_then_polluting;
      }
      record->second.polluting = true;
    } else {
      if (s.evictor_serial) ++corners_.recycled_confirms;
      ++f.late_pollution_confirms;
    }
  }

  Cycle demand_access(Core& c, const TraceRecord& rec, Cycle start) {
    ++c.metrics.demand_accesses;
    const LineAddr l1_line = config_.l1.line_of(rec.addr);
    if (c.l1.access(l1_line, rec.kind())) {
      ++c.metrics.l1_hits;
      return start + config_.l1_latency;
    }
    const LineAddr line = config_.l2.line_of(rec.addr);
    const Cycle t = start + config_.l1_latency;
    drain(t);
    ++c.metrics.l2_lookups;
    const bool demand = c.stream.origin == FillOrigin::kDemand;
    if (demand) ++demand_lookups_;  // the fates' reuse clock
    // Only the main thread's touches count as used by the processor.
    Cycle done = 0;
    bool l2_miss = true;
    if (l2_.access(line, demand ? rec.kind() : AccessKind::kPrefetch)) {
      ++c.metrics.totally_hits;
      l2_miss = false;
      done = t + config_.l2_latency;
      const auto record = records_.find(line);
      if (demand && record != records_.end() && !record->second.used) {
        record->second.used = true;
        record->second.use_distance =
            demand_lookups_ - record->second.fill_lookup;
      }
    } else if (Miss* m = outstanding(line)) {
      ++c.metrics.partially_hits;
      ++mshr_stats_.merges;
      if (demand && m->origin != FillOrigin::kDemand && !m->demand_merged) {
        m->demand_merged = true;
        ++mshr_stats_.demand_merges_into_prefetch;
      }
      if (rec.kind() == AccessKind::kWrite) m->write = true;
      done = std::max(t, m->fill_time) + config_.l2_latency;
      c.metrics.stall_cycles += done - t;
    } else {
      ++c.metrics.totally_misses;
      if (demand) confirm_reuse(line);
      Cycle issue = t;
      if (mshr_full()) ++mshr_stats_.full_rejections;  // this miss must wait
      while (mshr_full()) {  // structural stall until the earliest fill lands
        Cycle earliest = std::numeric_limits<Cycle>::max();
        for (const Miss& pending : misses_) {
          earliest = std::min(earliest, pending.fill_time);
        }
        issue = std::max(issue, earliest);
        drain(issue);
      }
      const Cycle fill_time = memory_.issue(issue, c.stream.origin);
      allocate(line, fill_time, c.stream.origin);
      if (rec.kind() == AccessKind::kWrite) misses_.back().write = true;
      done = fill_time + config_.l2_latency;
      c.metrics.stall_cycles += done - t;
    }
    c.l1.fill(l1_line, FillOrigin::kDemand);

    if (config_.hw_prefetch) {
      std::vector<LineAddr> candidates;
      c.prefetchers.observe(PrefetchObservation{.addr = rec.addr,
                                                .site = rec.site,
                                                .was_miss = l2_miss},
                            candidates);
      for (LineAddr pf : candidates) {
        if (l2_.contains(pf) || outstanding(pf) != nullptr) continue;
        if (mshr_full()) {  // hardware prefetches drop, never stall
          ++mshr_stats_.full_rejections;
          break;
        }
        allocate(pf, memory_.issue(t, FillOrigin::kHardware),
                 FillOrigin::kHardware);
        ++hw_issued_;
      }
    }
    return done;
  }

  /// Non-binding: one issue cycle; elided when cached or in flight, dropped
  /// when the MSHRs are full.
  Cycle software_prefetch(Core& c, const TraceRecord& rec, Cycle start) {
    const Cycle t = start + 1;
    const LineAddr line = config_.l2.line_of(rec.addr);
    drain(t);
    if (l2_.contains(line) || outstanding(line) != nullptr) {
      ++c.metrics.prefetches_elided;
    } else if (mshr_full()) {
      ++c.metrics.prefetches_dropped;
      ++mshr_stats_.full_rejections;
    } else {
      const FillOrigin origin = c.stream.origin == FillOrigin::kDemand
                                    ? FillOrigin::kHelper
                                    : c.stream.origin;
      allocate(line, memory_.issue(t, origin), origin);
      ++c.metrics.prefetches_issued;
    }
    return t;
  }

  SimConfig config_;
  std::vector<Core> cores_;
  LruCache l2_;
  std::vector<Miss> misses_;
  MshrStats mshr_stats_;
  MemoryController memory_;
  std::map<LineAddr, Shadowed> shadow_;
  std::deque<LineAddr> shadow_fifo_;
  std::map<LineAddr, FateRecord> records_;  // live prefetch fills, by line
  std::uint64_t next_serial_ = 0;
  std::uint64_t demand_lookups_ = 0;
  std::map<std::uint64_t, std::uint64_t> polluted_sets_;
  std::uint64_t hw_issued_ = 0;
  SimResult result_;
  FateCorners corners_;
};

}  // namespace spf::spec
