#include "spf/sim/pollution.hpp"

#include <algorithm>
#include <sstream>

namespace spf {

std::string PollutionStats::to_string() const {
  std::ostringstream out;
  out << "pollution{case1=" << case1_reuse_displaced
      << " case2=" << case2_helper_displaced
      << " case3=" << case3_hw_displaced
      << " prefetch_evictions=" << prefetch_caused_evictions
      << " total_evictions=" << total_evictions << "}";
  return out.str();
}

void ProvenanceSummary::add(const ProvenanceSummary& other) noexcept {
  if (!other.enabled) return;
  enabled = true;
  tracked_fills += other.tracked_fills;
  helper_fills += other.helper_fills;
  hardware_fills += other.hardware_fills;
  used_timely += other.used_timely;
  used_late += other.used_late;
  evicted_unused += other.evicted_unused;
  polluting += other.polluting;
  resident_unused += other.resident_unused;
  reuse_confirms += other.reuse_confirms;
  late_pollution_confirms += other.late_pollution_confirms;
  fill_to_use_total += other.fill_to_use_total;
  polluted_sets += other.polluted_sets;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    fill_to_use[b] += other.fill_to_use[b];
    victim_reuse[b] += other.victim_reuse[b];
    set_heatmap[b] += other.set_heatmap[b];
  }
}

PollutionTracker::PollutionTracker(std::uint32_t shadow_capacity,
                                   const CacheGeometry& geometry,
                                   bool track_fates)
    : geometry_(geometry), shadow_order_(shadow_capacity) {
  reset(shadow_capacity, geometry, track_fates);
}

void PollutionTracker::reset(std::uint32_t shadow_capacity,
                             const CacheGeometry& geometry, bool track_fates) {
  geometry_ = geometry;
  stats_ = PollutionStats{};
  shadow_order_.reset(shadow_capacity);
  shadow_reset(shadow_capacity);
  per_set_.assign(geometry.num_sets(), 0);

  track_fates_ = track_fates;
  demand_lookups_ = 0;
  next_gen_ = 0;
  resolved_ = ProvenanceSummary{};
  resolved_.enabled = track_fates;
  if (track_fates) {
    // Records are slot-indexed: one per L2 line, exact.
    const std::size_t lines = geometry.num_sets() * geometry.ways();
    flags_.assign(lines, 0);
    // words_ entries are only read for slots whose kActive bit is set, and a
    // fill writes them before setting the bit — stale words are unreachable,
    // so resize without the clearing pass.
    words_.resize(lines);
  } else {
    flags_.clear();
  }
}

// ---- the victim shadow ----------------------------------------------------
//
// A bounded open-addressing map from shadowed line to its displacement
// metadata. Linear probing with backward-shift deletion (no tombstones),
// sized to at most half-full for the fixed capacity, so lookups on the
// per-miss hot path touch one or two contiguous entries instead of chasing
// hash-map buckets. Never iterated — membership and size are the only
// observable behaviour, so the probe order cannot leak into artifacts.

void PollutionTracker::shadow_reset(std::uint32_t capacity) {
  // The FIFO ring bounds live entries to `capacity`; keep the table at most
  // half-full so linear probe chains stay short.
  std::size_t n = 16;
  while (n < 2 * static_cast<std::size_t>(capacity)) n *= 2;
  // At an unchanged size, bumping the epoch empties the table without
  // touching it (adaptive intervals reset once per interval); it is cleared
  // only on a resize or when the epoch wraps.
  if (shadow_.size() != n || ++shadow_epoch_ == 0) {
    shadow_.assign(n, ShadowEntry{});
    shadow_epoch_ = 1;
  }
  shadow_mask_ = n - 1;
  shadow_size_ = 0;
}

void PollutionTracker::shadow_insert(const ShadowEntry& entry) {
  std::size_t i = shadow_home(entry.line);
  while (shadow_live(i) && shadow_[i].line != entry.line) {
    i = (i + 1) & shadow_mask_;
  }
  if (!shadow_live(i)) ++shadow_size_;
  shadow_[i] = entry;
  shadow_[i].epoch = shadow_epoch_;
}

bool PollutionTracker::shadow_erase(LineAddr line, ShadowEntry& out) {
  std::size_t i = shadow_home(line);
  while (shadow_live(i)) {
    if (shadow_[i].line == line) {
      out = shadow_[i];
      shadow_erase_at(i);
      --shadow_size_;
      return true;
    }
    i = (i + 1) & shadow_mask_;
  }
  return false;
}

void PollutionTracker::shadow_erase_at(std::size_t hole) {
  // Backward-shift deletion: pull each displaced successor in the probe
  // chain into the hole instead of leaving a tombstone.
  shadow_[hole].epoch = 0;
  std::size_t j = hole;
  for (;;) {
    j = (j + 1) & shadow_mask_;
    if (!shadow_live(j)) return;
    const std::size_t home = shadow_home(shadow_[j].line);
    // The entry at j may move into the hole only if its home position is
    // not cyclically inside (hole, j] — otherwise probing would lose it.
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (home <= j || home > hole);
    if (stays) continue;
    shadow_[hole] = shadow_[j];
    shadow_[j].epoch = 0;
    hole = j;
  }
}

// ---- pollution cases --------------------------------------------------------

void PollutionTracker::attribute(LineAddr line) {
  ++per_set_[geometry_.set_of_line(line)];
}

std::uint64_t PollutionTracker::set_pollution(std::uint64_t set) const {
  return set < per_set_.size() ? per_set_[set] : 0;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
PollutionTracker::top_polluted_sets(std::size_t n) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sets;
  for (std::uint64_t s = 0; s < per_set_.size(); ++s) {
    if (per_set_[s] > 0) sets.emplace_back(s, per_set_[s]);
  }
  std::sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (sets.size() > n) sets.resize(n);
  return sets;
}

std::uint64_t PollutionTracker::polluted_set_count() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : per_set_) n += c > 0;
  return n;
}

void PollutionTracker::on_eviction(const Eviction& ev) {
  if (track_fates_ && (flags_[ev.slot] & kActive)) {
    resolve(ev.slot, /*evicted=*/true);
    flags_[ev.slot] = 0;
  }
  ++stats_.total_evictions;
  const bool evictor_is_prefetch =
      ev.replaced_by_origin == FillOrigin::kHelper ||
      ev.replaced_by_origin == FillOrigin::kHardware;
  ShadowEntry dead;
  if (!evictor_is_prefetch) {
    // Demand fills can also displace useful data; that is ordinary capacity/
    // conflict behaviour, not prefetch pollution. Drop any stale shadow for
    // the victim so a later re-miss is not misattributed.
    shadow_erase(ev.victim.line, dead);
    return;
  }
  ++stats_.prefetch_caused_evictions;

  const bool victim_unused_prefetch = !ev.victim.used_since_fill &&
                                      ev.victim.origin != FillOrigin::kDemand;
  if (victim_unused_prefetch) {
    if (ev.victim.origin == FillOrigin::kHelper) {
      ++stats_.case2_helper_displaced;
    } else {
      ++stats_.case3_hw_displaced;
    }
    attribute(ev.victim.line);
    return;
  }

  // Victim was useful data (demand-filled, or a prefetch the processor had
  // already consumed). Whether it "will be reused" is only known when a later
  // demand miss returns for it — shadow it.
  LineAddr dropped = 0;
  if (shadow_order_.push(ev.victim.line, &dropped)) {
    shadow_erase(dropped, dead);
  }
  shadow_insert(ShadowEntry{
      .line = ev.victim.line,
      .evict_lookup = static_cast<std::uint32_t>(demand_lookups_),
      .evictor_slot = ev.slot,
      .evictor_gen = static_cast<std::uint32_t>(next_gen_)});
}

bool PollutionTracker::on_demand_miss(LineAddr line) {
  ShadowEntry entry;
  if (!shadow_erase(line, entry)) return false;
  ++stats_.case1_reuse_displaced;
  attribute(line);
  if (track_fates_) {
    ++resolved_.reuse_confirms;
    ++resolved_.victim_reuse[ProvenanceSummary::bucket_of(
        static_cast<std::uint32_t>(demand_lookups_) - entry.evict_lookup)];
    const std::uint8_t f = flags_[entry.evictor_slot];
    if ((f & kActive) && gen_of(entry.evictor_slot) == entry.evictor_gen) {
      flags_[entry.evictor_slot] = f | kPolluting;
    } else {
      ++resolved_.late_pollution_confirms;
    }
  }
  return true;
}

// ---- prefetch fates ---------------------------------------------------------

void PollutionTracker::resolve(std::uint32_t slot, bool evicted) {
  const std::uint8_t f = flags_[slot];
  if (f & kPolluting) {
    ++resolved_.polluting;
  } else if (f & kUsed) {
    ++resolved_.used_timely;
    resolved_.fill_to_use_total += clock_of(slot);
    ++resolved_.fill_to_use[ProvenanceSummary::bucket_of(clock_of(slot))];
  } else if (evicted) {
    ++resolved_.evicted_unused;
  } else {
    ++resolved_.resident_unused;
  }
}

void PollutionTracker::record_fill(std::uint32_t slot, FillOrigin raw_origin,
                                   bool demand_merged) {
  ++resolved_.tracked_fills;
  if (raw_origin == FillOrigin::kHelper) {
    ++resolved_.helper_fills;
  } else {
    ++resolved_.hardware_fills;
  }
  if (demand_merged) {
    // The demand miss was already in flight when this prefetch completed:
    // the prefetch was too late to hide any latency. The line installs with
    // demand origin, so it is not tracked further.
    ++resolved_.used_late;
    return;
  }
  if (flags_[slot] & kActive) {
    // Defensive: the eviction that vacated this slot resolves its record
    // first, and the MSHR admits one in-flight fill per line — so a live
    // record should never be overwritten. Retire the stale record as
    // displaced rather than losing it.
    resolve(slot, /*evicted=*/true);
  }
  flags_[slot] = kActive;
  words_[slot] = pack(static_cast<std::uint32_t>(demand_lookups_),
                      static_cast<std::uint32_t>(next_gen_++));
}

void PollutionTracker::mark_used(std::uint32_t slot) {
  const std::uint8_t f = flags_[slot];
  if (!(f & kActive) || (f & kUsed)) return;
  flags_[slot] = f | kUsed;
  // The clock field flips from fill-lookup to first-use distance; the
  // generation rides along untouched (a used fill can still turn polluting).
  words_[slot] = pack(static_cast<std::uint32_t>(demand_lookups_) - clock_of(slot),
                      gen_of(slot));
}

ProvenanceSummary PollutionTracker::snapshot() const {
  if (!track_fates_) return ProvenanceSummary{};
  ProvenanceSummary out = resolved_;
  // Provisionally classify still-live fills so the fate counts partition the
  // tracked fills even mid-run (warm adaptive snapshots). A resident fill may
  // migrate between categories across snapshots; the partition holds at each.
  for (std::size_t slot = 0; slot < flags_.size(); ++slot) {
    const std::uint8_t f = flags_[slot];
    if (!(f & kActive)) continue;
    if (f & kPolluting) {
      ++out.polluting;
    } else if (f & kUsed) {
      ++out.used_timely;
      const std::uint64_t d = clock_of(static_cast<std::uint32_t>(slot));
      out.fill_to_use_total += d;
      ++out.fill_to_use[ProvenanceSummary::bucket_of(d)];
    } else {
      ++out.resident_unused;
    }
  }
  for (std::uint64_t count : per_set_) {
    if (count == 0) continue;
    ++out.polluted_sets;
    ++out.set_heatmap[ProvenanceSummary::bucket_of(count)];
  }
  return out;
}

}  // namespace spf
