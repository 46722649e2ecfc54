// Unit and property tests for the fill-lifecycle tracker: the paper's three
// pollution cases, the five prefetch fates (docs/provenance.md), and
// invariants over random event streams. Events are fed the way the
// simulator's drain and demand paths feed them: one on_fill per L2 fill with
// the eviction it caused, one on_demand_lookup per demand L2 lookup,
// on_first_demand_hit and on_demand_miss.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spf/common/rng.hpp"
#include "spf/sim/pollution.hpp"

namespace spf {
namespace {

Eviction make_eviction(LineAddr victim_line, FillOrigin victim_origin,
                       bool victim_used, FillOrigin evictor_origin,
                       std::uint32_t slot = 0) {
  Eviction ev;
  ev.victim.line = victim_line;
  ev.victim.valid = true;
  ev.victim.origin = victim_origin;
  ev.victim.used_since_fill = victim_used;
  ev.replaced_by = victim_line + 10000;  // evictor line identity is untracked
  ev.replaced_by_origin = evictor_origin;
  ev.slot = slot;
  return ev;
}

/// A non-merged fill by `ev.replaced_by_origin` that displaced `ev`'s victim.
void evict(PollutionTracker& t, const Eviction& ev) {
  t.on_fill(ev.replaced_by_origin, /*demand_merged=*/false, ev.slot, ev);
}

/// A prefetch fill into a free slot.
void fill(PollutionTracker& t, std::uint32_t slot, FillOrigin origin,
          bool demand_merged = false) {
  t.on_fill(origin, demand_merged, slot, std::nullopt);
}

void lookups(PollutionTracker& t, int n) {
  for (int i = 0; i < n; ++i) t.on_demand_lookup();
}

/// 64 KiB / 8-way / 64 B: 128 sets, 1024 fate-record slots.
PollutionTracker fate_tracker() {
  return PollutionTracker(64, CacheGeometry(64 * 1024, 8, 64),
                          /*track_fates=*/true);
}

void expect_partition(const ProvenanceSummary& s) {
  EXPECT_EQ(s.fate_total(), s.tracked_fills)
      << "the five fates must partition the tracked fills";
  EXPECT_EQ(s.helper_fills + s.hardware_fills, s.tracked_fills);
}

// ---- pollution cases (§II.C) ----------------------------------------------

TEST(PollutionTest, Case2HelperPrefetchDisplacedUnusedHelperFill) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  evict(t, make_eviction(1, FillOrigin::kHelper, false, FillOrigin::kHelper));
  EXPECT_EQ(t.stats().case2_helper_displaced, 1u);
  EXPECT_EQ(t.stats().total_pollution(), 1u);
}

TEST(PollutionTest, Case3PrefetchDisplacedUnusedHardwareFill) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  evict(t, make_eviction(2, FillOrigin::kHardware, false, FillOrigin::kHelper));
  EXPECT_EQ(t.stats().case3_hw_displaced, 1u);
}

TEST(PollutionTest, Case1NeedsDemandReMiss) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  // Prefetch displaces used (useful) demand data.
  evict(t, make_eviction(3, FillOrigin::kDemand, true, FillOrigin::kHardware));
  EXPECT_EQ(t.stats().case1_reuse_displaced, 0u);  // not yet: reuse unknown
  EXPECT_TRUE(t.on_demand_miss(3));                // the processor came back
  EXPECT_EQ(t.stats().case1_reuse_displaced, 1u);
  // Counted once; a second miss is a plain capacity miss.
  EXPECT_FALSE(t.on_demand_miss(3));
  EXPECT_EQ(t.stats().case1_reuse_displaced, 1u);
}

TEST(PollutionTest, UsedPrefetchVictimGoesToShadowNotCase23) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  // A helper-prefetched line the processor already consumed is useful data.
  evict(t, make_eviction(4, FillOrigin::kHelper, true, FillOrigin::kHelper));
  EXPECT_EQ(t.stats().case2_helper_displaced, 0u);
  EXPECT_TRUE(t.on_demand_miss(4));
  EXPECT_EQ(t.stats().case1_reuse_displaced, 1u);
}

TEST(PollutionTest, DemandEvictionIsNotPollution) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  evict(t, make_eviction(5, FillOrigin::kDemand, true, FillOrigin::kDemand));
  EXPECT_EQ(t.stats().total_pollution(), 0u);
  EXPECT_EQ(t.stats().prefetch_caused_evictions, 0u);
  EXPECT_EQ(t.stats().total_evictions, 1u);
  // And its victim must not be attributed to a prefetch later.
  EXPECT_FALSE(t.on_demand_miss(5));
}

TEST(PollutionTest, DemandEvictionClearsStaleShadow) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  // Prefetch displaces line 6 -> shadowed.
  evict(t, make_eviction(6, FillOrigin::kDemand, true, FillOrigin::kHelper));
  // Later the same line is re-fetched and displaced again, this time by a
  // demand fill: the shadow must be cleared, else the eventual re-miss is
  // misattributed to the old prefetch.
  evict(t, make_eviction(6, FillOrigin::kDemand, true, FillOrigin::kDemand));
  EXPECT_FALSE(t.on_demand_miss(6));
}

TEST(PollutionTest, ShadowCapacityBoundsMemory) {
  PollutionTracker t(4, CacheGeometry(1024, 2, 64));
  for (LineAddr l = 0; l < 100; ++l) {
    evict(t, make_eviction(l, FillOrigin::kDemand, true, FillOrigin::kHelper));
  }
  EXPECT_LE(t.shadow_size(), 4u);
  // Oldest entries fell out of the window.
  EXPECT_FALSE(t.on_demand_miss(0));
  // Newest are still tracked.
  EXPECT_TRUE(t.on_demand_miss(99));
}

TEST(PollutionTest, MixedSequenceCountsEachCaseOnce) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  evict(t, make_eviction(10, FillOrigin::kHelper, false, FillOrigin::kHardware));
  evict(t, make_eviction(11, FillOrigin::kHardware, false, FillOrigin::kHelper));
  evict(t, make_eviction(12, FillOrigin::kDemand, true, FillOrigin::kHelper));
  t.on_demand_miss(12);
  const PollutionStats& s = t.stats();
  EXPECT_EQ(s.case1_reuse_displaced, 1u);
  EXPECT_EQ(s.case2_helper_displaced, 1u);
  EXPECT_EQ(s.case3_hw_displaced, 1u);
  EXPECT_EQ(s.total_pollution(), 3u);
  EXPECT_EQ(s.prefetch_caused_evictions, 3u);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(PollutionTest, PerSetAttribution) {
  // Geometry 1024B / 2-way / 64B -> 8 sets; line l maps to set l % 8.
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  // Two case-2 events in set 1 (lines 1 and 9), one case-3 in set 2.
  evict(t, make_eviction(1, FillOrigin::kHelper, false, FillOrigin::kHelper));
  evict(t, make_eviction(9, FillOrigin::kHelper, false, FillOrigin::kHelper));
  evict(t, make_eviction(2, FillOrigin::kHardware, false, FillOrigin::kHelper));
  // One case-1 event in set 3.
  evict(t, make_eviction(3, FillOrigin::kDemand, true, FillOrigin::kHelper));
  t.on_demand_miss(3);

  EXPECT_EQ(t.set_pollution(1), 2u);
  EXPECT_EQ(t.set_pollution(2), 1u);
  EXPECT_EQ(t.set_pollution(3), 1u);
  EXPECT_EQ(t.set_pollution(0), 0u);
  EXPECT_EQ(t.polluted_set_count(), 3u);
  const auto top = t.top_polluted_sets(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 1u);
  EXPECT_EQ(top[0].second, 2u);
}

TEST(PollutionTest, TopPollutedSetsTieBreaksByAscendingSetIndex) {
  // Geometry 1024B / 2-way / 64B -> 8 sets; line l maps to set l % 8.
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  // Equal counts in sets 6, 2, and 4 (insertion order deliberately
  // scrambled), and a clear winner in set 5.
  for (const LineAddr line : {6, 2, 4}) {
    evict(t,
          make_eviction(line, FillOrigin::kHelper, false, FillOrigin::kHelper));
  }
  evict(t, make_eviction(5, FillOrigin::kHelper, false, FillOrigin::kHelper));
  evict(t, make_eviction(13, FillOrigin::kHelper, false, FillOrigin::kHelper));

  // Descending count first, then ascending set index for equal counts —
  // pinned so heatmap artifacts are byte-stable across platforms and
  // standard-library sort implementations.
  const auto top = t.top_polluted_sets(4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0], (std::pair<std::uint64_t, std::uint64_t>{5, 2}));
  EXPECT_EQ(top[1], (std::pair<std::uint64_t, std::uint64_t>{2, 1}));
  EXPECT_EQ(top[2], (std::pair<std::uint64_t, std::uint64_t>{4, 1}));
  EXPECT_EQ(top[3], (std::pair<std::uint64_t, std::uint64_t>{6, 1}));
}

TEST(PollutionTest, TopPollutedSetsHandlesFewerThanRequested) {
  PollutionTracker t(64, CacheGeometry(1024, 2, 64));
  EXPECT_TRUE(t.top_polluted_sets(5).empty());
  evict(t, make_eviction(4, FillOrigin::kHelper, false, FillOrigin::kHelper));
  EXPECT_EQ(t.top_polluted_sets(5).size(), 1u);
}

// ---- prefetch fates ---------------------------------------------------------

TEST(ProvenanceSummaryTest, BucketOfIsLog2WithSaturation) {
  EXPECT_EQ(ProvenanceSummary::bucket_of(0), 0u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(1), 1u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(2), 2u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(3), 2u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(4), 3u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(1023), 10u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(1024), 11u);
  // Distances past 2^30 saturate into the last bucket instead of overflowing.
  EXPECT_EQ(ProvenanceSummary::bucket_of(std::uint64_t{1} << 40),
            ProvenanceSummary::kHistogramBuckets - 1);
  EXPECT_EQ(ProvenanceSummary::bucket_of(~std::uint64_t{0}),
            ProvenanceSummary::kHistogramBuckets - 1);
}

TEST(ProvenanceTrackerTest, TimelyUseRecordsFirstUseDistance) {
  PollutionTracker t = fate_tracker();
  // Three demand lookups pass, the prefetch fills, three more lookups, hit.
  lookups(t, 3);
  fill(t, 7, FillOrigin::kHelper);
  lookups(t, 3);
  t.on_first_demand_hit(7);

  const ProvenanceSummary s = t.snapshot();
  expect_partition(s);
  EXPECT_EQ(s.tracked_fills, 1u);
  EXPECT_EQ(s.helper_fills, 1u);
  EXPECT_EQ(s.used_timely, 1u);
  EXPECT_EQ(s.fill_to_use_total, 3u);
  EXPECT_EQ(s.fill_to_use[ProvenanceSummary::bucket_of(3)], 1u);
  // Only the first use defines the distance; later hits must not re-bucket.
  lookups(t, 1);
  t.on_first_demand_hit(7);
  const ProvenanceSummary again = t.snapshot();
  EXPECT_EQ(again.fill_to_use_total, 3u);
  EXPECT_EQ(again.used_timely, 1u);
}

TEST(ProvenanceTrackerTest, DemandMergedFillIsUsedLateImmediately) {
  PollutionTracker t = fate_tracker();
  fill(t, 9, FillOrigin::kHardware, /*demand_merged=*/true);
  const ProvenanceSummary s = t.snapshot();
  expect_partition(s);
  EXPECT_EQ(s.tracked_fills, 1u);
  EXPECT_EQ(s.hardware_fills, 1u);
  EXPECT_EQ(s.used_late, 1u);
  // No live record remains: a later "hit" on the line is not a timely use.
  lookups(t, 1);
  t.on_first_demand_hit(9);
  EXPECT_EQ(t.snapshot().used_timely, 0u);
}

TEST(ProvenanceTrackerTest, DisplacedBeforeUseIsEvictedUnused) {
  PollutionTracker t = fate_tracker();
  fill(t, 11, FillOrigin::kHelper);
  evict(t, make_eviction(300, FillOrigin::kHelper, false, FillOrigin::kDemand,
                         /*slot=*/11));
  const ProvenanceSummary s = t.snapshot();
  expect_partition(s);
  EXPECT_EQ(s.evicted_unused, 1u);
  EXPECT_EQ(s.used_timely, 0u);
}

TEST(ProvenanceTrackerTest, StillResidentUnusedAtSnapshotTime) {
  PollutionTracker t = fate_tracker();
  fill(t, 13, FillOrigin::kHardware);
  const ProvenanceSummary s = t.snapshot();
  expect_partition(s);
  EXPECT_EQ(s.resident_unused, 1u);
  // snapshot() is const and provisional: the fill can still earn a better
  // fate afterwards (warm adaptive intervals re-snapshot mid-run).
  lookups(t, 1);
  t.on_first_demand_hit(13);
  const ProvenanceSummary later = t.snapshot();
  expect_partition(later);
  EXPECT_EQ(later.resident_unused, 0u);
  EXPECT_EQ(later.used_timely, 1u);
}

TEST(ProvenanceTrackerTest, ConfirmedVictimReuseMarksTheFillPolluting) {
  PollutionTracker t = fate_tracker();
  lookups(t, 1);
  // The helper fill displaces used demand data (the case-1 raw material).
  evict(t, make_eviction(500, FillOrigin::kDemand, /*victim_used=*/true,
                         FillOrigin::kHelper, /*slot=*/17));
  lookups(t, 5);
  // ...and the processor comes back for the victim: reuse confirmed.
  EXPECT_TRUE(t.on_demand_miss(500));

  const ProvenanceSummary s = t.snapshot();
  expect_partition(s);
  EXPECT_EQ(s.polluting, 1u);
  EXPECT_EQ(s.reuse_confirms, 1u);
  EXPECT_EQ(s.late_pollution_confirms, 0u);
  EXPECT_EQ(s.victim_reuse[ProvenanceSummary::bucket_of(5)], 1u);
  // One confirmation is one case-1 event and one victim reuse.
  EXPECT_EQ(t.stats().case1_reuse_displaced, s.reuse_confirms);
  // Polluting outranks used_timely: a demand hit after the confirmation
  // must not reclassify the fill.
  lookups(t, 1);
  t.on_first_demand_hit(17);
  const ProvenanceSummary after = t.snapshot();
  expect_partition(after);
  EXPECT_EQ(after.polluting, 1u);
  EXPECT_EQ(after.used_timely, 0u);
}

TEST(ProvenanceTrackerTest, ConfirmAfterFillResolvedCountsAsLateConfirm) {
  PollutionTracker t = fate_tracker();
  evict(t, make_eviction(600, FillOrigin::kDemand, true, FillOrigin::kHelper,
                         /*slot=*/19));
  // The displacing fill itself gets evicted before the victim's reuse shows.
  evict(t, make_eviction(601, FillOrigin::kHelper, false, FillOrigin::kDemand,
                         /*slot=*/19));
  lookups(t, 1);
  EXPECT_TRUE(t.on_demand_miss(600));

  const ProvenanceSummary s = t.snapshot();
  expect_partition(s);
  EXPECT_EQ(s.evicted_unused, 1u);  // the fill's fate was already sealed
  EXPECT_EQ(s.polluting, 0u);
  EXPECT_EQ(s.reuse_confirms, 1u);  // the victim reuse still counts...
  EXPECT_EQ(s.late_pollution_confirms, 1u);  // ...flagged as late
}

TEST(ProvenanceTrackerTest, RecycledSlotDoesNotAbsorbStaleBlame) {
  PollutionTracker t = fate_tracker();
  evict(t, make_eviction(800, FillOrigin::kDemand, true, FillOrigin::kHelper,
                         /*slot=*/31));
  // The displacing fill is itself displaced, and an unrelated prefetch
  // recycles the same cache slot before the victim's reuse shows up.
  evict(t, make_eviction(801, FillOrigin::kHelper, false,
                         FillOrigin::kHardware, /*slot=*/31));
  lookups(t, 1);
  EXPECT_TRUE(t.on_demand_miss(800));

  const ProvenanceSummary s = t.snapshot();
  expect_partition(s);
  // The generation check exonerates the new record living at slot 31.
  EXPECT_EQ(s.polluting, 0u);
  EXPECT_EQ(s.late_pollution_confirms, 1u);
  EXPECT_EQ(s.reuse_confirms, 1u);
}

TEST(ProvenanceTrackerTest, DemandEvictionClearsTheVictimShadow) {
  PollutionTracker t = fate_tracker();
  evict(t, make_eviction(700, FillOrigin::kDemand, true, FillOrigin::kHelper,
                         /*slot=*/23));
  // The victim line comes back and is displaced again by a *demand* fill:
  // the stale shadow entry (and its displacement metadata) dies with it.
  evict(t, make_eviction(700, FillOrigin::kDemand, true, FillOrigin::kDemand,
                         /*slot=*/42));
  EXPECT_FALSE(t.on_demand_miss(700));
  const ProvenanceSummary s = t.snapshot();
  EXPECT_EQ(s.reuse_confirms, 0u);
  EXPECT_EQ(s.polluting, 0u);
}

TEST(ProvenanceTrackerTest, ResetReturnsToFreshState) {
  PollutionTracker t = fate_tracker();
  lookups(t, 1);
  fill(t, 29, FillOrigin::kHelper);
  evict(t, make_eviction(900, FillOrigin::kDemand, true, FillOrigin::kHelper,
                         /*slot=*/30));
  t.reset(64, CacheGeometry(64 * 1024, 8, 64), /*track_fates=*/true);
  EXPECT_EQ(t.demand_lookups(), 0u);
  EXPECT_EQ(t.shadow_size(), 0u);
  EXPECT_FALSE(t.on_demand_miss(900));  // the shadow forgot its victims
  EXPECT_EQ(t.stats().case1_reuse_displaced, 0u);
  const ProvenanceSummary s = t.snapshot();
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.tracked_fills, 0u);
  EXPECT_EQ(s.fate_total(), 0u);
  // Resetting with fates off drops the records: the summary is disabled.
  t.reset(64, CacheGeometry(64 * 1024, 8, 64), /*track_fates=*/false);
  fill(t, 29, FillOrigin::kHelper);
  EXPECT_FALSE(t.tracks_fates());
  EXPECT_FALSE(t.snapshot().enabled);
  EXPECT_EQ(t.snapshot().tracked_fills, 0u);
}

TEST(ProvenanceSummaryTest, AddMergesCountersAndHistograms) {
  PollutionTracker a = fate_tracker();
  fill(a, 1, FillOrigin::kHelper);
  lookups(a, 1);
  a.on_first_demand_hit(1);
  PollutionTracker b = fate_tracker();
  fill(b, 2, FillOrigin::kHardware, /*demand_merged=*/true);

  ProvenanceSummary merged = a.snapshot();
  merged.add(b.snapshot());
  expect_partition(merged);
  EXPECT_EQ(merged.tracked_fills, 2u);
  EXPECT_EQ(merged.used_timely, 1u);
  EXPECT_EQ(merged.used_late, 1u);

  // Disabled summaries merge as no-ops.
  ProvenanceSummary disabled;
  ProvenanceSummary target = merged;
  target.add(disabled);
  EXPECT_EQ(target.tracked_fills, merged.tracked_fills);
  EXPECT_EQ(target.fate_total(), merged.fate_total());
}

// ---- invariants over random event streams ---------------------------------

/// Drives a fresh tracker with fates on and one with fates off through the
/// same random, cache-consistent event stream over a tiny direct-mapped "L2"
/// (slot = set): fills evict the slot's previous line, hits on resident
/// prefetch lines report first uses, misses probe absent lines. The fates-off
/// tracker is reused across streams through reset(), so state leaking across
/// a reset shows up as a pollution-count mismatch.
TEST(FillLifecyclePropertyTest, RandomStreamsKeepTheAccountingInvariants) {
  const CacheGeometry geo(16 * 64, 1, 64);  // 16 sets x 1 way
  std::uint64_t confirms = 0, polluting = 0, late = 0;
  PollutionTracker off(1, geo, /*track_fates=*/false);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    const auto capacity = static_cast<std::uint32_t>(1 + rng.below(8));
    PollutionTracker on(capacity, geo, /*track_fates=*/true);
    off.reset(capacity, geo, /*track_fates=*/false);
    struct Resident {
      LineAddr line = 0;
      FillOrigin origin = FillOrigin::kDemand;
      bool used = false;
      bool valid = false;
    };
    std::vector<Resident> slots(geo.num_sets());
    for (int step = 0; step < 2000; ++step) {
      const LineAddr line = rng.below(64);
      const auto slot = static_cast<std::uint32_t>(geo.set_of_line(line));
      Resident& r = slots[slot];
      const bool resident = r.valid && r.line == line;
      if (rng.below(2) == 0) {
        // A demand L2 lookup: hit, or a totally miss that later fills.
        on.on_demand_lookup();
        off.on_demand_lookup();
        if (resident) {
          if (!r.used && r.origin != FillOrigin::kDemand) {
            on.on_first_demand_hit(slot);
            off.on_first_demand_hit(slot);
          }
          r.used = true;
          continue;
        }
        EXPECT_EQ(on.on_demand_miss(line), off.on_demand_miss(line));
      }
      if (resident) continue;
      // A fill: demand, or a helper/hardware prefetch that a demand request
      // may have merged into.
      const auto raw = static_cast<FillOrigin>(rng.below(3));
      const bool merged = raw != FillOrigin::kDemand && rng.below(4) == 0;
      const FillOrigin origin = merged ? FillOrigin::kDemand : raw;
      std::optional<Eviction> ev;
      if (r.valid) {
        ev = make_eviction(r.line, r.origin, r.used, origin, slot);
      }
      on.on_fill(raw, merged, slot, ev);
      off.on_fill(raw, merged, slot, ev);
      r = Resident{.line = line, .origin = origin,
                   .used = origin == FillOrigin::kDemand, .valid = true};
    }

    const PollutionStats& a = on.stats();
    const PollutionStats& b = off.stats();
    EXPECT_EQ(a.case1_reuse_displaced, b.case1_reuse_displaced);
    EXPECT_EQ(a.case2_helper_displaced, b.case2_helper_displaced);
    EXPECT_EQ(a.case3_hw_displaced, b.case3_hw_displaced);
    EXPECT_EQ(a.prefetch_caused_evictions, b.prefetch_caused_evictions);
    EXPECT_EQ(a.total_evictions, b.total_evictions);
    EXPECT_LE(on.shadow_size(), capacity);
    EXPECT_FALSE(off.snapshot().enabled);

    const ProvenanceSummary s = on.snapshot();
    expect_partition(s);
    EXPECT_EQ(s.reuse_confirms, a.case1_reuse_displaced);
    EXPECT_EQ(s.polluted_sets, on.polluted_set_count());
    std::uint64_t fill_mass = 0, reuse_mass = 0, heat_mass = 0;
    for (std::size_t k = 0; k < ProvenanceSummary::kHistogramBuckets; ++k) {
      fill_mass += s.fill_to_use[k];
      reuse_mass += s.victim_reuse[k];
      heat_mass += s.set_heatmap[k];
    }
    EXPECT_EQ(fill_mass, s.used_timely);
    EXPECT_EQ(reuse_mass, s.reuse_confirms);
    EXPECT_EQ(heat_mass, s.polluted_sets);
    EXPECT_LE(s.late_pollution_confirms, s.reuse_confirms);
    confirms += s.reuse_confirms;
    polluting += s.polluting;
    late += s.late_pollution_confirms;
  }
  // The streams must reach the confirm paths, or the invariants hold
  // vacuously.
  EXPECT_GT(confirms, 0u);
  EXPECT_GT(polluting, 0u);
  EXPECT_GT(late, 0u);
}

}  // namespace
}  // namespace spf
