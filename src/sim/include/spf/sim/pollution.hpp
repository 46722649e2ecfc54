// The fill-lifecycle tracker: one observer of the shared L2's fills,
// evictions, first demand uses and demand re-misses, answering two
// questions from that one event stream.
//
// Cache pollution, the paper's three cases (§II.C):
//
//   "Cache pollution due to threaded prefetching can happen in several cases:
//    1. A prematurely prefetched block displaces data in the cache that will
//       be reused by the processor.
//    2. A prematurely prefetched block displaces data in the cache that is
//       just fetched by helper thread but still not be used by the processor.
//    3. A prematurely prefetched block displaces data in the cache that is
//       just prefetched by hardware prefetchers but still not be used by the
//       processor."
//
// Cases 2 and 3 are decidable at eviction time from the victim's metadata
// (an unused helper/hardware fill displaced by a prefetch fill). Case 1
// needs future knowledge — "will be reused" — so evictions of *useful* data
// by prefetch fills are remembered in a bounded victim shadow; a later demand
// miss on a shadowed line confirms the reuse and counts the event.
//
// Prefetch fates (SimConfig::provenance only; docs/provenance.md): every
// helper/hardware prefetch fill is followed from install to one of five
// fates —
//
//   used_timely     a demand access hit the line after its fill.
//   used_late       the demand miss was already in flight when the prefetch
//                   fill completed (MSHR-merged): issued too late (§II.B).
//   evicted_unused  displaced before any demand use.
//   polluting       the fill displaced a victim whose reuse a later demand
//                   miss confirmed (case 1, attributed to the displacing fill).
//   resident_unused still cached, never used, when the summary was taken.
//
// — with log2 histograms, in units of demand L2 lookups, of fill→first-use
// distance and of displacement→re-miss distance. A shadow entry carries the
// displacement metadata (evict lookup, evictor slot and record generation)
// itself, so a case-1 confirmation and a victim-reuse count are one event:
// reuse_confirms == case1_reuse_displaced by construction.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/common/ring_buffer.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/mem/types.hpp"

namespace spf {

struct PollutionStats {
  /// Prefetch fill displaced useful data that was later demand-missed.
  std::uint64_t case1_reuse_displaced = 0;
  /// Prefetch fill displaced an unused helper-thread fill.
  std::uint64_t case2_helper_displaced = 0;
  /// Prefetch fill displaced an unused hardware-prefetch fill.
  std::uint64_t case3_hw_displaced = 0;
  /// All evictions whose *evictor* was a prefetch fill (denominator).
  std::uint64_t prefetch_caused_evictions = 0;
  /// All evictions (any cause).
  std::uint64_t total_evictions = 0;

  [[nodiscard]] std::uint64_t total_pollution() const noexcept {
    return case1_reuse_displaced + case2_helper_displaced + case3_hw_displaced;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Per-run provenance results. Plain additive counters plus fixed-size
/// histograms, so summaries can be merged across adaptive intervals.
struct ProvenanceSummary {
  static constexpr std::size_t kHistogramBuckets = 32;

  /// False when the run did not track provenance (SimConfig::provenance off);
  /// consumers must treat every other field as absent.
  bool enabled = false;

  /// Helper/hardware prefetch fills that installed into L2 (demand-merged
  /// fills included — they classify as used_late at install time).
  std::uint64_t tracked_fills = 0;
  std::uint64_t helper_fills = 0;
  std::uint64_t hardware_fills = 0;

  // The five fates. Invariant: they sum to tracked_fills.
  std::uint64_t used_timely = 0;
  std::uint64_t used_late = 0;
  std::uint64_t evicted_unused = 0;
  std::uint64_t polluting = 0;
  std::uint64_t resident_unused = 0;

  /// Shadow-confirmed victim re-misses (== victim_reuse histogram mass).
  std::uint64_t reuse_confirms = 0;
  /// Confirmations that arrived after the displacing fill's own record had
  /// already resolved (its line was evicted first); counted but no longer
  /// re-attributable to a live fate.
  std::uint64_t late_pollution_confirms = 0;
  /// Sum of fill→first-use distances over used_timely fills (mean = this /
  /// used_timely).
  std::uint64_t fill_to_use_total = 0;
  /// Sets with at least one pollution event (== set_heatmap mass).
  std::uint64_t polluted_sets = 0;

  /// log2 histogram of fill→first-use distance, demand L2 lookups.
  std::array<std::uint64_t, kHistogramBuckets> fill_to_use{};
  /// log2 histogram of displacement→re-miss distance, demand L2 lookups.
  std::array<std::uint64_t, kHistogramBuckets> victim_reuse{};
  /// log2 histogram of per-set pollution event counts (one entry per
  /// polluted set).
  std::array<std::uint64_t, kHistogramBuckets> set_heatmap{};

  /// Sum of the five fate counters; equals tracked_fills by construction.
  [[nodiscard]] std::uint64_t fate_total() const noexcept {
    return used_timely + used_late + evicted_unused + polluting +
           resident_unused;
  }
  [[nodiscard]] double timely_rate() const noexcept {
    return tracked_fills == 0
               ? 0.0
               : static_cast<double>(used_timely) /
                     static_cast<double>(tracked_fills);
  }
  [[nodiscard]] double fill_to_use_mean() const noexcept {
    return used_timely == 0 ? 0.0
                            : static_cast<double>(fill_to_use_total) /
                                  static_cast<double>(used_timely);
  }

  /// Merge `other` into this summary (adaptive cold intervals accumulate
  /// per-interval summaries). No-op when `other` is disabled.
  void add(const ProvenanceSummary& other) noexcept;

  /// Bucket index for a demand-lookup distance: 0 for 0, else
  /// min(bit_width(d), kHistogramBuckets - 1).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t distance) noexcept {
    if (distance == 0) return 0;
    const auto width = static_cast<std::size_t>(std::bit_width(distance));
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
  }
};

class PollutionTracker {
 public:
  /// `geometry` is the shared L2's: pollution events are attributed to its
  /// sets, and with `track_fates` one fate record is kept per (set, way)
  /// slot. Without it the tracker allocates no fate records and every fate
  /// hook is one predictable branch.
  PollutionTracker(std::uint32_t shadow_capacity, const CacheGeometry& geometry,
                   bool track_fates = false);

  /// As-if-freshly-constructed, reusing shadow/per-set/record storage
  /// (ExperimentContext reuse seam).
  void reset(std::uint32_t shadow_capacity, const CacheGeometry& geometry,
             bool track_fates = false);

  [[nodiscard]] bool tracks_fates() const noexcept { return track_fates_; }

  /// Advance the reuse clock: call once per *demand-core* L2 lookup.
  void on_demand_lookup() noexcept { ++demand_lookups_; }

  /// An L2 fill drained from the MSHR file. `raw_origin` is the MSHR entry's
  /// origin before the demand-merge upgrade, `slot` the cache slot the line
  /// occupies after the fill (Cache::fill's slot_out; read only when fates
  /// are tracked), and `evicted` what Cache::fill returned. The victim is
  /// classified (and its fate record retired) before the incoming
  /// prefetch's record takes over the slot.
  void on_fill(FillOrigin raw_origin, bool demand_merged, std::uint32_t slot,
               const std::optional<Eviction>& evicted) {
    if (evicted) on_eviction(*evicted);
    if (track_fates_ && raw_origin != FillOrigin::kDemand) {
      record_fill(slot, raw_origin, demand_merged);
    }
  }

  /// First demand use of a prefetch-origin line in cache slot `slot` (from
  /// Cache::access's first_use_slot report). Later hits on the same fill
  /// are ignored.
  void on_first_demand_hit(std::uint32_t slot) {
    if (track_fates_) mark_used(slot);
  }

  /// Feed every *demand* L2 totally-miss here. Returns true when the miss is
  /// attributed to case-1 pollution (the line was recently displaced by a
  /// prefetch fill); with fates tracked the confirmation also buckets the
  /// victim's reuse distance and marks the displacing fill polluting.
  bool on_demand_miss(LineAddr line);

  [[nodiscard]] const PollutionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t shadow_size() const noexcept {
    return shadow_size_;
  }
  [[nodiscard]] std::uint64_t demand_lookups() const noexcept {
    return demand_lookups_;
  }

  /// Pollution events attributed to `set`.
  [[nodiscard]] std::uint64_t set_pollution(std::uint64_t set) const;
  /// The n worst-hit sets, ordered by descending event count; equal counts
  /// break ties by ascending set index, so heatmap artifacts are stable
  /// across platforms and standard-library sort implementations.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  top_polluted_sets(std::size_t n) const;
  /// Number of sets with at least one pollution event.
  [[nodiscard]] std::uint64_t polluted_set_count() const;

  /// The fate summary: resolved fates plus a provisional classification of
  /// still-live fills (resident_unused / used_timely), and the per-set
  /// pollution heatmap. Disabled (all zero) unless fates are tracked. Const —
  /// warm adaptive intervals snapshot repeatedly while the run continues.
  [[nodiscard]] ProvenanceSummary snapshot() const;

 private:
  /// A shadowed victim line and what displaced it: the demand-lookup clock
  /// at the eviction, and the slot and record generation of the displacing
  /// prefetch fill (the generation the fill's record is about to receive —
  /// only non-merged prefetch fills are shadowed, and exactly those get a
  /// record at the same slot right after their eviction is classified).
  struct ShadowEntry {
    LineAddr line = 0;
    std::uint32_t evict_lookup = 0;
    std::uint32_t evictor_slot = 0;
    std::uint32_t evictor_gen = 0;
    /// Live iff equal to shadow_epoch_ (0 is never current): a reset bumps
    /// the epoch instead of clearing the table.
    std::uint32_t epoch = 0;
  };

  // Fate record state bits, one byte per cache slot.
  static constexpr std::uint8_t kActive = 1;     // slot holds a live record
  static constexpr std::uint8_t kUsed = 2;       // first demand use seen
  static constexpr std::uint8_t kPolluting = 4;  // victim reuse confirmed

  void on_eviction(const Eviction& ev);
  void attribute(LineAddr line);
  void record_fill(std::uint32_t slot, FillOrigin raw_origin,
                   bool demand_merged);
  void mark_used(std::uint32_t slot);
  /// Classify and retire the live record at `slot`. `evicted` distinguishes
  /// the evicted_unused fate from the end-of-run resident remainder.
  void resolve(std::uint32_t slot, bool evicted);

  // The victim shadow: a bounded open-addressing table (see pollution.cpp).
  [[nodiscard]] std::size_t shadow_home(LineAddr line) const noexcept {
    // Fibonacci multiply-shift onto the power-of-two table.
    return (line * 0x9E3779B97F4A7C15ull) & shadow_mask_;
  }
  [[nodiscard]] bool shadow_live(std::size_t i) const noexcept {
    return shadow_[i].epoch == shadow_epoch_;
  }
  void shadow_reset(std::uint32_t capacity);
  void shadow_insert(const ShadowEntry& entry);
  /// Remove `line`'s entry; returns false when it was absent, else copies
  /// the entry to `out`.
  bool shadow_erase(LineAddr line, ShadowEntry& out);
  void shadow_erase_at(std::size_t hole);

  /// The packed per-slot record word: low half is the clock field (fill
  /// lookup until first use, then the fill->first-use distance — the state
  /// machine never needs both at once), high half the record generation
  /// (assigned from next_gen_ at fill; the generation check in
  /// on_demand_miss keeps a recycled slot from absorbing another fill's
  /// blame). Clocks and generations are truncated to 32 bits, so distances
  /// are computed modulo 2^32: exact below ~4.3 billion demand lookups,
  /// which a resident line would have to survive untouched to mis-bucket.
  [[nodiscard]] static std::uint64_t pack(std::uint32_t clock,
                                          std::uint32_t gen) noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) | clock;
  }
  [[nodiscard]] std::uint32_t clock_of(std::uint32_t slot) const noexcept {
    return static_cast<std::uint32_t>(words_[slot]);
  }
  [[nodiscard]] std::uint32_t gen_of(std::uint32_t slot) const noexcept {
    return static_cast<std::uint32_t>(words_[slot] >> 32);
  }

  CacheGeometry geometry_;
  PollutionStats stats_;
  /// FIFO of shadowed lines bounding the shadow table.
  RingBuffer<LineAddr> shadow_order_;
  std::vector<ShadowEntry> shadow_;
  std::size_t shadow_mask_ = 0;
  std::size_t shadow_size_ = 0;
  std::uint32_t shadow_epoch_ = 0;
  /// set -> pollution events (all three cases).
  std::vector<std::uint64_t> per_set_;

  bool track_fates_ = false;
  std::uint64_t demand_lookups_ = 0;
  std::uint64_t next_gen_ = 0;
  /// Fates of records already retired, plus the confirm counters/histograms.
  ProvenanceSummary resolved_;
  // Live fate records, structure-of-arrays indexed by cache slot: a one-byte
  // state array probed on every eviction and first use, with the packed
  // clock/generation word touched only on the rarer state transitions.
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint64_t> words_;
};

}  // namespace spf
