// Property tests: the packed cache model against a plain reference cache
// written from cache.hpp's contract — per-set vectors of full lines, full-tag
// compares, reference stamps for LRU, no SIMD and no bit packing. Seeded
// access / fill / mark_dirty / invalidate / reset streams are replayed
// through both, and every observable answer must agree: hit/miss, the
// first-demand-use slot, the victim and its metadata, slot reports, the
// mark_dirty/invalidate results, occupancy, probe, stats and for_each_line
// order.
//
// The line pools deliberately include lines whose tags share their low 16
// bits, so the partial-tag prefilter produces false candidates that only the
// full-tag confirmation can reject. Replacement is LRU, the policy whose
// state layout the packed model changes; the LruState property below also
// covers sets that are only partly touched, which the cache never exposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/cache/replacement.hpp"
#include "spf/common/rng.hpp"

namespace spf {
namespace {

struct RefLine {
  bool valid = false;
  LineAddr line = 0;
  bool dirty = false;
  FillOrigin origin = FillOrigin::kDemand;
  bool used = false;
  std::uint64_t stamp = 0;  // last hit or fill, for LRU
};

struct RefEviction {
  RefLine victim;
  LineAddr replaced_by = 0;
  FillOrigin replaced_by_origin = FillOrigin::kDemand;
  Cycle when = 0;
  std::uint32_t slot = 0;
};

/// The cache contract, spelled out plainly. Set = line mod sets; a fill
/// takes the lowest invalid way, else evicts the least recently hit or
/// filled way.
class ReferenceCache {
 public:
  ReferenceCache(std::uint64_t sets, std::uint32_t ways)
      : sets_(sets), ways_(ways), lines_(sets, std::vector<RefLine>(ways)) {}

  std::optional<std::uint32_t> find(LineAddr line) const {
    const auto& set = lines_[line % sets_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].line == line) return w;
    }
    return std::nullopt;
  }

  /// Returns hit, and the first-demand-use slot (Cache::kNoSlot if none).
  bool access(LineAddr line, AccessKind kind, std::uint32_t& first_use) {
    first_use = Cache::kNoSlot;
    ++lookups;
    const auto way = find(line);
    if (!way) {
      ++misses;
      return false;
    }
    ++hits;
    RefLine& l = lines_[line % sets_][*way];
    l.stamp = ++clock_;
    if (kind != AccessKind::kPrefetch) {
      if (!l.used && l.origin != FillOrigin::kDemand) first_use = slot(line, *way);
      l.used = true;
    }
    if (kind == AccessKind::kWrite) l.dirty = true;
    return true;
  }

  std::optional<RefEviction> fill(LineAddr line, FillOrigin origin, Cycle now,
                                  std::uint32_t& slot_out) {
    auto& set = lines_[line % sets_];
    if (const auto way = find(line)) {
      set[*way].stamp = ++clock_;
      if (origin == FillOrigin::kDemand) set[*way].used = true;
      slot_out = slot(line, *way);
      return std::nullopt;
    }
    ++fills;
    std::optional<RefEviction> ev;
    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_ && way == ways_; ++w) {
      if (!set[w].valid) way = w;
    }
    if (way == ways_) {
      way = 0;
      for (std::uint32_t w = 1; w < ways_; ++w) {
        if (set[w].stamp < set[way].stamp) way = w;
      }
      ++evictions;
      ev = RefEviction{set[way], line, origin, now, slot(line, way)};
    }
    set[way] = RefLine{.valid = true,
                       .line = line,
                       .dirty = false,
                       .origin = origin,
                       .used = origin == FillOrigin::kDemand,
                       .stamp = ++clock_};
    slot_out = slot(line, way);
    return ev;
  }

  bool mark_dirty(LineAddr line) {
    const auto way = find(line);
    if (way) lines_[line % sets_][*way].dirty = true;
    return way.has_value();
  }

  bool invalidate(LineAddr line) {
    const auto way = find(line);
    if (way) lines_[line % sets_][*way].valid = false;
    return way.has_value();
  }

  std::uint32_t occupancy(std::uint64_t set) const {
    return static_cast<std::uint32_t>(
        std::count_if(lines_[set].begin(), lines_[set].end(),
                      [](const RefLine& l) { return l.valid; }));
  }

  /// Valid lines, sets ascending then ways ascending.
  std::vector<RefLine> valid_lines() const {
    std::vector<RefLine> out;
    for (const auto& set : lines_) {
      for (const RefLine& l : set) {
        if (l.valid) out.push_back(l);
      }
    }
    return out;
  }

  std::uint64_t lookups = 0, hits = 0, misses = 0, fills = 0, evictions = 0;

 private:
  std::uint32_t slot(LineAddr line, std::uint32_t way) const {
    return static_cast<std::uint32_t>((line % sets_) * ways_ + way);
  }

  std::uint64_t sets_;
  std::uint32_t ways_;
  std::vector<std::vector<RefLine>> lines_;
  std::uint64_t clock_ = 0;
};

constexpr std::uint64_t kSets = 4;
constexpr std::uint32_t kLineBytes = 64;

CacheGeometry geometry_for(std::uint32_t ways) {
  return CacheGeometry(kSets * ways * kLineBytes, ways, kLineBytes);
}

/// Lines over kSets sets: per set, ~2x ways distinct tags, half of them
/// equal to another tag in the low 16 bits.
std::vector<LineAddr> line_pool(std::uint32_t ways) {
  std::vector<LineAddr> pool;
  const std::uint64_t tags = ways + 2;
  for (std::uint64_t set = 0; set < kSets; ++set) {
    for (std::uint64_t t = 0; t < tags; ++t) {
      pool.push_back(t * kSets + set);
      // Same low 16 tag bits as `t`, different full tag.
      pool.push_back((t + (std::uint64_t{1} << 16) * (1 + t % 3)) * kSets + set);
    }
  }
  return pool;
}

FillOrigin any_origin(Xoshiro256& rng) {
  return static_cast<FillOrigin>(rng.below(3));
}

void expect_same_line(const CacheLine& got, const RefLine& want,
                      const std::string& where) {
  EXPECT_EQ(got.line, want.line) << where;
  EXPECT_TRUE(got.valid) << where;
  EXPECT_EQ(got.dirty, want.dirty) << where;
  EXPECT_EQ(got.origin, want.origin) << where;
  EXPECT_EQ(got.used_since_fill, want.used) << where;
}

void expect_same_state(const Cache& c, const ReferenceCache& ref,
                       const std::vector<LineAddr>& pool,
                       const std::string& where) {
  for (std::uint64_t s = 0; s < kSets; ++s) {
    ASSERT_EQ(c.set_occupancy(s), ref.occupancy(s)) << where << " set " << s;
  }
  std::vector<CacheLine> seen;
  c.for_each_line([&](const CacheLine& l) { seen.push_back(l); });
  const std::vector<RefLine> want = ref.valid_lines();
  ASSERT_EQ(seen.size(), want.size()) << where;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    expect_same_line(seen[i], want[i], where + " for_each_line #" +
                                           std::to_string(i));
  }
  for (const LineAddr line : pool) {
    const std::optional<CacheLine> got = c.probe(line);
    const auto way = ref.find(line);
    ASSERT_EQ(got.has_value(), way.has_value()) << where << " probe " << line;
  }
  EXPECT_EQ(c.stats().lookups, ref.lookups) << where;
  EXPECT_EQ(c.stats().hits, ref.hits) << where;
  EXPECT_EQ(c.stats().misses, ref.misses) << where;
  EXPECT_EQ(c.stats().fills, ref.fills) << where;
  EXPECT_EQ(c.stats().evictions, ref.evictions) << where;
}

void expect_same_eviction(const std::optional<Eviction>& got,
                          const std::optional<RefEviction>& want,
                          const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  expect_same_line(got->victim, want->victim, where + " victim");
  EXPECT_EQ(got->replaced_by, want->replaced_by) << where;
  EXPECT_EQ(got->replaced_by_origin, want->replaced_by_origin) << where;
  EXPECT_EQ(got->when, want->when) << where;
  EXPECT_EQ(got->slot, want->slot) << where;
}

/// Replays `ops` seeded random operations through both models. Every
/// `reset_every` ops the cache is reset_to() a cold cache — alternately of a
/// different associativity and back — to prove stale slots are never read.
void run_stream(std::uint32_t ways, std::uint64_t seed, int ops,
                int reset_every) {
  Cache c(geometry_for(ways), ReplacementKind::kLru, seed);
  ReferenceCache ref(kSets, ways);
  std::vector<LineAddr> pool = line_pool(ways);
  std::uint32_t cur_ways = ways;
  Xoshiro256 rng(seed);

  for (int op = 0; op < ops; ++op) {
    const std::string where = "ways " + std::to_string(cur_ways) + " seed " +
                              std::to_string(seed) + " op " +
                              std::to_string(op);
    if (reset_every > 0 && op > 0 && op % reset_every == 0) {
      // Bounce between the test's associativity and a smaller one so a
      // reset reuses storage laid out for another shape.
      cur_ways = cur_ways == ways ? std::max(1u, ways / 2) : ways;
      c.reset_to(geometry_for(cur_ways), ReplacementKind::kLru, seed);
      ref = ReferenceCache(kSets, cur_ways);
      pool = line_pool(cur_ways);
      expect_same_state(c, ref, pool, where + " after reset");
    }
    const LineAddr line = pool[rng.below(pool.size())];
    const std::uint64_t roll = rng.below(100);
    if (roll < 50) {
      const auto kind = static_cast<AccessKind>(rng.below(3));
      std::uint32_t got_first = 0, want_first = 0;
      const bool hit = c.access(line, kind, op, got_first);
      ASSERT_EQ(hit, ref.access(line, kind, want_first)) << where;
      ASSERT_EQ(got_first, want_first) << where;
      if (!hit && rng.below(2) == 0) {
        // The simulator's L1 refill: fill_absent right after the miss.
        const FillOrigin origin = any_origin(rng);
        std::uint32_t got_slot = 0, want_slot = 0;
        const auto got = c.fill_absent(line, origin, 0, op, &got_slot);
        const auto want = ref.fill(line, origin, op, want_slot);
        expect_same_eviction(got, want, where + " fill_absent");
        ASSERT_EQ(got_slot, want_slot) << where;
      }
    } else if (roll < 80) {
      const FillOrigin origin = any_origin(rng);
      std::uint32_t got_slot = 0, want_slot = 0;
      const auto got = c.fill(line, origin, 0, op, &got_slot);
      const auto want = ref.fill(line, origin, op, want_slot);
      expect_same_eviction(got, want, where + " fill");
      ASSERT_EQ(got_slot, want_slot) << where;
    } else if (roll < 90) {
      ASSERT_EQ(c.mark_dirty(line), ref.mark_dirty(line)) << where;
    } else {
      ASSERT_EQ(c.invalidate(line), ref.invalidate(line)) << where;
    }
    if (op % 64 == 0) expect_same_state(c, ref, pool, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_state(c, ref, pool, "end");
}

class CacheModelProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheModelProperty, MatchesReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    run_stream(GetParam(), seed, 6000, 0);
    if (HasFatalFailure()) return;
  }
}

TEST_P(CacheModelProperty, MatchesReferenceAcrossResets) {
  for (std::uint64_t seed : {11u, 12u}) {
    run_stream(GetParam(), seed, 6000, 700);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheModelProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u, 64u),
                         [](const auto& param_info) {
                           return "ways" + std::to_string(param_info.param);
                         });

// The LRU policy state on its own, including sets that were only partly
// touched: untouched ways count as least recent, lowest way first, and the
// victim is the least recently touched way otherwise.
TEST(LruOrderProperty, VictimMatchesReferenceStamps) {
  for (std::uint32_t ways : {1u, 2u, 3u, 4u, 8u, 15u, 16u, 17u, 24u, 32u, 63u, 64u}) {
    constexpr std::uint64_t kPolicySets = 3;
    ReplacementState lru(ReplacementKind::kLru, kPolicySets, ways);
    std::vector<std::uint64_t> stamps(kPolicySets * ways, 0);
    std::uint64_t clock = 0;
    Xoshiro256 rng(ways);
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t set = rng.below(kPolicySets);
      if (rng.below(4) != 0) {
        // Skew toward low ways so some ways stay untouched for a while.
        const auto way = static_cast<std::uint32_t>(
            rng.below(1 + rng.below(ways)));
        if (rng.below(2) == 0) {
          lru.on_hit(set, way);
        } else {
          lru.on_fill(set, way);
        }
        stamps[set * ways + way] = ++clock;
      }
      std::uint32_t want = 0;
      for (std::uint32_t w = 1; w < ways; ++w) {
        if (stamps[set * ways + w] < stamps[set * ways + want]) want = w;
      }
      ASSERT_EQ(lru.victim(set), want) << "ways " << ways << " op " << op;
    }
    // A reset forgets every touch.
    lru.reset_to(ReplacementKind::kLru, kPolicySets, ways);
    for (std::uint64_t set = 0; set < kPolicySets; ++set) {
      ASSERT_EQ(lru.victim(set), 0u) << "ways " << ways << " after reset";
    }
  }
}

}  // namespace
}  // namespace spf
