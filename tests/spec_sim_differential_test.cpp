// Differential test of the replay engine against the executable spec
// (tests/spec_sim.hpp): every SimResult field test::expect_same_result
// compares must be identical between CmpSimulator and the spec simulator,
// which shares none of the engine's scheduling, cache, MSHR or pollution
// code. Fixed cases replay seeded random IR traces (single stream, main +
// helper, occupancy sampling) and a structured EM3D workload; the fuzz
// suite draws, per seed, 1–3 streams with and without RoundSync, L2
// associativity 1–16, MSHR depth 1–16, small and default shadow capacity,
// hardware prefetch and occupancy sampling on and off, and equal compute
// gaps that make scheduler ties common. About half of the seeds are
// directed at the fate corners: a main-stream revisit pass re-touches lines
// the helper displaced, on a tiny L2 whose slots recycle. Those seeds and
// half of the rest track provenance, and their whole ProvenanceSummary
// (fates, confirms, histograms) must match the spec's line-keyed fate
// model. Dedicated ctest entries replay the binary under
// SPF_FORCE_SCALAR_TAGS=1 and, in -DSPF_SANITIZE=undefined builds, under
// UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <utility>
#include <vector>

#include "ir_fuzz_util.hpp"
#include "sim_test_util.hpp"
#include "spec_sim.hpp"
#include "spf/common/rng.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/ir/interp.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/workloads/em3d.hpp"

namespace spf {
namespace {

/// Runs `streams` through the engine and the spec, requires identical
/// results, and returns the engine's; `corners`, when given, receives the
/// spec's fate-corner tallies.
SimResult expect_engine_matches_spec(const SimConfig& config,
                                     const std::vector<CoreStream>& streams,
                                     spec::FateCorners* corners = nullptr) {
  const SimResult actual = CmpSimulator(config).run(streams);
  spec::SpecSimulator spec_sim(config);
  test::expect_same_result(actual, spec_sim.run(streams));
  if (corners != nullptr) *corners = spec_sim.corners();
  return actual;
}

/// Small shared L2 so random traces actually generate misses, evictions and
/// MSHR pressure instead of fitting in cache.
SimConfig small_machine() {
  SimConfig config;
  config.l1 = CacheGeometry(4 * 1024, 4, 64);
  config.l2 = CacheGeometry(64 * 1024, 8, 64);
  config.l2_mshrs = 8;
  return config;
}

CoreStream main_stream(const TraceBuffer& trace) {
  return {.trace = &trace, .origin = FillOrigin::kDemand, .sync = std::nullopt};
}

CoreStream helper_stream(const TraceBuffer& helper, const SpParams& params) {
  return {.trace = &helper,
          .origin = FillOrigin::kHelper,
          .sync = RoundSync{.leader = 0, .round_iters = params.round()}};
}

class ReplayDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReplayDifferentialTest, RandomTraceMainPlusHelper) {
  ir::VirtualMemory vm;
  const ir::InterpResult interp =
      ir::interpret(ir::random_program(GetParam(), vm), vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  const SpParams params{.a_ski = 2, .a_pre = 3};
  const TraceBuffer helper = make_helper_trace(interp.trace, params);
  expect_engine_matches_spec(
      small_machine(),
      {main_stream(interp.trace), helper_stream(helper, params)});
}

TEST_P(ReplayDifferentialTest, RandomTraceSingleStream) {
  ir::VirtualMemory vm;
  const ir::InterpResult interp =
      ir::interpret(ir::random_program(GetParam(), vm), vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  expect_engine_matches_spec(small_machine(), {main_stream(interp.trace)});
}

TEST_P(ReplayDifferentialTest, RandomTraceWithOccupancySampling) {
  ir::VirtualMemory vm;
  const ir::InterpResult interp =
      ir::interpret(ir::random_program(GetParam(), vm), vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  const SpParams params{.a_ski = 1, .a_pre = 4};
  const TraceBuffer helper = make_helper_trace(interp.trace, params);
  SimConfig config = small_machine();
  // Deliberately small interval: samples land mid-batch, so the engine must
  // honor sample points record-by-record.
  config.occupancy_sample_interval = 512;
  expect_engine_matches_spec(
      config, {main_stream(interp.trace), helper_stream(helper, params)});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(ReplayDifferentialEm3dTest, StructuredWorkloadAgrees) {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  const SpParams params = SpParams::from_distance_rp(8, 0.5);
  const TraceBuffer helper = make_helper_trace(trace, params);

  SimConfig config = small_machine();
  config.occupancy_sample_interval = 4096;
  expect_engine_matches_spec(
      config, {main_stream(trace), helper_stream(helper, params)});
}

TEST(ReplayDifferentialEm3dTest, NoHwPrefetchAgrees) {
  Em3dConfig wl;
  wl.nodes = 2000;
  wl.arity = 8;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  const SpParams params = SpParams::from_distance_rp(4, 1.0);
  const TraceBuffer helper = make_helper_trace(trace, params);

  SimConfig config = small_machine();
  config.hw_prefetch = false;
  expect_engine_matches_spec(
      config, {main_stream(trace), helper_stream(helper, params)});
}

// ---- hand-built fate sequences ----------------------------------------------

/// A direct-mapped 4-line L2 behind a direct-mapped 2-line L1, provenance on:
/// lines 0, 4 and 8 share L2 set 0 (one slot), lines 0, 2, 4 L1 set 0. The
/// main stream's software prefetches fill with helper origin; a 1000-cycle
/// gap lets each fill land before the next record.
SimResult run_fate_sequence(
    std::initializer_list<std::pair<std::uint64_t, AccessKind>> records) {
  SimConfig config;
  config.l1 = CacheGeometry(2 * 64, 1, 64);
  config.l2 = CacheGeometry(4 * 64, 1, 64);
  config.hw_prefetch = false;
  config.provenance = true;
  TraceBuffer trace;
  for (const auto& [line, kind] : records) {
    trace.emit(line * 64, 0, kind, 0, 0, 1000);
  }
  return expect_engine_matches_spec(config, {main_stream(trace)});
}

TEST(ReplayDifferentialFateTest, UsedFillWhoseVictimReMissesIsPolluting) {
  // Prefetch 4 displaces demand line 0 and is then used; the re-miss on 0
  // blames it while it is still resident. Polluting outranks used_timely.
  const ProvenanceSummary p = run_fate_sequence({{0, AccessKind::kRead},
                                                 {4, AccessKind::kPrefetch},
                                                 {4, AccessKind::kRead},
                                                 {0, AccessKind::kRead}})
                                  .provenance;
  EXPECT_EQ(p.tracked_fills, 1u);
  EXPECT_EQ(p.polluting, 1u);
  EXPECT_EQ(p.used_timely, 0u);
  EXPECT_EQ(p.reuse_confirms, 1u);
}

TEST(ReplayDifferentialFateTest, ConfirmAfterTheSlotIsRecycledIsLate) {
  // Prefetch 4 displaces line 0, then prefetch 8 displaces 4 and recycles
  // its slot before the re-miss on 0: the blame finds a different fill.
  const ProvenanceSummary p = run_fate_sequence({{0, AccessKind::kRead},
                                                 {4, AccessKind::kPrefetch},
                                                 {8, AccessKind::kPrefetch},
                                                 {2, AccessKind::kRead},
                                                 {0, AccessKind::kRead}})
                                  .provenance;
  EXPECT_EQ(p.tracked_fills, 2u);
  EXPECT_EQ(p.polluting, 0u);
  EXPECT_EQ(p.evicted_unused, 2u);
  EXPECT_EQ(p.reuse_confirms, 1u);
  EXPECT_EQ(p.late_pollution_confirms, 1u);
}

// ---- randomized matrix ----------------------------------------------------

/// `trace` with a revisit pass at the end of each outer iteration i: the
/// records of iteration i - lag again, as stores (which the helper never
/// pre-executes), re-tagged to iteration i, with lag drawn per iteration
/// from [1, max_lag]. By then the helper has run ahead, so a line one of
/// its fills displaced is re-missed while that fill is often resident and
/// already used — or, in a tiny L2, after the fill's slot was recycled.
TraceBuffer with_revisits(const TraceBuffer& trace, Xoshiro256& rng,
                          std::uint32_t max_lag) {
  std::map<std::uint32_t, std::vector<TraceRecord>> by_iter;
  for (const TraceRecord& r : trace) by_iter[r.outer_iter].push_back(r);
  TraceBuffer out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    out.mutable_records().push_back(trace[i]);
    const std::uint32_t iter = trace[i].outer_iter;
    if (i + 1 < trace.size() && trace[i + 1].outer_iter == iter) continue;
    const auto lag = static_cast<std::uint32_t>(1 + rng.below(max_lag));
    if (iter < lag) continue;
    const auto earlier = by_iter.find(iter - lag);
    if (earlier == by_iter.end()) continue;
    for (const TraceRecord& r : earlier->second) {
      out.mutable_records().push_back(TraceRecord::make(
          r.addr, iter, AccessKind::kWrite, r.site, r.flags(), r.compute_gap));
    }
  }
  return out;
}

struct FuzzOutcome {
  SimResult result;
  spec::FateCorners corners;
};

/// One fuzz case: traces, machine and stream set drawn from `seed`. Returns
/// the engine's result (empty when the program emitted no records) and the
/// spec's fate-corner tallies.
FuzzOutcome run_fuzz_case(std::uint64_t seed) {
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  // Half the cases are directed: revisits (with_revisits) on a tiny L2
  // (1–4 sets of 1–4 ways) with a helper and provenance on. They draw from
  // their own stream, so the other cases keep the traces and machines they
  // always had.
  Xoshiro256 directed_rng(seed * 0xBF58476D1CE4E5B9ull + 3);
  const bool directed = directed_rng.below(2) == 0;
  const std::uint32_t tiny_ways = 1u << directed_rng.below(3);
  const std::uint64_t tiny_lines = tiny_ways << directed_rng.below(3);
  const CacheGeometry tiny_l2(tiny_lines * 64, tiny_ways, 64);
  ir::VirtualMemory vm;
  const TraceBuffer program_trace =
      ir::interpret(ir::random_program(seed, vm), vm).trace;
  if (program_trace.size() == 0) return {};
  // Tile the program's iterations over 1–6 shifted copies of its footprint:
  // a longer run with more distinct lines than the small caches below hold,
  // so evictions, writebacks and every pollution case actually occur.
  const std::uint64_t copies = 1 + rng.below(6);
  const Addr stride = (1 + rng.below(64)) * 4096;
  std::uint32_t trip = 0;
  for (const TraceRecord& r : program_trace) {
    trip = std::max(trip, r.outer_iter + 1);
  }
  TraceBuffer trace;
  for (std::uint64_t k = 0; k < copies; ++k) {
    for (TraceRecord r : program_trace) {
      r.addr += k * stride;
      r.outer_iter += static_cast<std::uint32_t>(k) * trip;
      trace.mutable_records().push_back(r);
    }
  }
  if (directed) {
    // Lags up to twice the L2's lines: a displaced victim's re-miss lands
    // both before and after its displacing fill leaves.
    trace = with_revisits(trace, directed_rng,
                          2 * static_cast<std::uint32_t>(tiny_lines));
  }
  // Equal compute gaps make next-access ties between cores common, which is
  // where the lower-id tie-break and the batch limits must agree.
  const bool flat_gaps = rng.below(2) == 0;
  const auto gap = static_cast<std::uint16_t>(2 * rng.below(3));
  if (flat_gaps) {
    for (TraceRecord& r : trace.mutable_records()) r.compute_gap = gap;
  }

  SimConfig config;
  const std::uint32_t ways = 1u << rng.below(5);             // 1..16
  const std::uint64_t sets = std::uint64_t{4} << rng.below(5);  // 4..64
  config.l2 = CacheGeometry(sets * ways * 64, ways, 64);
  // A tiny L1 (2–8 sets, 1–2 ways) sends most accesses on to the L2.
  const std::uint32_t l1_ways = 1u << rng.below(2);
  config.l1 = CacheGeometry((std::uint64_t{2} << rng.below(3)) * l1_ways * 64,
                            l1_ways, 64);
  config.l2_mshrs = static_cast<std::uint32_t>(1 + rng.below(16));
  if (rng.below(2) == 0) {
    config.shadow_capacity = static_cast<std::uint32_t>(1 + rng.below(16));
  }
  config.hw_prefetch = rng.below(2) == 0;
  if (rng.below(2) == 0) config.occupancy_sample_interval = 64 << rng.below(4);
  // Provenance is an observer: on or off, the other compared fields must not
  // move; on, the fate summary is compared against the spec's too.
  config.provenance = rng.below(2) == 0;
  if (directed) {
    config.provenance = true;
    config.l2 = tiny_l2;
  }

  const SpParams params{.a_ski = static_cast<std::uint32_t>(rng.below(4)),
                        .a_pre = static_cast<std::uint32_t>(1 + rng.below(4))};
  const bool synced = rng.below(4) != 0;
  const auto helper_of = [&](bool prefetch_instructions) {
    return make_helper_trace(
        trace, params,
        HelperGenOptions{.use_prefetch_instructions = prefetch_instructions,
                         .helper_compute_gap = flat_gaps ? gap
                                                         : std::uint16_t{0}});
  };
  const std::optional<RoundSync> sync =
      synced ? std::optional<RoundSync>(
                   RoundSync{.leader = 0, .round_iters = params.round()})
             : std::nullopt;

  const std::uint64_t n_streams =
      std::max<std::uint64_t>(1 + rng.below(3), directed ? 2 : 1);
  const TraceBuffer helper = helper_of(rng.below(2) == 0);
  TraceBuffer third;
  std::vector<CoreStream> streams = {main_stream(trace)};
  if (n_streams >= 2) {
    streams.push_back({.trace = &helper, .origin = FillOrigin::kHelper,
                       .sync = sync});
  }
  if (n_streams == 3) {
    if (rng.below(2) == 0) {
      // A co-running demand core on an unrelated program.
      ir::VirtualMemory vm2;
      third = ir::interpret(ir::random_program(seed + 1000, vm2), vm2).trace;
      streams.push_back(main_stream(third));
    } else {
      // A second, prefetch-instruction helper of the same main thread.
      third = helper_of(true);
      streams.push_back({.trace = &third, .origin = FillOrigin::kHelper,
                         .sync = sync});
    }
  }
  FuzzOutcome outcome;
  outcome.result =
      expect_engine_matches_spec(config, streams, &outcome.corners);
  return outcome;
}

class SpecSimFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpecSimFuzzTest, RandomMatrixAgrees) { run_fuzz_case(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, SpecSimFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 65));

// The matrix is only an oracle for the paths it reaches: across the seeds,
// every classification, merge, writeback, pollution case, MSHR-full path,
// prefetch fate and late pollution confirm must occur. The two fate corners
// whose precedence and generation rules the fate summary depends on — a used
// fill confirmed polluting, a confirm after the displacing fill left — must
// each occur in at least 8 of the 64 seeds, so a swapped precedence or a
// dropped generation check fails many seeds rather than one.
TEST(SpecSimFuzzCoverage, MatrixReachesEverySemanticPath) {
  std::uint64_t partially_hits = 0, demand_merges = 0, writebacks = 0,
                case1 = 0, case2 = 0, case3 = 0, samples = 0, dropped = 0,
                full_rejections = 0, provenance_cases = 0,
                used_then_polluting_seeds = 0, recycled_confirm_seeds = 0;
  ProvenanceSummary fates;
  for (std::uint64_t seed = 1; seed < 65; ++seed) {
    const FuzzOutcome outcome = run_fuzz_case(seed);
    const SimResult& r = outcome.result;
    used_then_polluting_seeds += outcome.corners.used_then_polluting > 0;
    recycled_confirm_seeds += outcome.corners.recycled_confirms > 0;
    provenance_cases += r.provenance.enabled;
    fates.add(r.provenance);
    full_rejections += r.mshr.full_rejections;
    for (const ThreadMetrics& m : r.per_core) {
      partially_hits += m.partially_hits;
      dropped += m.prefetches_dropped;
    }
    demand_merges += r.mshr.demand_merges_into_prefetch;
    writebacks += r.memory.writebacks;
    case1 += r.pollution.case1_reuse_displaced;
    case2 += r.pollution.case2_helper_displaced;
    case3 += r.pollution.case3_hw_displaced;
    samples += r.occupancy.samples.size();
  }
  EXPECT_GT(partially_hits, 0u);
  EXPECT_GT(demand_merges, 0u);
  EXPECT_GT(writebacks, 0u);
  EXPECT_GT(case1, 0u);
  EXPECT_GT(case2, 0u);
  EXPECT_GT(case3, 0u);
  EXPECT_GT(samples, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(full_rejections, 0u);
  EXPECT_GT(provenance_cases, 0u);
  EXPECT_GT(fates.used_timely, 0u);
  EXPECT_GT(fates.used_late, 0u);
  EXPECT_GT(fates.evicted_unused, 0u);
  EXPECT_GT(fates.polluting, 0u);
  EXPECT_GT(fates.resident_unused, 0u);
  EXPECT_GT(fates.late_pollution_confirms, 0u);
  EXPECT_GE(used_then_polluting_seeds, 8u);
  EXPECT_GE(recycled_confirm_seeds, 8u);
}

}  // namespace
}  // namespace spf
