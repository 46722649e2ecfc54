// Differential test of the simulator's record feed (docs/simulator.md
// "Replay engine & record feed"): every SimResult field must be identical
// whether the helper core pulls lazily synthesized records through a
// HelperViewCursor window — the production feed — or reads a helper trace
// materialized up front by make_helper_trace, which the test builds itself
// as the reference. Structured em3d/mcf/mst workloads run window sizes from
// a single record (a refill behind every consume) up to the production
// 4096, and the ExperimentContext seam is pinned at the SpRunSummary level —
// including its zero trace-record allocation contract
// (trace_hooks::record_allocations). A scalar-tags ctest variant replays the
// suite under SPF_FORCE_SCALAR_TAGS=1, and a TSan variant runs it
// race-instrumented when SPF_SANITIZE=thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim_test_util.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"

namespace spf {
namespace {

using test::expect_same_result;

/// Small shared L2 so the workloads generate misses, evictions and MSHR
/// pressure instead of fitting in cache.
SimConfig small_machine() {
  SimConfig config;
  config.l1 = CacheGeometry(4 * 1024, 4, 64);
  config.l2 = CacheGeometry(64 * 1024, 8, 64);
  config.l2_mshrs = 8;
  return config;
}

RoundSync sync_of(const SpParams& params) {
  return RoundSync{.leader = 0, .round_iters = params.round()};
}

/// The reference cell: helper trace materialized up front.
SimResult run_materialized(const SimConfig& config, const TraceBuffer& trace,
                           const SpParams& params,
                           const HelperGenOptions& options = {}) {
  const TraceBuffer helper = make_helper_trace(trace, params, options);
  CmpSimulator sim(config);
  return sim.run(
      {CoreStream{.trace = &trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper, .origin = FillOrigin::kHelper,
                  .sync = sync_of(params)}});
}

/// The fused cell: helper records synthesized through a HelperViewCursor
/// window during replay.
template <std::size_t WindowN>
SimResult run_fused(const SimConfig& config, const TraceBuffer& trace,
                    const SpParams& params,
                    const HelperGenOptions& options = {}) {
  CursorWindowSource<HelperViewCursor, WindowN> feed(
      HelperViewCursor(trace, params, options));
  CmpSimulator sim(config);
  const SimResult result = sim.run(
      {CoreStream{.trace = &trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.source = &feed, .origin = FillOrigin::kHelper,
                  .sync = sync_of(params)}});
  // The window source must have served exactly the materialized stream's
  // record count — the refill-on-consume invariant ends the stream only when
  // the cursor is exhausted.
  EXPECT_EQ(feed.records_served(),
            make_helper_trace(trace, params, options).size());
  return result;
}

void pin_all_windows(const TraceBuffer& trace, const SpParams& params,
                     const SimConfig& config) {
  const SimResult reference = run_materialized(config, trace, params);
  {
    // One-record windows put a refill behind every consume, so the pending
    // peek crosses a window boundary at every step.
    SCOPED_TRACE("single-record window");
    expect_same_result(reference, run_fused<1>(config, trace, params));
  }
  {
    // A window size coprime to the round structure lands refills mid-round.
    SCOPED_TRACE("7-record window");
    expect_same_result(reference, run_fused<7>(config, trace, params));
  }
  {
    SCOPED_TRACE("128-record window");
    expect_same_result(reference, run_fused<128>(config, trace, params));
  }
  {
    SCOPED_TRACE("4096-record window (production)");
    expect_same_result(reference, run_fused<4096>(config, trace, params));
  }
}

TEST(SimStreamDifferentialTest, Em3dAllFeedVariantsAgree) {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  pin_all_windows(trace, SpParams::from_distance_rp(8, 0.5), small_machine());
}

TEST(SimStreamDifferentialTest, McfAllFeedVariantsAgree) {
  McfConfig wl;
  wl.nodes = 1200;
  wl.arcs = 7000;
  wl.passes = 1;
  const TraceBuffer trace = McfWorkload(wl).emit_trace();
  pin_all_windows(trace, SpParams::from_distance_rp(4, 1.0), small_machine());
}

TEST(SimStreamDifferentialTest, MstAllFeedVariantsAgree) {
  MstConfig wl;
  wl.vertices = 500;
  wl.degree = 8;
  wl.buckets = 32;
  const TraceBuffer trace = MstWorkload(wl).emit_trace();
  pin_all_windows(trace, SpParams::from_distance_rp(6, 0.5), small_machine());
}

TEST(SimStreamDifferentialTest, OccupancySamplingAgreesAcrossFeeds) {
  Em3dConfig wl;
  wl.nodes = 2000;
  wl.arity = 8;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  const SpParams params = SpParams::from_distance_rp(8, 0.5);
  SimConfig config = small_machine();
  // Small interval: sample points land mid-window, so the cursor feed must
  // honor them at the same records the buffer feed does.
  config.occupancy_sample_interval = 512;
  expect_same_result(run_materialized(config, trace, params),
                     run_fused<64>(config, trace, params));
}

// The ExperimentContext seam: run_sp_once (fused helper feed) against a
// materialized helper buffer through the same engine, pinned at the
// SpRunSummary level — the same numbers sweep cells and perf_smoke's
// replay_checksum are built from — plus its zero-allocation contract.
TEST(SimStreamDifferentialTest, ExperimentContextPathsAgree) {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();

  SpExperimentConfig cfg;
  cfg.sim = small_machine();
  cfg.params = SpParams::from_distance_rp(8, 0.5);

  ExperimentContext ctx;
  // Warm-up pass: the context's storage reaches its steady state, so the
  // contract below measures replay, not first-use growth.
  const SpRunSummary warm = ctx.run_sp_once(trace, cfg);

  const std::uint64_t allocs_before = trace_hooks::record_allocations();
  const SpRunSummary fused = ctx.run_sp_once(trace, cfg);
  EXPECT_EQ(trace_hooks::record_allocations() - allocs_before, 0u)
      << "fused replay must not grow trace-record storage";
  const SpRunSummary mat =
      SpRunSummary::from(run_materialized(cfg.sim, trace, cfg.params));

  EXPECT_EQ(warm.runtime, fused.runtime);
  EXPECT_EQ(fused.runtime, mat.runtime);
  EXPECT_EQ(fused.l2_lookups, mat.l2_lookups);
  EXPECT_EQ(fused.totally_hits, mat.totally_hits);
  EXPECT_EQ(fused.partially_hits, mat.partially_hits);
  EXPECT_EQ(fused.totally_misses, mat.totally_misses);
  EXPECT_EQ(fused.memory_requests, mat.memory_requests);
  EXPECT_EQ(fused.helper_finish, mat.helper_finish);
  EXPECT_EQ(fused.pollution.case2_helper_displaced,
            mat.pollution.case2_helper_displaced);
  EXPECT_EQ(fused.pollution.total_evictions, mat.pollution.total_evictions);
}

// Prefetch-instruction helper kind flows through the cursor transform too.
TEST(SimStreamDifferentialTest, PrefetchInstructionHelperAgrees) {
  Em3dConfig wl;
  wl.nodes = 2000;
  wl.arity = 8;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  const SpParams params = SpParams::from_distance_rp(4, 0.5);
  const HelperGenOptions options{.use_prefetch_instructions = true};
  expect_same_result(
      run_materialized(small_machine(), trace, params, options),
      run_fused<128>(small_machine(), trace, params, options));
}

}  // namespace
}  // namespace spf
