// Prefetch-lifecycle provenance on real runs: the observer-effect
// differential (provenance on must not change a byte of the pinned golden
// artifacts) and the lifecycle accounting properties across the pinned grid.
// The tracker's unit and property tests live in pollution_test.cpp.
//
// The differential reuses the checked-in pinned-grid goldens
// (tests/golden/pinned_sweep.{csv,jsonl}): with provenance ON the CSV must
// still match byte-for-byte (the table never carries provenance), and each
// JSONL row must extend the golden row purely by appending prov_* fields —
// the off-row minus its closing brace is a byte prefix of the on-row.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pinned_golden_spec.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/sim/pollution.hpp"

#ifndef SPF_GOLDEN_DIR
#error "SPF_GOLDEN_DIR must point at tests/golden"
#endif

namespace spf {
namespace {

// ---- observer-effect differential against the pinned goldens -------------

std::string golden_path(const char* name) {
  return std::string(SPF_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ProvenanceDifferentialTest, ProvenanceOnLeavesTableBytesUntouched) {
  orchestrate::SweepSpec spec = orchestrate::pinned_golden_spec();
  spec.provenance = true;

  orchestrate::SweepOptions serial;
  serial.threads = 1;
  const orchestrate::SweepResult a = run_sweep(spec, serial);
  ASSERT_EQ(a.cells.size(), 36u);
  ASSERT_EQ(a.failed_count(), 0u);

  orchestrate::SweepOptions parallel;
  parallel.threads = 8;
  const orchestrate::SweepResult b = run_sweep(spec, parallel);
  ASSERT_EQ(b.failed_count(), 0u);

  // Thread count must never leak into the artifacts, provenance or not.
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());

  if (std::getenv("SPF_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden regeneration handled by the pinned-grid test";
  }
  // The table carries no provenance columns: byte-identical to the golden.
  EXPECT_EQ(a.to_csv(), read_file(golden_path("pinned_sweep.csv")))
      << "provenance tracking changed the simulated metrics — the observer "
         "must never perturb the run";

  // Each JSONL row extends its golden row purely by appended prov_* fields:
  // the golden row minus its closing brace is a byte prefix of the new row.
  const std::vector<std::string> on_lines = split_lines(a.to_jsonl());
  const std::vector<std::string> golden_lines =
      split_lines(read_file(golden_path("pinned_sweep.jsonl")));
  ASSERT_EQ(on_lines.size(), golden_lines.size());
  for (std::size_t i = 0; i < on_lines.size(); ++i) {
    const std::string& off = golden_lines[i];
    ASSERT_FALSE(off.empty());
    ASSERT_EQ(off.back(), '}');
    const std::string prefix = off.substr(0, off.size() - 1);
    ASSERT_GT(on_lines[i].size(), off.size()) << "row " << i
        << " gained no provenance fields";
    EXPECT_EQ(on_lines[i].compare(0, prefix.size(), prefix), 0)
        << "row " << i << " diverged before the provenance suffix";
    EXPECT_EQ(on_lines[i][prefix.size()], ',');
    EXPECT_NE(on_lines[i].find("\"prov_tracked_fills\":"), std::string::npos);
    EXPECT_EQ(on_lines[i].back(), '}');
  }
}

// ---- lifecycle accounting properties on real runs ------------------------

TEST(ProvenancePropertyTest, AccountingInvariantsHoldAcrossThePinnedGrid) {
  orchestrate::SweepSpec spec = orchestrate::pinned_golden_spec();
  spec.provenance = true;
  orchestrate::SweepOptions opts;
  opts.threads = 8;
  const orchestrate::SweepResult result = run_sweep(spec, opts);
  ASSERT_EQ(result.failed_count(), 0u);

  std::uint64_t total_tracked = 0;
  for (const auto& c : result.cells) {
    ASSERT_TRUE(c.cmp.has_value());
    const ProvenanceSummary& p = c.cmp->sp.provenance;
    ASSERT_TRUE(p.enabled) << "SweepSpec::provenance must reach every cell";
    total_tracked += p.tracked_fills;

    // The five fates partition the tracked fills; origins partition them too.
    EXPECT_EQ(p.fate_total(), p.tracked_fills);
    EXPECT_EQ(p.helper_fills + p.hardware_fills, p.tracked_fills);

    // Histogram masses equal their counters.
    std::uint64_t fill_mass = 0, reuse_mass = 0, heat_mass = 0;
    for (std::size_t b = 0; b < ProvenanceSummary::kHistogramBuckets; ++b) {
      fill_mass += p.fill_to_use[b];
      reuse_mass += p.victim_reuse[b];
      heat_mass += p.set_heatmap[b];
    }
    EXPECT_EQ(fill_mass, p.used_timely);
    EXPECT_EQ(reuse_mass, p.reuse_confirms);
    EXPECT_EQ(heat_mass, p.polluted_sets);

    // A shadow confirmation is both a case-1 event and a victim reuse, so
    // the two counts agree exactly.
    EXPECT_EQ(p.reuse_confirms,
              c.cmp->sp.pollution.case1_reuse_displaced)
        << "victim-shadow drift: provenance and pollution disagree on "
           "confirmed displaced-reuse events";

    // Derived quantities stay consistent.
    EXPECT_GE(p.timely_rate(), 0.0);
    EXPECT_LE(p.timely_rate(), 1.0);
    if (p.used_timely == 0) {
      EXPECT_EQ(p.fill_to_use_total, 0u);
    }
  }
  // The grid prefetches: a provenance layer that tracked nothing anywhere
  // would pass every per-cell invariant vacuously.
  EXPECT_GT(total_tracked, 0u);
}

TEST(ProvenancePropertyTest, DisabledRunsCarryNoProvenance) {
  orchestrate::SweepSpec spec = orchestrate::pinned_golden_spec();
  ASSERT_FALSE(spec.provenance);  // default off
  orchestrate::SweepOptions opts;
  opts.threads = 8;
  const orchestrate::SweepResult result = run_sweep(spec, opts);
  ASSERT_EQ(result.failed_count(), 0u);
  for (const auto& c : result.cells) {
    ASSERT_TRUE(c.cmp.has_value());
    EXPECT_FALSE(c.cmp->sp.provenance.enabled);
    EXPECT_EQ(c.cmp->sp.provenance.tracked_fills, 0u);
  }
}

}  // namespace
}  // namespace spf
