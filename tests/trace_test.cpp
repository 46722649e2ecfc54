// Unit tests for trace records, buffers, file round-trips, and summaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "spf/trace/trace.hpp"
#include "spf/trace/trace_io.hpp"
#include "spf/trace/trace_stats.hpp"

namespace spf {
namespace {

TEST(TraceRecordTest, PackedFieldsRoundTrip) {
  const TraceRecord r = TraceRecord::make(0xdeadbeef, 42, AccessKind::kWrite, 3,
                                          kFlagSpine | kFlagDelinquent, 17);
  EXPECT_EQ(r.addr, 0xdeadbeefu);
  EXPECT_EQ(r.outer_iter, 42u);
  EXPECT_EQ(r.kind(), AccessKind::kWrite);
  EXPECT_EQ(r.site, 3u);
  EXPECT_TRUE(r.is_spine());
  EXPECT_TRUE(r.is_delinquent());
  EXPECT_EQ(r.compute_gap, 17u);
}

TEST(TraceRecordTest, ComputeGapSaturatesAt16Bits) {
  const TraceRecord r =
      TraceRecord::make(0, 0, AccessKind::kRead, 0, 0, 1 << 20);
  EXPECT_EQ(r.compute_gap, 0xffffu);
}

TEST(TraceRecordTest, SixteenBytes) {
  EXPECT_EQ(sizeof(TraceRecord), 16u);
}

TEST(TraceBufferTest, EmitAndIterate) {
  TraceBuffer t;
  t.emit(100, 0, AccessKind::kRead, 1);
  t.emit(200, 0, AccessKind::kRead, 2, kFlagDelinquent);
  t.emit(300, 1, AccessKind::kWrite, 3);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.outer_iterations(), 2u);
  EXPECT_EQ(t[1].addr, 200u);
  EXPECT_TRUE(t[1].is_delinquent());
  std::size_t n = 0;
  for (const TraceRecord& r : t) {
    (void)r;
    ++n;
  }
  EXPECT_EQ(n, 3u);
}

TEST(TraceBufferTest, EmptyTraceHasZeroIterations) {
  TraceBuffer t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.outer_iterations(), 0u);
}

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("spf_trace_test_" + std::to_string(::getpid()) + ".spft");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(TraceIoTest, RoundTripPreservesEveryRecord) {
  TraceBuffer out;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    out.emit(i * 64, i / 10,
             i % 3 == 0 ? AccessKind::kWrite : AccessKind::kRead,
             static_cast<std::uint8_t>(i % 5),
             i % 2 ? kFlagSpine : kFlagDelinquent, i % 100);
  }
  write_trace(path_, out);
  const TraceBuffer in = read_trace(path_);
  ASSERT_EQ(in.size(), out.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(in[i], out[i]) << "record " << i;
  }
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  write_trace(path_, TraceBuffer{});
  EXPECT_EQ(read_trace(path_).size(), 0u);
}

TEST_F(TraceIoTest, BadMagicRejected) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "NOPE trailing garbage that is long enough for a header";
  }
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBodyRejected) {
  TraceBuffer out;
  for (int i = 0; i < 100; ++i) out.emit(i, 0, AccessKind::kRead, 0);
  write_trace(path_, out);
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedHeaderRejected) {
  TraceBuffer out;
  out.emit(64, 0, AccessKind::kRead, 0);
  write_trace(path_, out);
  std::filesystem::resize_file(path_, 12);  // magic + version + half a count
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

// A header claiming ~2^60 records over a one-record body must be rejected
// before anything is sized from the count (no multi-exabyte allocation).
TEST_F(TraceIoTest, HugeCountRejectedBeforeAllocating) {
  TraceBuffer out;
  out.emit(64, 0, AccessKind::kRead, 0);
  write_trace(path_, out);
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const std::uint64_t huge = std::uint64_t{1} << 60;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceIoTest, BadAccessKindRejected) {
  TraceBuffer out;
  for (int i = 0; i < 4; ++i) out.emit(i * 64, 0, AccessKind::kRead, 0);
  write_trace(path_, out);
  {
    // Record 2's packed byte (offset 15 within the record) gets kind 3.
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16 + 2 * 16 + 15);
    const char packed = 0x3;
    f.write(&packed, 1);
  }
  EXPECT_THROW(read_trace(path_), std::runtime_error);
}

TEST_F(TraceIoTest, MissingFileRejected) {
  EXPECT_THROW(read_trace("/nonexistent/dir/file.spft"), std::runtime_error);
}

TEST(TraceSummaryTest, CountsKindsFlagsAndFootprint) {
  const CacheGeometry g(1 << 16, 4, 64);
  TraceBuffer t;
  t.emit(0, 0, AccessKind::kRead, 1, kFlagSpine, 5);
  t.emit(64, 0, AccessKind::kRead, 2, kFlagDelinquent, 0);
  t.emit(64, 1, AccessKind::kWrite, 2, 0, 3);     // same line as above
  t.emit(4096, 1, AccessKind::kPrefetch, 3, 0, 0);
  const TraceSummary s = summarize_trace(t, g);
  EXPECT_EQ(s.accesses, 4u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.prefetches, 1u);
  EXPECT_EQ(s.spine_accesses, 1u);
  EXPECT_EQ(s.delinquent_accesses, 1u);
  EXPECT_EQ(s.outer_iterations, 2u);
  EXPECT_EQ(s.distinct_lines, 3u);
  EXPECT_EQ(s.compute_cycles, 8u);
  EXPECT_EQ(s.per_site.size(), 3u);
  EXPECT_EQ(s.per_site.at(2), 2u);
  EXPECT_FALSE(s.to_string().empty());
}

}  // namespace
}  // namespace spf
