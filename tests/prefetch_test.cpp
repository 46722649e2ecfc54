// Unit tests for the hardware prefetcher models (DPL stride + streamer) and
// the per-core pair that merges them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "spf/common/rng.hpp"
#include "spf/prefetch/core_prefetchers.hpp"
#include "spf/prefetch/stream.hpp"
#include "spf/prefetch/stride.hpp"

namespace spf {
namespace {

template <typename Prefetcher>
std::vector<LineAddr> observe_seq(Prefetcher& pf,
                                  const std::vector<Addr>& addrs,
                                  SiteId site = 1, bool miss = true) {
  std::vector<LineAddr> out;
  for (Addr a : addrs) {
    pf.observe(PrefetchObservation{.addr = a, .site = site, .was_miss = miss},
               out);
  }
  return out;
}

TEST(StridePrefetcherTest, DetectsConstantStrideAfterTraining) {
  StrideConfig cfg;
  cfg.threshold = 2;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  // Stride 128: addresses 0,128,256,384. Confidence reaches 2 at the 4th
  // access (two consecutive equal strides), which then prefetches 384+128.
  const auto out = observe_seq(pf, {0, 128, 256, 384});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), (384u + 128u) / 64);
}

TEST(StridePrefetcherTest, NoIssueBeforeConfidence) {
  StrideConfig cfg;
  cfg.threshold = 2;
  StridePrefetcher pf(cfg);
  EXPECT_TRUE(observe_seq(pf, {0, 128}).empty());  // one stride sample only
}

TEST(StridePrefetcherTest, DegreeIssuesMultipleStrides) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 3;
  StridePrefetcher pf(cfg);
  // First access allocates the entry, second establishes the stride, third
  // reaches confidence and prefetches 768/1024/1280.
  const auto out = observe_seq(pf, {0, 256, 512});
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(std::find(out.begin(), out.end(), 768 / 64) != out.end());
  EXPECT_TRUE(std::find(out.begin(), out.end(), 1280 / 64) != out.end());
}

TEST(StridePrefetcherTest, StrideChangeDropsConfidence) {
  StrideConfig cfg;
  cfg.threshold = 2;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  auto out = observe_seq(pf, {0, 128, 256, 384});  // confident
  out.clear();
  // Break the pattern; confidence decays, no issue on the new first stride.
  pf.observe(PrefetchObservation{.addr = 4096, .site = 1, .was_miss = true}, out);
  pf.observe(PrefetchObservation{.addr = 4096 + 64, .site = 1, .was_miss = true},
             out);
  EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcherTest, SmallStrideWithinLineIssuesNothing) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  // Stride 8 stays within the current line: candidates equal the current
  // line and are suppressed.
  const auto out = observe_seq(pf, {0, 8, 16, 24});
  EXPECT_TRUE(out.empty());
}

TEST(StridePrefetcherTest, DifferentSitesTrainIndependently) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  std::vector<LineAddr> out;
  // Interleave two sites with different strides; both should train.
  for (int i = 0; i < 4; ++i) {
    pf.observe(PrefetchObservation{.addr = static_cast<Addr>(i) * 128,
                                   .site = 1, .was_miss = true}, out);
    pf.observe(PrefetchObservation{.addr = 100000 + static_cast<Addr>(i) * 256,
                                   .site = 2, .was_miss = true}, out);
  }
  EXPECT_FALSE(out.empty());
}

TEST(StridePrefetcherTest, NegativeStrideWorks) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  const auto out = observe_seq(pf, {10000, 10000 - 128, 10000 - 256});
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), (10000u - 384u) / 64);
}

TEST(StridePrefetcherTest, ResetClearsTraining) {
  StrideConfig cfg;
  cfg.threshold = 1;
  cfg.degree = 1;
  StridePrefetcher pf(cfg);
  observe_seq(pf, {0, 128, 256});
  EXPECT_GT(pf.issued(), 0u);
  pf.reset();
  EXPECT_EQ(pf.issued(), 0u);
  EXPECT_TRUE(observe_seq(pf, {0}).empty());
}

TEST(StreamPrefetcherTest, TwoAdjacentMissesArmAscendingStream) {
  StreamConfig cfg;
  cfg.distance = 4;
  cfg.degree = 2;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  pf.observe(PrefetchObservation{.addr = 4096, .site = 0, .was_miss = true}, out);
  EXPECT_TRUE(out.empty());  // training
  pf.observe(PrefetchObservation{.addr = 4096 + 64, .site = 0, .was_miss = true},
             out);
  // Armed: window pulls ahead of line 65 by up to `degree` lines.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 4096u / 64 + 2);
  EXPECT_EQ(out[1], 4096u / 64 + 3);
}

TEST(StreamPrefetcherTest, DescendingStreams) {
  StreamConfig cfg;
  cfg.degree = 2;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  const Addr top = 8192 - 64;
  pf.observe(PrefetchObservation{.addr = top, .site = 0, .was_miss = true}, out);
  pf.observe(PrefetchObservation{.addr = top - 64, .site = 0, .was_miss = true},
             out);
  ASSERT_FALSE(out.empty());
  EXPECT_LT(out[0], (top - 64) / 64);
}

TEST(StreamPrefetcherTest, NeverCrossesPageBoundary) {
  StreamConfig cfg;
  cfg.distance = 16;
  cfg.degree = 16;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  // Arm a stream near the top of a 4KB page.
  const Addr near_top = 4096 - 3 * 64;
  pf.observe(PrefetchObservation{.addr = near_top, .site = 0, .was_miss = true},
             out);
  pf.observe(
      PrefetchObservation{.addr = near_top + 64, .site = 0, .was_miss = true},
      out);
  for (LineAddr line : out) {
    EXPECT_LT(line, 4096u / 64) << "prefetch crossed the page";
  }
}

TEST(StreamPrefetcherTest, HitsDoNotTrainNewStreams) {
  StreamPrefetcher pf(StreamConfig{});
  std::vector<LineAddr> out;
  pf.observe(PrefetchObservation{.addr = 0, .site = 0, .was_miss = false}, out);
  pf.observe(PrefetchObservation{.addr = 64, .site = 0, .was_miss = false}, out);
  EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcherTest, WindowRespectsDistance) {
  StreamConfig cfg;
  cfg.distance = 3;
  cfg.degree = 8;  // degree larger than distance: distance must clip
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  pf.observe(PrefetchObservation{.addr = 4096, .site = 0, .was_miss = true}, out);
  pf.observe(PrefetchObservation{.addr = 4096 + 64, .site = 0, .was_miss = true},
             out);
  EXPECT_LE(out.size(), 3u);
  for (LineAddr line : out) {
    EXPECT_LE(line - (4096 + 64) / 64, 3u);
  }
}

TEST(StreamPrefetcherTest, ManyStreamsTrackedConcurrently) {
  StreamConfig cfg;
  cfg.streams = 4;
  cfg.degree = 1;
  StreamPrefetcher pf(cfg);
  std::vector<LineAddr> out;
  // Arm four streams in four different pages.
  for (Addr page = 0; page < 4; ++page) {
    const Addr base = (page + 10) * 4096;
    pf.observe(PrefetchObservation{.addr = base, .site = 0, .was_miss = true},
               out);
    pf.observe(
        PrefetchObservation{.addr = base + 64, .site = 0, .was_miss = true},
        out);
  }
  EXPECT_EQ(out.size(), 4u);
}

/// The streamer contract written out plainly: an array of trackers, each
/// with its own validity flag and touch stamp, scanned front to back. A miss
/// with no tracker for its page takes the first invalid tracker, else the
/// least recently touched one; two misses at most two lines apart arm a
/// stream, which then keeps `distance` lines ahead, `degree` per access,
/// without leaving the page.
class ReferenceStreamer {
 public:
  explicit ReferenceStreamer(const StreamConfig& c)
      : config_(c), trackers_(c.streams) {}

  void observe(Addr addr, bool miss, std::vector<LineAddr>& out) {
    const LineAddr line = addr / config_.line_bytes;
    const std::uint64_t page = addr / config_.page_bytes;
    ++clock_;
    Tracker* t = nullptr;
    for (Tracker& candidate : trackers_) {
      if (candidate.valid && candidate.page == page) {
        t = &candidate;
        break;
      }
    }
    if (t == nullptr) {
      if (!miss) return;
      Tracker* victim = nullptr;
      for (Tracker& candidate : trackers_) {
        if (!candidate.valid) {
          victim = &candidate;
          break;
        }
        if (victim == nullptr || candidate.stamp < victim->stamp) {
          victim = &candidate;
        }
      }
      *victim = Tracker{.valid = true,
                        .armed = false,
                        .page = page,
                        .last = line,
                        .sent = line,
                        .dir = 1,
                        .stamp = clock_};
      return;
    }
    t->stamp = clock_;
    if (!t->armed) {
      if (!miss || line == t->last) return;
      t->dir = line > t->last ? 1 : -1;
      const LineAddr gap = line > t->last ? line - t->last : t->last - line;
      t->armed = gap <= 2;
      t->last = line;
      t->sent = line;
      if (!t->armed) return;
    }
    t->last = line;
    const std::int64_t lines_per_page = config_.page_bytes / config_.line_bytes;
    const std::int64_t first = static_cast<std::int64_t>(page) * lines_per_page;
    for (std::uint32_t n = 0; n < config_.degree; ++n) {
      const std::int64_t ahead =
          (static_cast<std::int64_t>(t->sent) - static_cast<std::int64_t>(line)) *
          t->dir;
      const std::int64_t next = static_cast<std::int64_t>(t->sent) + t->dir;
      if (ahead >= static_cast<std::int64_t>(config_.distance) ||
          next < first || next >= first + lines_per_page) {
        break;
      }
      t->sent = static_cast<LineAddr>(next);
      out.push_back(t->sent);
      ++issued;
    }
  }

  void reset() {
    trackers_.assign(trackers_.size(), Tracker{});
    clock_ = 0;
    issued = 0;
  }

  std::uint64_t issued = 0;

 private:
  struct Tracker {
    bool valid = false;
    bool armed = false;
    std::uint64_t page = 0;
    LineAddr last = 0;
    LineAddr sent = 0;
    int dir = 1;
    std::uint64_t stamp = 0;
  };

  StreamConfig config_;
  std::vector<Tracker> trackers_;
  std::uint64_t clock_ = 0;
};

// Differential: the packed streamer against the reference over seeded walks
// that touch more pages than there are trackers (forcing replacement), alias
// pages in their low 16 bits, mix hits and misses, reverse direction and
// reset mid-stream.
TEST(StreamPrefetcherTest, MatchesReferenceStreamer) {
  for (std::uint32_t streams : {1u, 4u, 16u, 63u, 64u}) {
    StreamConfig cfg;
    cfg.streams = streams;
    cfg.degree = 1 + streams % 3;
    cfg.distance = 2 + streams % 5;
    StreamPrefetcher pf(cfg);
    ReferenceStreamer ref(cfg);
    Xoshiro256 rng(streams);
    const std::uint64_t pages = streams + 3;
    Addr addr = 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 20) {
        // Half the pages alias another page's low 16 bits, so a partial
        // page match alone would pick the wrong tracker.
        const std::uint64_t page =
            rng.below(pages) + (rng.below(2) << 16) * (1 + rng.below(3));
        addr = page * cfg.page_bytes + rng.below(cfg.page_bytes);
      } else if (roll < 60) {
        addr += cfg.line_bytes * (1 + rng.below(2));
      } else if (roll < 75) {
        addr = addr >= cfg.line_bytes ? addr - cfg.line_bytes : 0;
      }
      if (op % 5000 == 4999) {
        pf.reset();
        ref.reset();
      }
      const bool miss = rng.below(4) != 0;
      std::vector<LineAddr> got, want;
      pf.observe(PrefetchObservation{.addr = addr, .site = 0, .was_miss = miss},
                 got);
      ref.observe(addr, miss, want);
      ASSERT_EQ(got, want) << "streams " << streams << " op " << op;
    }
    EXPECT_EQ(pf.issued(), ref.issued) << "streams " << streams;
  }
}

TEST(CorePrefetchersTest, MergesAndDeduplicates) {
  // Misses two lines apart from one site train both the streamer (which
  // fills the lines in between) and the stride engine (which runs whole
  // strides ahead), so one observation's candidates overlap. Each
  // observation's output must be the sorted union of what the two engines
  // propose on their own.
  CorePrefetchers pair(64);
  StridePrefetcher stride{StrideConfig{}};
  StreamPrefetcher stream{StreamConfig{}};
  std::size_t overlapping = 0;
  for (int i = 0; i < 12; ++i) {
    const PrefetchObservation obs{.addr = 4096 + static_cast<Addr>(i) * 128,
                                  .site = 3, .was_miss = true};
    std::vector<LineAddr> got = {999};  // earlier output stays untouched
    pair.observe(obs, got);
    std::vector<LineAddr> want;
    stride.observe(obs, want);
    stream.observe(obs, want);
    const std::size_t proposed = want.size();
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    overlapping += proposed - want.size();
    want.insert(want.begin(), 999);
    EXPECT_EQ(got, want) << "observation " << i;
  }
  EXPECT_GT(overlapping, 0u);  // the dedup path actually ran
}

TEST(CorePrefetchersTest, ResetPropagates) {
  CorePrefetchers pair(64);
  std::vector<LineAddr> out;
  for (int i = 0; i < 6; ++i) {
    pair.observe(PrefetchObservation{.addr = static_cast<Addr>(i) * 64,
                                     .site = 1, .was_miss = true},
                 out);
  }
  ASSERT_FALSE(out.empty());
  pair.reset();
  out.clear();
  pair.observe(
      PrefetchObservation{.addr = 1 << 20, .site = 1, .was_miss = true}, out);
  EXPECT_TRUE(out.empty());  // back to training from scratch
}

}  // namespace
}  // namespace spf
