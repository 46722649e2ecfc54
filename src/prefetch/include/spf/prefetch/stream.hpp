// Stream prefetcher modelling Intel's L2 "streamer".
//
// Tracks up to `streams` concurrent line-granular streams, each confined to
// one 4 KB page (real streamers do not cross page boundaries because they
// work on physical addresses). Two consecutive misses to adjacent lines in
// the same page arm a stream; while armed, each access at the stream head
// pulls the window `distance` lines ahead.
//
// The tracker table is laid out for the per-access page lookup, like a
// cache set: tracker pages sit in one packed u64 array, their low 16 bits in
// a packed u16 row that `simd::match_mask_u16` compares 8 trackers per
// instruction, and a live bitmask says which trackers hold a stream. Partial
// matches are confirmed against the full page, lowest tracker first (the
// scalar path, under SPF_FORCE_SCALAR_TAGS, compares full pages of the live
// trackers). Only the live mask is authoritative — a dead tracker's page and
// stream state are never read — so a fresh stream takes the lowest dead
// tracker straight from the mask and reset() clears just the mask. Tracker
// recency is an LruState order word over the trackers, so replacing the
// least recently touched tracker reads one entry instead of scanning stamps.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "spf/cache/replacement.hpp"
#include "spf/common/simd_match.hpp"
#include "spf/prefetch/prefetcher.hpp"

namespace spf {

struct StreamConfig {
  /// Concurrent stream trackers (Core 2 streamer tracks 8-16); at most 64.
  std::uint32_t streams = 16;
  /// How many lines ahead of the head to run.
  std::uint32_t distance = 4;
  /// Lines issued per triggering access.
  std::uint32_t degree = 2;
  std::uint32_t line_bytes = 64;
  std::uint32_t page_bytes = 4096;
};

class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(const StreamConfig& config);

  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out);
  void reset();

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

 private:
  enum class State : std::uint8_t { kTraining, kArmed };

  /// Per-tracker stream state, read only once the page lookup picked the
  /// tracker.
  struct Stream {
    State state = State::kTraining;
    LineAddr last_line = 0;   // last observed line in the stream
    LineAddr sent_until = 0;  // highest (or lowest) line already requested
    std::int8_t dir = 1;      // +1 ascending, -1 descending
  };

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Live tracker following `page`, or kNone. The vector path compares the
  /// low 16 page bits of every tracker, keeps live candidates and confirms
  /// them against the full page, lowest tracker first.
  [[nodiscard]] std::uint32_t find_page(std::uint64_t page) const {
    std::uint64_t m = live_;
#ifdef SPF_SIMD_MATCH
    if (!simd::force_scalar) {
      m &= simd::match_mask_u16(page_lo_.data(), config_.streams,
                                static_cast<std::uint16_t>(page));
    }
#endif
    for (; m != 0; m &= m - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
      if (pages_[i] == page) return i;
    }
    return kNone;
  }

  /// Tracker a fresh stream replaces: the lowest dead one, else the least
  /// recently touched.
  [[nodiscard]] std::uint32_t victim() const {
    if (const std::uint64_t dead = ~live_ & all_trackers_; dead != 0) {
      return static_cast<std::uint32_t>(std::countr_zero(dead));
    }
    return recency_.victim(0);
  }

  StreamConfig config_;
  std::uint32_t line_shift_;
  std::uint32_t page_shift_;
  std::uint32_t lines_per_page_;
  std::uint64_t all_trackers_;  // low `streams` bits set
  std::uint64_t live_ = 0;      // bit i set iff tracker i holds a stream
  std::vector<std::uint64_t> pages_;    // page-granular address per tracker
  std::vector<std::uint16_t> page_lo_;  // low 16 page bits, + kMatchU16Pad
  LruState recency_;                    // tracker touch order (one "set")
  std::vector<Stream> streams_;
  std::uint64_t issued_ = 0;
};

// Defined here (not stream.cpp) so per-access callers inline the tracker
// scan instead of paying an out-of-line call.
inline void StreamPrefetcher::observe(const PrefetchObservation& obs,
                                      std::vector<LineAddr>& out) {
  const LineAddr line = obs.addr >> line_shift_;
  const std::uint64_t page = obs.addr >> page_shift_;

  const std::uint32_t i = find_page(page);
  if (i == kNone) {
    if (!obs.was_miss) return;  // streams train on misses only
    const std::uint32_t fresh = victim();
    live_ |= std::uint64_t{1} << fresh;
    pages_[fresh] = page;
    page_lo_[fresh] = static_cast<std::uint16_t>(page);
    recency_.on_fill(0, fresh);
    streams_[fresh] = Stream{.state = State::kTraining,
                             .last_line = line,
                             .sent_until = line,
                             .dir = 1};
    return;
  }
  recency_.on_hit(0, i);
  Stream* s = &streams_[i];

  if (s->state == State::kTraining) {
    if (!obs.was_miss || line == s->last_line) return;
    s->dir = line > s->last_line ? 1 : -1;
    // Adjacent (or near-adjacent) second miss arms the stream.
    const LineAddr gap = line > s->last_line ? line - s->last_line
                                             : s->last_line - line;
    if (gap <= 2) {
      s->state = State::kArmed;
      s->last_line = line;
      s->sent_until = line;
    } else {
      s->last_line = line;  // restart training at the new point
    }
    if (s->state != State::kArmed) return;
  } else {
    s->last_line = line;
  }

  // Armed: keep the window `distance` lines ahead of the head, `degree` lines
  // per trigger, clipped to the page.
  const LineAddr page_first = page << (page_shift_ - line_shift_);
  const LineAddr page_last = page_first + lines_per_page_ - 1;
  std::uint32_t sent = 0;
  while (sent < config_.degree) {
    const std::int64_t ahead =
        s->dir > 0 ? static_cast<std::int64_t>(s->sent_until) - static_cast<std::int64_t>(line)
                   : static_cast<std::int64_t>(line) - static_cast<std::int64_t>(s->sent_until);
    if (ahead >= static_cast<std::int64_t>(config_.distance)) break;
    const std::int64_t next = static_cast<std::int64_t>(s->sent_until) + s->dir;
    if (next < static_cast<std::int64_t>(page_first) ||
        next > static_cast<std::int64_t>(page_last)) {
      break;  // streamer never crosses the page
    }
    s->sent_until = static_cast<LineAddr>(next);
    out.push_back(s->sent_until);
    ++issued_;
    ++sent;
  }
}

}  // namespace spf
