#include "spf/prefetch/stream.hpp"

#include <bit>

#include "spf/common/assert.hpp"

namespace spf {

StreamPrefetcher::StreamPrefetcher(const StreamConfig& config)
    : config_(config),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)))),
      page_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.page_bytes)))),
      lines_per_page_(config.page_bytes / config.line_bytes),
      all_trackers_(config.streams >= 64
                        ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << config.streams) - 1),
      pages_(config.streams),
      page_lo_(config.streams + simd::kMatchU16Pad),
      recency_(1, config.streams),
      streams_(config.streams) {
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.line_bytes)),
             "line size must be a power of two");
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.page_bytes)),
             "page size must be a power of two");
  SPF_ASSERT(config.page_bytes > config.line_bytes, "page must exceed line");
  SPF_ASSERT(config.streams > 0, "need at least one stream tracker");
  SPF_ASSERT(config.streams <= 64, "live mask holds at most 64 trackers");
}

void StreamPrefetcher::reset() {
  // Only the live mask needs clearing. The recency order may keep stale
  // entries: it is consulted only once every tracker is live again, and by
  // then each has been moved to the front since this reset.
  live_ = 0;
  issued_ = 0;
}

}  // namespace spf
