// The per-core hardware prefetcher pair of the paper's Core 2 testbed: one
// DPL stride engine and one streamer watching the same access stream.
//
// Each observation is fanned out to the stride engine first, then the
// streamer, and the candidates of that one observation are sorted and
// deduplicated. The two engines are direct members, so `observe` inlines
// into the simulator's access loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spf/prefetch/stream.hpp"
#include "spf/prefetch/stride.hpp"

namespace spf {

class CorePrefetchers {
 public:
  explicit CorePrefetchers(std::uint32_t line_bytes)
      : stride_(stride_config(line_bytes)), stream_(stream_config(line_bytes)) {}

  /// Observe one access and append this observation's deduplicated candidate
  /// lines to `out`, sorted by line address.
  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out) {
    const std::size_t first = out.size();
    stride_.observe(obs, out);
    stream_.observe(obs, out);
    // Sort/dedup only this observation's tail; no-op for 0 or 1 candidates,
    // the common case.
    if (out.size() - first > 1) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
      out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(first),
                            out.end()),
                out.end());
    }
  }

  void reset() {
    stride_.reset();
    stream_.reset();
  }

  [[nodiscard]] const StridePrefetcher& stride() const noexcept { return stride_; }
  [[nodiscard]] const StreamPrefetcher& stream() const noexcept { return stream_; }

 private:
  static StrideConfig stride_config(std::uint32_t line_bytes) {
    StrideConfig config;
    config.line_bytes = line_bytes;
    return config;
  }
  static StreamConfig stream_config(std::uint32_t line_bytes) {
    StreamConfig config;
    config.line_bytes = line_bytes;
    return config;
  }

  StridePrefetcher stride_;
  StreamPrefetcher stream_;
};

}  // namespace spf
