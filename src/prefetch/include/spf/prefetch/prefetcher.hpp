// What a hardware prefetcher observes.
//
// The paper's testbed (Core 2) has two kinds of hardware prefetchers per die:
// the DPL (Data Prefetch Logic, an IP/stride prefetcher) and the streamer
// (adjacent/sequential line prefetcher). The paper's pollution case 3 is
// "a prematurely prefetched block displaces data just fetched by hardware
// prefetchers" — so the simulator needs hw prefetchers that actually fill
// lines tagged FillOrigin::kHardware.
//
// Prefetchers (stride.hpp, stream.hpp, paired per core in
// core_prefetchers.hpp) observe the demand access stream and emit candidate
// lines; the simulator filters candidates against cache contents and MSHRs
// and issues the survivors.
#pragma once

#include <cstdint>

#include "spf/mem/types.hpp"

namespace spf {

/// A static load site identifier (stands in for the program counter of the
/// load instruction in a real machine). Workload trace emitters assign one id
/// per static load in the hot loop.
using SiteId = std::uint32_t;

/// One observed demand access, as seen by a prefetcher.
struct PrefetchObservation {
  Addr addr = 0;
  SiteId site = 0;
  /// Whether the access missed in the cache level this prefetcher watches.
  bool was_miss = false;
};

}  // namespace spf
