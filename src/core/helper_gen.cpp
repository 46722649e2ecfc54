#include "spf/core/helper_gen.hpp"

#include <algorithm>

#include "spf/common/assert.hpp"

namespace spf {

TraceBuffer make_helper_trace(const TraceBuffer& main_trace,
                              const SpParams& params,
                              const HelperGenOptions& options) {
  SPF_ASSERT(params.a_pre > 0, "helper must pre-execute at least one iteration");
  const std::uint32_t round = params.round();

  TraceBuffer helper;
  helper.reserve(main_trace.size() / 2);
  // Records arrive grouped by outer iteration, so the round position only
  // needs recomputing when the iteration changes — not one div per record.
  std::uint32_t last_outer = ~std::uint32_t{0};
  std::uint32_t last_pos = 0;
  for (const TraceRecord& r : main_trace) {
    if (r.kind() == AccessKind::kWrite) continue;  // helper never stores
    if (r.outer_iter != last_outer) {
      last_outer = r.outer_iter;
      last_pos = r.outer_iter % round;
    }
    const bool pre_execute = last_pos >= params.a_ski;
    if (!pre_execute && !r.is_spine()) continue;

    AccessKind kind = AccessKind::kRead;
    if (pre_execute && r.is_delinquent() && options.use_prefetch_instructions) {
      kind = AccessKind::kPrefetch;
    }
    helper.emit(r.addr, r.outer_iter, kind, r.site, r.flags(),
                options.helper_compute_gap);
  }
  return helper;
}

TraceBuffer merge_traces_by_iter(const TraceBuffer& a, const TraceBuffer& b) {
  TraceBuffer merged;
  merged.reserve(a.size() + b.size());
  auto& out = merged.mutable_records();
  const std::span<const TraceRecord> ra = a.records();
  const std::span<const TraceRecord> rb = b.records();
  const std::size_t na = ra.size();
  const std::size_t nb = rb.size();
  std::size_t ia = 0;
  std::size_t ib = 0;
  // Tie-break contract (see helper_gen.hpp): a-side first on equal outer_iter.
  while (ia < na && ib < nb) {
    const bool take_a = ra[ia].outer_iter <= rb[ib].outer_iter;
    out.push_back(take_a ? ra[ia] : rb[ib]);
    ia += take_a;
    ib += !take_a;
  }
  out.insert(out.end(), ra.begin() + static_cast<std::ptrdiff_t>(ia), ra.end());
  out.insert(out.end(), rb.begin() + static_cast<std::ptrdiff_t>(ib), rb.end());
  return merged;
}

}  // namespace spf
