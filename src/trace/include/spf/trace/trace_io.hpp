// Binary trace persistence. Format:
//
//   offset 0 : magic  "SPFT"            (4 bytes)
//   offset 4 : version u32 (currently 1)
//   offset 8 : record count u64
//   offset 16: raw TraceRecord array (16 bytes each, little-endian)
//
// Traces are host-endian on disk; the loader validates the magic and refuses
// big-endian hosts rather than silently mis-parsing.
#pragma once

#include <filesystem>
#include <string>

#include "spf/trace/trace.hpp"

namespace spf {

/// Writes `trace` to `path`, overwriting. Throws std::runtime_error on I/O
/// failure.
void write_trace(const std::filesystem::path& path, const TraceBuffer& trace);

/// Loads a trace written by write_trace. Throws std::runtime_error on I/O
/// failure, format mismatch, a body that is not exactly the declared record
/// count (checked before anything is allocated) or a record whose access
/// kind is not one of AccessKind's values.
[[nodiscard]] TraceBuffer read_trace(const std::filesystem::path& path);

}  // namespace spf
