#include "spf/trace/trace_io.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace spf {
namespace {

constexpr char kMagic[4] = {'S', 'P', 'F', 'T'};
constexpr std::uint32_t kVersion = 1;

static_assert(std::endian::native == std::endian::little,
              "trace files are little-endian; port the I/O layer first");

}  // namespace

void write_trace(const std::filesystem::path& path, const TraceBuffer& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file for write: " + path.string());
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint64_t count = trace.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  const auto records = trace.records();
  out.write(reinterpret_cast<const char*>(records.data()),
            static_cast<std::streamsize>(records.size_bytes()));
  if (!out) throw std::runtime_error("trace write failed: " + path.string());
}

TraceBuffer read_trace(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path.string());
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("bad trace magic: " + path.string());
  }
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kVersion) {
    throw std::runtime_error("unsupported trace version in " + path.string());
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw std::runtime_error("truncated trace header: " + path.string());
  // The count is untrusted: check it against the bytes actually present
  // before sizing any allocation from it. The body must be exactly `count`
  // records — a longer body is as malformed as a shorter one.
  const std::streamoff body_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(body_begin);
  if (!in || body_begin < 0 || file_end < body_begin) {
    throw std::runtime_error("cannot size trace file: " + path.string());
  }
  const auto body_bytes = static_cast<std::uint64_t>(file_end - body_begin);
  if (body_bytes % sizeof(TraceRecord) != 0 ||
      count != body_bytes / sizeof(TraceRecord)) {
    throw std::runtime_error("trace body size mismatch: " + path.string() +
                             " declares " + std::to_string(count) +
                             " records but its body is " +
                             std::to_string(body_bytes) + " bytes");
  }
  std::vector<TraceRecord> records(count);
  in.read(reinterpret_cast<char*>(records.data()),
          static_cast<std::streamsize>(count * sizeof(TraceRecord)));
  if (!in) throw std::runtime_error("truncated trace body: " + path.string());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if ((records[i].packed & 0x3) > static_cast<std::uint8_t>(AccessKind::kPrefetch)) {
      throw std::runtime_error("bad access kind in trace record " +
                               std::to_string(i) + ": " + path.string());
    }
  }
  return TraceBuffer(std::move(records));
}

}  // namespace spf
