// Seeded mutation fuzz for the .spft trace reader: real traces (from the
// shared random IR program generator) are written with write_trace, then
// mutated — byte flips, truncations, appended bytes, and edits to the record
// count, the version and a record's access-kind bits — and read back. Every
// mutated file must either be rejected with std::runtime_error or load to
// exactly the records its header declares, byte-for-byte, all with valid
// access kinds: never a crash, an oversized allocation, or a silently
// shortened or padded trace.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "ir_fuzz_util.hpp"
#include "spf/common/rng.hpp"
#include "spf/ir/interp.hpp"
#include "spf/trace/trace_io.hpp"

namespace spf {
namespace {

constexpr std::size_t kHeaderBytes = 16;  // magic, version, count

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::string& bytes, std::size_t offset, T value) {
  if (offset + sizeof(T) <= bytes.size()) {
    std::memcpy(bytes.data() + offset, &value, sizeof(T));
  }
}

/// Applies one randomly chosen mutation to a well-formed trace file image.
std::string mutate(std::string bytes, Xoshiro256& rng) {
  const std::uint64_t records = (bytes.size() - kHeaderBytes) / 16;
  switch (rng.below(6)) {
    case 0: {  // flip one byte anywhere
      const std::size_t at = rng.below(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.below(255)));
      break;
    }
    case 1:  // truncate
      bytes.resize(rng.below(bytes.size()));
      break;
    case 2:  // append trailing bytes (a whole record or a fragment)
      bytes.append(1 + rng.below(40), static_cast<char>(rng.below(256)));
      break;
    case 3: {  // edit the declared count: near the truth, or anything
      const std::uint64_t count =
          rng.below(2) == 0 ? records + rng.below(5) - 2 : rng.next();
      put(bytes, 8, count);
      break;
    }
    case 4:  // edit the version
      put(bytes, 4, static_cast<std::uint32_t>(rng.below(4)));
      break;
    case 5:  // set a record's access-kind bits to an arbitrary value
      if (records != 0) {
        const std::size_t at = kHeaderBytes + 16 * rng.below(records) + 15;
        bytes[at] = static_cast<char>((bytes[at] & ~0x3) | rng.below(4));
      }
      break;
  }
  return bytes;
}

class TraceIoFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("spf_trace_io_fuzz_" + std::to_string(::getpid()) + "_" +
             std::to_string(GetParam()) + ".spft");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_P(TraceIoFuzzTest, MutatedFilesThrowOrLoadExactlyTheDeclaredRecords) {
  ir::VirtualMemory vm;
  const TraceBuffer trace =
      ir::interpret(ir::random_program(GetParam(), vm), vm).trace;
  write_trace(path_, trace);
  const std::string pristine = read_bytes(path_);
  ASSERT_EQ(read_trace(path_).size(), trace.size());

  Xoshiro256 rng(GetParam());
  std::uint64_t rejected = 0;
  for (int round = 0; round < 64; ++round) {
    const std::string bytes = mutate(pristine, rng);
    write_bytes(path_, bytes);
    SCOPED_TRACE("mutation round " + std::to_string(round));
    try {
      const TraceBuffer loaded = read_trace(path_);
      // Accepted: the header's count, the body length and the records must
      // all agree, and every record must carry a valid access kind.
      ASSERT_GE(bytes.size(), kHeaderBytes);
      std::uint64_t declared = 0;
      std::memcpy(&declared, bytes.data() + 8, sizeof(declared));
      ASSERT_EQ(loaded.size(), declared);
      ASSERT_EQ(bytes.size(), kHeaderBytes + declared * sizeof(TraceRecord));
      EXPECT_EQ(std::memcmp(loaded.records().data(),
                            bytes.data() + kHeaderBytes,
                            loaded.size() * sizeof(TraceRecord)),
                0);
      for (const TraceRecord& r : loaded) {
        EXPECT_LE(static_cast<int>(r.kind()),
                  static_cast<int>(AccessKind::kPrefetch));
      }
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // Most mutations break the format; a fuzz that rejects nothing is not
  // reaching the reader's checks.
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace spf
