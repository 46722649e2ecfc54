// Example: trace tooling. Generates a workload trace, persists it in the
// binary .spft format, loads it back, and prints summaries, phase structure
// and burst-sampling statistics — the offline half of the paper's profiling
// pipeline.
//
// Usage:
//   trace_inspect                         # self-contained demo (tmp file)
//   trace_inspect --in=foo.spft           # inspect an existing trace
//                                         # (exit 2 if it is malformed)
//   trace_inspect --workload=mcf --out=mcf.spft   # generate + keep a trace
#include <exception>
#include <filesystem>
#include <iostream>

#include "spf/common/cli.hpp"
#include "spf/profile/phase.hpp"
#include "spf/profile/sampling.hpp"
#include "spf/trace/trace_io.hpp"
#include "spf/trace/trace_stats.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  const CacheGeometry l2(1 << 20, 16, 64);

  TraceBuffer trace;
  std::filesystem::path path;
  bool cleanup = false;

  if (flags.has("in")) {
    path = flags.get("in", "");
    std::cout << "loading " << path << "\n";
    try {
      trace = read_trace(path);
    } catch (const std::exception& e) {
      // A malformed or hostile trace file is a usage error, not a crash.
      std::cerr << "trace_inspect: " << e.what() << "\n";
      return 2;
    }
  } else {
    const std::string workload = flags.get("workload", "em3d");
    if (workload == "mcf") {
      McfConfig c;
      c.nodes = 4000;
      c.arcs = 24000;
      c.passes = 2;
      trace = McfWorkload(c).emit_trace();
    } else {
      Em3dConfig c;
      c.nodes = 8000;
      c.arity = 32;
      c.passes = 2;
      trace = Em3dWorkload(c).emit_trace();
    }
    if (flags.has("out")) {
      path = flags.get("out", "");
    } else {
      path = std::filesystem::temp_directory_path() / "spf_demo.spft";
      cleanup = true;
    }
    write_trace(path, trace);
    std::cout << "generated " << workload << " trace -> " << path << " ("
              << std::filesystem::file_size(path) << " bytes)\n";
    // Round-trip to prove the on-disk format.
    trace = read_trace(path);
  }

  std::cout << "\n-- summary --\n"
            << summarize_trace(trace, l2).to_string() << "\n";

  std::cout << "\n-- per-site breakdown --\n";
  const TraceSummary s = summarize_trace(trace, l2);
  for (const auto& [site, count] : s.per_site) {
    std::cout << "  site " << static_cast<int>(site) << ": " << count
              << " accesses\n";
  }

  std::cout << "\n-- phases --\n";
  const PhaseReport phases = detect_phases(trace, l2);
  for (const Phase& p : phases.phases) {
    std::cout << "  phase " << p.phase_id << ": records [" << p.begin_record
              << ", " << p.end_record << ")\n";
  }

  std::cout << "\n-- burst sampling (256-iter bursts every 2048) --\n";
  BurstConfig bc;
  bc.burst_iters = 256;
  bc.interval_iters = 2048;
  const auto bursts = burst_sample(trace, bc);
  std::cout << "  " << bursts.size() << " bursts, kept "
            << 100.0 * sampled_fraction(trace, bursts) << "% of records\n";

  if (cleanup) std::filesystem::remove(path);
  return 0;
}
