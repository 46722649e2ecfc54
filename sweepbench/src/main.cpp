// sweepbench — the repository's benchmark: timed distance sweeps through
// spf::orchestrate::run_sweep, plus a traced run that attributes their host
// time to the simulator's layers. sweepbench/README.md documents the
// workloads, every metric, and how to rerun a claim.
//
// Usage:
//   sweepbench --workload ladder|adaptive|fates --seed N --seconds S
//              --trace 0|1 [--threads N] [--smoke]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// --threads sets the sweep's worker count (default 2), --smoke shrinks the
// inputs to seconds-long runs for the benchmark's own tests. The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// lines before it give per-sweep times, the grid, the sweep artifact's
// digests and each metric with its unit. Exit status: 0 when every output check passes, 1 when
// one fails, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clocks.hpp"
#include "gate.hpp"
#include "grid.hpp"
#include "spf/common/jsonl.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "traced.hpp"

namespace {

using namespace sweepbench;
using spf::orchestrate::SweepResult;
using spf::orchestrate::SweepSpec;

/// Set-ups timed before each end-to-end sweep; setup_s is their median.
/// Spreading them over the run, instead of timing them back to back, keeps
/// a few seconds of host slowdown from setting the figure.
constexpr int kSetupsPerSweep = 2;

struct Args {
  Workload workload = Workload::kLadder;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  unsigned threads = 2;
  bool smoke = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "sweepbench: " << message
            << "\nusage: sweepbench --workload ladder|adaptive|fates --seed N "
               "--seconds S --trace 0|1 [--threads N] [--smoke]\n";
  std::exit(2);
}

template <typename T>
bool parse_number(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && !text.empty();
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--threads") {
      usage_error("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    if (!given.emplace(flag, argv[++i]).second) {
      usage_error("duplicate " + flag);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!given.count(required)) usage_error(std::string("missing ") + required);
  }
  const auto workload = parse_workload(given["--workload"]);
  if (!workload) usage_error("unknown workload '" + given["--workload"] + "'");
  args.workload = *workload;
  if (!parse_number(given["--seed"], args.seed)) {
    usage_error("malformed seed '" + given["--seed"] + "'");
  }
  if (!parse_number(given["--seconds"], args.seconds) ||
      !(args.seconds > 0.0) || args.seconds > 3600.0) {
    usage_error("--seconds wants a number in (0, 3600]");
  }
  if (given["--trace"] != "0" && given["--trace"] != "1") {
    usage_error("--trace wants 0 or 1");
  }
  args.trace = given["--trace"] == "1";
  if (given.count("--threads") &&
      (!parse_number(given["--threads"], args.threads) || args.threads == 0 ||
       args.threads > 64)) {
    usage_error("--threads wants an integer in [1, 64]");
  }
  return args;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using TraceSizes = std::map<std::string, std::uint64_t>;

/// Set-up: emits the sweep's traces into the pool's (cleared) trace memo,
/// the way a user's first sweep would, and records their sizes. Returns the
/// host wall time it took.
double set_up(const SweepSpec& spec, spf::ExperimentContextPool& pool,
              TraceSizes& sizes) {
  pool.clear_trace_memo();
  const double t0 = wall_now();
  for (const auto& w : spec.workloads) {
    sizes[w.name] = pool.trace_for(w.memo_key, w.make)->trace.size();
  }
  return wall_now() - t0;
}

/// One timed end-to-end sweep: run_sweep plus its JSONL artifact.
struct Sample {
  SweepResult result;
  std::string jsonl;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Sample timed_sweep(const SweepSpec& spec,
                   const spf::orchestrate::SweepOptions& opts) {
  Sample s;
  const double wall0 = wall_now();
  const double cpu0 = process_cpu_now();
  s.result = spf::orchestrate::run_sweep(spec, opts);
  s.jsonl = s.result.to_jsonl();
  s.cpu_s = process_cpu_now() - cpu0;
  s.wall_s = wall_now() - wall0;
  return s;
}

/// Main-trace records a sweep fed to its baseline and cell runs, counted
/// from the trace sizes: one baseline per plane, one full trace per ok cell
/// (adaptive intervals together replay the whole trace once).
std::uint64_t records_fed(const SweepSpec& spec, const SweepResult& result,
                          const TraceSizes& sizes) {
  std::uint64_t total = 0;
  for (const auto& w : spec.workloads) {
    total += sizes.at(w.name) * spec.geometries.size();
  }
  for (const auto& c : result.cells) {
    if (c.ok) total += sizes.at(c.cell.workload);
  }
  return total;
}

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Checks a sample against the reference one (the run's first sweep of the
/// same input set): the artifact must not change from sweep to sweep.
void tally(const Sample& s, const Sample& reference, Outcome& out) {
  out.attempted += s.result.cells.size();
  out.failed += s.result.failed_count();
  if (&s != &reference && s.jsonl != reference.jsonl) {
    out.problems.push_back("sweep artifact changed between repeated sweeps");
  }
}

void add_sim_problems(const SweepSpec& spec, const SweepResult& result,
                      Outcome& out) {
  for (std::string& p : check_sweep(result, spec.adaptive, spec.provenance)) {
    out.problems.push_back(std::move(p));
  }
}

/// Sweeps cycle over the input sets (`specs`, one per set) until the time is
/// up, every set has run once and one has run twice (so the repeat check
/// always runs). The host-time figures are one round's: every set's cells
/// (records) over the sum of the sets' median sweep wall (CPU) times, so each
/// set weighs the same however many sweeps it got.
Outcome run_end_to_end(const std::vector<SweepSpec>& specs,
                       const spf::orchestrate::SweepOptions& opts,
                       double seconds) {
  Outcome out;
  const std::size_t sets = specs.size();
  std::vector<Sample> samples;
  std::vector<double> setup;
  std::vector<TraceSizes> sizes(sets);
  const double deadline = wall_now() + seconds;
  do {
    const std::size_t set = samples.size() % sets;
    for (int i = 0; i < kSetupsPerSweep; ++i) {
      setup.push_back(set_up(specs[set], *opts.pool, sizes[set]));
    }
    samples.push_back(timed_sweep(specs[set], opts));
  } while (wall_now() < deadline || samples.size() <= sets);

  double round_cells = 0.0;
  double round_records = 0.0;
  double round_wall = 0.0;
  double round_cpu = 0.0;
  SweepResult all;  // every set's first sweep, for the model-level metrics
  std::string jsonl;
  std::string csv;
  for (std::size_t set = 0; set < sets; ++set) {
    std::vector<double> wall;
    std::vector<double> cpu;
    for (std::size_t i = set; i < samples.size(); i += sets) {
      const Sample& s = samples[i];
      std::cout << "sweep set " << set << " wall_s " << s.wall_s << " cpu_s "
                << s.cpu_s << "\n";
      tally(s, samples[set], out);
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
    }
    const SweepResult& first = samples[set].result;
    add_sim_problems(specs[set], first, out);
    round_cells += static_cast<double>(first.cells.size() - first.failed_count());
    round_records +=
        static_cast<double>(records_fed(specs[set], first, sizes[set]));
    round_wall += median(wall);
    round_cpu += median(cpu);
    for (const auto& c : first.cells) {
      std::cout << "cell set " << set << " " << c.cell.workload << " distance "
                << c.cell.distance << " bound " << c.cell.bound_upper << "\n";
      all.cells.push_back(c);
    }
    jsonl += samples[set].jsonl;
    csv += first.to_csv();
  }
  const SimTotals sim = sim_totals(all);
  std::cout << "sweeps " << samples.size() << "\n"
            << "sweep_jsonl_digest " << digest(jsonl) << "\n"
            << "sweep_csv_digest " << digest(csv) << "\n";
  out.metrics = {
      {"setup_s", median(setup), "s"},
      {"cells_per_s", round_cells / round_wall, "cells/s"},
      {"maccesses_per_cpu_s", 1e-6 * round_records / round_cpu,
       "Mrecords/cpu-s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"sim_norm_runtime_gmean", sim.norm_runtime_gmean, "ratio"},
      {"sim_pollution_rate", sim.pollution_rate, "ratio"},
  };
  return out;
}

Outcome run_per_layer(Workload workload, const SweepSpec& spec,
                      const spf::orchestrate::SweepOptions& opts,
                      double seconds) {
  Outcome out;
  TraceSizes sizes;
  set_up(spec, *opts.pool, sizes);
  // fates' provenance cost is measured against the same grid without it.
  std::optional<SweepSpec> ladder;
  if (workload == Workload::kFates) {
    ladder = spec;
    ladder->provenance = false;
  }
  std::vector<Sample> samples;
  std::vector<double> ladder_cpu;
  // Every pass's times, but only the last pass itself: a pass holds its own
  // copy of the traces.
  std::vector<std::pair<LayerSeconds, double>> pass_times;
  TracedPass pass;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_lookups = 0;
  const double deadline = wall_now() + seconds;
  do {
    const auto memo0 = opts.pool->trace_memo_stats();
    samples.push_back(timed_sweep(spec, opts));
    const auto memo1 = opts.pool->trace_memo_stats();
    memo_hits += memo1.hits - memo0.hits;
    memo_lookups += (memo1.hits + memo1.misses) - (memo0.hits + memo0.misses);
    const Sample& s = samples.back();
    tally(s, samples.front(), out);
    if (ladder) {
      const Sample plain = timed_sweep(*ladder, opts);
      ladder_cpu.push_back(plain.cpu_s);
      if (plain.result.to_csv() != s.result.to_csv()) {
        out.problems.push_back(
            "provenance changed the sweep's table (it must only observe)");
      }
    }
    std::vector<spf::orchestrate::SweepCell> cells;
    for (const auto& c : s.result.cells) cells.push_back(c.cell);
    pass = TracedPass{};  // frees the previous pass's traces first
    pass = run_traced(spec, cells, *opts.pool, opts.threads);
    pass_times.emplace_back(pass.layers, pass.cpu_s);
    out.attempted += pass.result.cells.size();
    out.failed += pass.result.failed_count();
    for (std::string& p : compare_results(pass.result, s.result)) {
      out.problems.push_back("traced run: " + std::move(p));
    }
  } while (wall_now() < deadline);

  const SweepResult& first = samples.front().result;
  add_sim_problems(spec, first, out);
  const Components comp = run_components(spec, pass, opts.threads, out.problems);
  const SimTotals sim = sim_totals(first);

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& [layers, cpu_s] : pass_times) v.push_back(field(layers, cpu_s));
    return median(v);
  };
  const double emit_s = med([](const LayerSeconds& l, double) { return l.emit; });
  const double bound_s =
      med([](const LayerSeconds& l, double) { return l.phase_bound; });
  const double baseline_s =
      med([](const LayerSeconds& l, double) { return l.baseline; });
  const double sp_s = med([](const LayerSeconds& l, double) { return l.sp; });
  const double adaptive_s =
      med([](const LayerSeconds& l, double) { return l.adaptive; });
  const double unattributed = med([](const LayerSeconds& l, double cpu_s) {
    return 1.0 - ratio(l.total(), cpu_s);
  });
  // The timed sweep reads its traces from the warm memo, so the traced
  // pass's emission is left out of the overhead comparison.
  const double traced_cpu_no_emit =
      med([](const LayerSeconds& l, double cpu_s) { return cpu_s - l.emit; });
  std::vector<double> sweep_cpu;
  std::vector<double> idle;
  for (const Sample& s : samples) {
    sweep_cpu.push_back(s.cpu_s);
    idle.push_back(1.0 - s.cpu_s / (opts.threads * s.wall_s));
  }
  const double e2e_cpu = median(sweep_cpu);
  if (std::abs(unattributed) > 0.10) {
    out.problems.push_back("layer spans cover only " +
                           std::to_string(100.0 * (1.0 - unattributed)) +
                           "% of the traced run's CPU time");
  }

  std::uint64_t phases = 0;
  std::uint64_t bound_sum = 0;
  for (const TracedPlane& p : pass.planes) {
    phases += p.bound.phase_count();
    bound_sum += p.bound.whole.upper_limit;
  }
  const auto per = [](double s, std::uint64_t n, double scale) {
    return n == 0 ? 0.0 : scale * s / static_cast<double>(n);
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const double used = count(sim.used_timely + sim.used_late);
  std::cout << "sweep_jsonl_digest " << digest(samples.front().jsonl) << "\n"
            << "sweep_csv_digest " << digest(first.to_csv()) << "\n"
            << "traced_passes " << pass_times.size() << "\n";
  out.metrics = {
      {"workloads.emit_s", emit_s, "s"},
      {"workloads.records", count(pass.emitted_records), "count"},
      {"workloads.emit_ns_per_record", per(emit_s, pass.emitted_records, 1e9),
       "ns/record"},
      {"profile.phase_bound_s", bound_s, "s"},
      {"profile.phases", count(phases), "count"},
      {"profile.bound_upper", count(bound_sum), "count"},
      {"core.baseline_s", baseline_s, "s"},
      {"core.baseline_runs", count(pass.planes.size()), "count"},
      {"core.sp_s", sp_s, "s"},
      {"core.sp_runs", count(pass.sp_runs), "count"},
      {"core.sp_ns_per_record", per(sp_s, pass.sp_records, 1e9), "ns/record"},
      {"core.adaptive_s", adaptive_s, "s"},
      {"core.adaptive_intervals", count(sim.adaptive_intervals), "count"},
      {"core.adaptive_us_per_interval",
       per(adaptive_s, sim.adaptive_intervals, 1e6), "us/interval"},
      {"core.adaptive_ns_per_record",
       per(adaptive_s, pass.adaptive_records, 1e9), "ns/record"},
      {"core.adaptive_mean_distance", sim.adaptive_mean_distance, "distance"},
      {"core.adaptive_reclamps", count(sim.adaptive_reclamps), "count"},
      {"core.arena_bytes", count(pass.arena_bytes), "bytes"},
      {"orchestrate.self_s", e2e_cpu - (bound_s + baseline_s + sp_s + adaptive_s),
       "s"},
      {"orchestrate.idle_frac", median(idle), "ratio"},
      {"orchestrate.memo_hit_rate",
       memo_lookups == 0 ? 0.0 : count(memo_hits) / count(memo_lookups),
       "ratio"},
      {"orchestrate.cells_failed", count(first.failed_count()), "count"},
      {"sim.sp_cycles", count(sim.sp_cycles), "cycles"},
      {"sim.l2_lookups", count(sim.l2_lookups), "count"},
      {"sim.l2_totally_hits", count(sim.totally_hits), "count"},
      {"sim.l2_partially_hits", count(sim.partially_hits), "count"},
      {"sim.l2_totally_misses", count(sim.totally_misses), "count"},
      {"sim.memory_requests", count(sim.memory_requests), "count"},
      {"sim.pollution_case1", count(sim.pollution_case1), "count"},
      {"sim.pollution_case2", count(sim.pollution_case2), "count"},
      {"sim.pollution_case3", count(sim.pollution_case3), "count"},
      {"cache.l2_fills", count(comp.l2_fills), "count"},
      {"cache.l2_evictions", count(comp.l2_evictions), "count"},
      {"mshr.allocations", count(comp.mshr_allocations), "count"},
      {"mshr.merges", count(comp.mshr_merges), "count"},
      {"mshr.full_rejections", count(comp.mshr_full_rejections), "count"},
      {"memsys.queue_delay_cycles", count(comp.queue_delay_cycles), "cycles"},
      {"prefetch.hw_issued", count(comp.hw_prefetches_issued), "count"},
      {"sim.l1_hits", count(comp.l1_hits), "count"},
      {"sim.stall_cycles", count(comp.stall_cycles), "cycles"},
      {"prefetch.coverage",
       1.0 - ratio(count(sim.totally_misses), count(sim.baseline_totally_misses)),
       "ratio"},
      {"prefetch.accuracy", ratio(used, count(sim.fills_tracked)), "ratio"},
      {"prefetch.timeliness", ratio(count(sim.used_timely), used), "ratio"},
      {"provenance.fills_tracked", count(sim.fills_tracked), "count"},
      {"provenance.polluting", count(sim.polluting), "count"},
      {"provenance.evicted_unused", count(sim.evicted_unused), "count"},
      {"provenance.overhead_frac",
       ladder_cpu.empty() ? 0.0 : e2e_cpu / median(ladder_cpu) - 1.0, "ratio"},
      {"trace.overhead_frac", traced_cpu_no_emit / e2e_cpu - 1.0, "ratio"},
      {"trace.unattributed_frac", unattributed, "ratio"},
  };
  return out;
}

void print_result(const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::cout << m.name << " " << spf::json_double(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& p : out.problems) {
    std::cerr << "sweepbench: check failed: " << p << "\n";
  }
  std::string metrics = "{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    spf::JsonObject value;
    value.add("value", std::isfinite(m.value) ? m.value : 0.0)
        .add("unit", m.unit);
    if (i != 0) metrics += ",";
    metrics += "\"" + spf::json_escape(m.name) + "\":" + value.line();
  }
  metrics += "}";
  spf::JsonObject line;
  line.add("correct", out.problems.empty())
      .add("attempted", out.attempted)
      .add("failed", out.failed)
      .add_raw("metrics", metrics);
  std::cout << line.line() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    std::vector<SweepSpec> specs;
    for (unsigned set = 0; set < kInputSets; ++set) {
      specs.push_back(
          make_spec(args.workload, make_inputs(args.seed, args.smoke, set)));
    }
    spf::orchestrate::SweepOptions opts;
    opts.threads = args.threads;
    opts.pool = std::make_shared<spf::ExperimentContextPool>(args.threads);

    // The traced run attributes one input set's sweep; its figures carry no
    // bound, so it needs no averaging over sets.
    Outcome out =
        args.trace
            ? run_per_layer(args.workload, specs.front(), opts, args.seconds)
            : run_end_to_end(specs, opts, args.seconds);
    for (const Metric& m : out.metrics) {
      if (!std::isfinite(m.value)) {
        out.problems.push_back("metric " + m.name + " is not finite");
      }
    }
    print_result(out);
    return out.problems.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "sweepbench: " << e.what() << "\n";
    return 1;
  }
}
