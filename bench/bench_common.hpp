// Shared scaffolding for the reproduction harnesses.
//
// Every bench binary runs argument-free at a CI-friendly scale and accepts:
//   --scale=paper      full-size inputs (paper Table II)
//   --l2=<bytes>       shared L2 size (default 1 MiB at CI scale, 4 MiB at
//                      paper scale)
//   --assoc=<ways>     L2 associativity (default 16)
//   --line=<bytes>     L2 line size (default 64)
//   --threads=<n>      parallel sweep fan-out via spf::orchestrate
//                      (default 0 = hardware concurrency; 1 = legacy serial)
//   --csv              emit CSV instead of the aligned table
//
// Drivers that construct a bench::TelemetrySink additionally accept:
//   --metrics-out=PATH deterministic JSONL metrics dump (spf::telemetry)
//   --trace-out=PATH   Chrome trace-event / Perfetto timeline with one lane
//                      per sweep worker (open in chrome://tracing or
//                      https://ui.perfetto.dev; see docs/telemetry.md)
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "spf/common/cli.hpp"
#include "spf/common/csv.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment.hpp"
#include "spf/orchestrate/pool.hpp"
#include "spf/orchestrate/workload_specs.hpp"
#include "spf/profile/calr.hpp"
#include "spf/telemetry/telemetry.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"

namespace spf::bench {

struct Scale {
  bool paper = false;
  CacheGeometry l2 = CacheGeometry(1 << 20, 16, 64);
  bool csv = false;
  /// Fan-out for orchestrated sweeps: 0 = hardware concurrency, 1 = the
  /// legacy serial path (bit-identical output either way).
  unsigned threads = 0;
};

// ---- strict flag parsing ---------------------------------------------
//
// Every driver shares these: a malformed numeric value ("abc", "4x",
// overflow, negative where unsigned is expected) is a usage error — exit 2
// with a message — instead of silently parsing as 0 (CliFlags::get_int) or
// throwing an unhandled std::invalid_argument.

/// Exits 2 with `msg` plus the common-flag usage line.
[[noreturn]] inline void usage_error(const std::string& msg) {
  std::cerr << msg
            << "\nusage: common flags are --scale=ci|paper --l2=<bytes> "
               "--assoc=<ways> --line=<bytes> --threads=<n> --csv "
               "--metrics-out=<path> --trace-out=<path> "
               "(see the header comment of each driver for its own flags)\n";
  std::exit(2);
}

/// Whole-token unsigned parse; rejects sign, trailing junk, and overflow.
inline bool parse_u64(const std::string& s, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0' || s[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

inline bool parse_u32(const std::string& s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// Whole-token double parse; rejects trailing junk and out-of-range values.
inline bool parse_double(const std::string& s, double& out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

/// Strict accessor: `--name=<unsigned>` or the default; usage error otherwise.
inline std::uint64_t require_uint(const CliFlags& flags, const std::string& name,
                                  std::uint64_t def) {
  const std::string raw = flags.get(name, "");
  if (raw.empty() && !flags.has(name)) return def;
  std::uint64_t v = 0;
  if (!parse_u64(raw, v)) {
    usage_error("bad --" + name + " value '" + raw + "' (want unsigned int)");
  }
  return v;
}

/// Strict accessor: `--name=<number>` or the default; usage error otherwise.
inline double require_double(const CliFlags& flags, const std::string& name,
                             double def) {
  const std::string raw = flags.get(name, "");
  if (raw.empty() && !flags.has(name)) return def;
  double v = 0.0;
  if (!parse_double(raw, v)) {
    usage_error("bad --" + name + " value '" + raw + "' (want number)");
  }
  return v;
}

/// Strict accessor: bare `--name`, `--name=<bool>`, or the default.
/// A typo ("--provenance=ture") is a usage error, not a silent default.
inline bool require_bool(const CliFlags& flags, const std::string& name,
                         bool def) {
  if (!flags.has(name)) return def;
  const std::string raw = flags.get(name, "");
  if (raw.empty() || raw == "true" || raw == "1" || raw == "yes" ||
      raw == "on") {
    return true;
  }
  if (raw == "false" || raw == "0" || raw == "no" || raw == "off") {
    return false;
  }
  usage_error("bad --" + name + " value '" + raw + "' (want true|false)");
}

/// The non-empty items of a `sep`-separated flag value.
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

inline Scale parse_scale(const CliFlags& flags) {
  Scale s;
  const std::string scale_name = flags.get("scale", "ci");
  if (scale_name != "ci" && scale_name != "paper") {
    usage_error("bad --scale value '" + scale_name + "' (want ci|paper)");
  }
  s.paper = scale_name == "paper";
  const std::uint64_t l2_bytes =
      require_uint(flags, "l2", s.paper ? (4u << 20) : (1u << 20));
  const auto assoc = static_cast<std::uint32_t>(require_uint(flags, "assoc", 16));
  const auto line = static_cast<std::uint32_t>(require_uint(flags, "line", 64));
  try {
    s.l2 = CacheGeometry(l2_bytes, assoc, line);
  } catch (const std::exception& e) {
    usage_error(std::string("bad L2 geometry: ") + e.what());
  }
  s.csv = require_bool(flags, "csv", false);
  s.threads = static_cast<unsigned>(require_uint(flags, "threads", 0));
  return s;
}

inline void fail_on_unknown_flags(const CliFlags& flags) {
  const auto unknown = flags.unconsumed();
  if (!unknown.empty()) {
    std::cerr << "unknown flags:";
    for (const auto& f : unknown) std::cerr << " --" << f;
    std::cerr << "\n";
    std::exit(2);
  }
  // No driver takes positional arguments; a stray one is almost always a
  // flag typed with a space instead of '=' (e.g. `--out FILE`), and silently
  // ignoring it means the flag silently kept its default.
  if (!flags.positional().empty()) {
    std::cerr << "unexpected positional arguments:";
    for (const auto& p : flags.positional()) std::cerr << " " << p;
    std::cerr << " (flags take the form --name=value)\n";
    std::exit(2);
  }
}

inline void emit(const Table& table, const Scale& scale) {
  if (scale.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

// Workload configurations at the two scales. CI configs preserve the paper's
// qualitative Set Affinity ordering (EM3D << MST <= MCF) against the chosen
// L2 (see DESIGN.md §5).
inline Em3dConfig em3d_config(const Scale& s) {
  if (s.paper) return Em3dConfig::paper_scale();
  Em3dConfig c;
  c.nodes = 20000;
  c.arity = 64;
  c.passes = 1;
  return c;
}

/// Late-tight-phase em3d (Em3dConfig::prelude_arity): quiet reduced-arity
/// prelude passes, then the full-arity pressured pass LAST — the phase
/// ordering where per-phase Set-Affinity capping can beat the whole-run cap
/// (the whole-run bound throttles the quiet prelude too; see
/// docs/method.md "Per-phase Set Affinity").
inline Em3dConfig em3d_late_config(const Scale& s) {
  Em3dConfig c = em3d_config(s);
  c.passes = 2;
  c.prelude_arity = s.paper ? 16 : 8;
  return c;
}

inline McfConfig mcf_config(const Scale& s) {
  if (s.paper) return McfConfig::paper_scale();
  McfConfig c;
  c.nodes = 8000;
  c.arcs = 48000;
  c.passes = 3;
  return c;
}

inline MstConfig mst_config(const Scale& s) {
  if (s.paper) return MstConfig::paper_scale();
  MstConfig c;
  c.vertices = 1200;
  c.degree = 64;
  c.buckets = 128;
  return c;
}

/// The sweep workload called `name` at `scale`; usage error otherwise.
inline orchestrate::WorkloadSpec workload_spec(const std::string& name,
                                               const Scale& scale) {
  if (name == "em3d") return orchestrate::em3d_spec(em3d_config(scale));
  if (name == "em3d-late") {
    return orchestrate::em3d_spec(em3d_late_config(scale), "em3d-late");
  }
  if (name == "mcf") return orchestrate::mcf_spec(mcf_config(scale));
  if (name == "mst") return orchestrate::mst_spec(mst_config(scale));
  usage_error("unknown workload '" + name + "' (em3d|em3d-late|mcf|mst)");
}

/// Routes the --metrics-out= / --trace-out= flags: when either is set, owns
/// a telemetry::Session sized one lane per sweep worker (plus the main lane),
/// installs it for the driver's lifetime, and writes the artifacts on flush()
/// / destruction. Construct *before* fail_on_unknown_flags — constructing the
/// sink is what consumes the flags, so drivers that don't build one reject
/// them as unknown (exit 2) instead of silently ignoring a requested
/// artifact. Output files open eagerly: a bad path fails in milliseconds,
/// not after the last sweep cell.
class TelemetrySink {
 public:
  TelemetrySink(const CliFlags& flags, const Scale& scale, std::string process)
      : process_(std::move(process)) {
    metrics_path_ = flags.get("metrics-out", "");
    trace_path_ = flags.get("trace-out", "");
    if (metrics_path_.empty() && trace_path_.empty()) return;
    if (!metrics_path_.empty()) {
      metrics_.open(metrics_path_);
      if (!metrics_) {
        std::cerr << "cannot open " << metrics_path_ << "\n";
        std::exit(1);
      }
    }
    if (!trace_path_.empty()) {
      trace_.open(trace_path_);
      if (!trace_) {
        std::cerr << "cannot open " << trace_path_ << "\n";
        std::exit(1);
      }
    }
    session_ = std::make_unique<telemetry::Session>(
        orchestrate::resolve_threads(scale.threads) + 1);
    previous_ = telemetry::install(session_.get());
  }
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;
  ~TelemetrySink() { flush(); }

  /// nullptr when neither flag was given (telemetry stays off).
  [[nodiscard]] telemetry::Session* session() noexcept { return session_.get(); }

  /// Uninstalls the session and writes the requested artifacts (idempotent).
  void flush() {
    if (!session_) return;
    telemetry::install(previous_);
    if (metrics_.is_open()) session_->write_metrics_jsonl(metrics_);
    if (trace_.is_open()) session_->write_chrome_trace(trace_, process_);
    session_.reset();
  }

 private:
  std::string process_;
  std::string metrics_path_;
  std::string trace_path_;
  std::ofstream metrics_;
  std::ofstream trace_;
  std::unique_ptr<telemetry::Session> session_;
  telemetry::Session* previous_ = nullptr;
};

}  // namespace spf::bench
