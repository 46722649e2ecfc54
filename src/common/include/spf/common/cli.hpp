// Minimal --key=value flag parser for the bench/example binaries. Every
// bench binary must run with no arguments (scripts/repro_all.sh runs each
// declared bench target), so all flags carry defaults; unknown flags are an
// error to catch typos. Boolean flags parse through bench::require_bool,
// which rejects a misspelled value instead of reading it as false.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spf {

class CliFlags {
 public:
  /// Parses argv of the form --name=value or --name (boolean true).
  /// Positional arguments are collected separately.
  CliFlags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Flags that were parsed but never queried — call after all get()s to
  /// reject typos. Returns the unknown names.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace spf
