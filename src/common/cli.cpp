#include "spf/common/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace spf {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg.substr(2)] = "true";
      } else {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
  for (const auto& [name, value] : flags_) {
    (void)value;
    consumed_[name] = false;
  }
}

bool CliFlags::has(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return false;
  consumed_[name] = true;
  return true;
}

std::string CliFlags::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  consumed_[name] = true;
  return it->second;
}

std::int64_t CliFlags::get_int(const std::string& name, std::int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  consumed_[name] = true;
  return std::strtoll(it->second.c_str(), nullptr, 0);
}

double CliFlags::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  consumed_[name] = true;
  return std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::string> CliFlags::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [name, used] : consumed_) {
    if (!used) out.push_back(name);
  }
  return out;
}

}  // namespace spf
