#include "kgacc/util/arg_parser.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace kgacc {

std::string ParsedArgs::GetString(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

Result<double> ParsedArgs::GetDouble(const std::string& name,
                                     double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " expects a number, got '" + it->second +
                                   "'");
  }
  return value;
}

Result<int64_t> ParsedArgs::GetInt(const std::string& name,
                                   int64_t fallback, int64_t min,
                                   int64_t max) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " expects an integer, got '" + it->second +
                                   "'");
  }
  if (errno == ERANGE || value < min || value > max) {
    return Status::InvalidArgument(
        "flag --" + name + " must be in [" + std::to_string(min) + ", " +
        std::to_string(max) + "], got '" + it->second + "'");
  }
  return static_cast<int64_t>(value);
}

Result<bool> ParsedArgs::GetBool(const std::string& name,
                                 bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  return Status::InvalidArgument("flag --" + name +
                                 " expects true/false, got '" + v + "'");
}

ArgParser& ArgParser::AddFlag(const std::string& name,
                              const std::string& help) {
  declared_.emplace_back(name, help);
  return *this;
}

Result<ParsedArgs> ArgParser::Parse(int argc, const char* const* argv) const {
  ParsedArgs out;
  bool flags_done = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || arg.empty() || arg[0] != '-' || arg == "-") {
      out.positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') {
      return Status::InvalidArgument("unrecognized argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value;
    const size_t eq = name.find('=');
    bool has_value = false;
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const bool known =
        std::any_of(declared_.begin(), declared_.end(),
                    [&](const auto& d) { return d.first == name; });
    if (!known) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    if (!has_value && i + 1 < argc && argv[i + 1][0] != '-') {
      value = argv[++i];
    }
    out.flags_[name] = value;
  }
  return out;
}

std::string ArgParser::HelpText() const {
  std::string out = "Flags:\n";
  for (const auto& [name, help] : declared_) {
    out += "  --" + name;
    out.append(name.size() < 18 ? 18 - name.size() : 1, ' ');
    out += help + "\n";
  }
  return out;
}

}  // namespace kgacc
