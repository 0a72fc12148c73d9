#ifndef KGACC_UTIL_ARG_PARSER_H_
#define KGACC_UTIL_ARG_PARSER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kgacc/util/status.h"

/// \file arg_parser.h
/// A minimal command-line flag parser for the kgacc tools. Supports
/// `--name=value`, `--name value`, boolean `--name`, and positional
/// arguments; unknown flags are errors so typos do not silently change an
/// audit's configuration.

namespace kgacc {

/// Parsed command line: flag values by name plus positional arguments.
class ParsedArgs {
 public:
  /// True when the flag was present (with or without a value).
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  /// String value of a flag, or `fallback` when absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;

  /// Number flag, or `fallback` when absent; error when present but
  /// unparsable.
  Result<double> GetDouble(const std::string& name, double fallback) const;

  /// Integer flag, or `fallback` when absent; error when present but
  /// unparsable or outside [min, max], the range of the field it sets.
  Result<int64_t> GetInt(const std::string& name, int64_t fallback,
                         int64_t min, int64_t max) const;

  /// Boolean flag: present without value or with "true"/"1" is true;
  /// "false"/"0" is false.
  Result<bool> GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  friend class ArgParser;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Declarative flag schema + parser.
class ArgParser {
 public:
  /// Declares a legal flag with a help string.
  ArgParser& AddFlag(const std::string& name, const std::string& help);

  /// Parses argv (excluding argv[0]). Unknown flags are errors. A bare `--`
  /// ends flag parsing; everything after is positional.
  Result<ParsedArgs> Parse(int argc, const char* const* argv) const;

  /// Renders the declared flags as a usage block.
  std::string HelpText() const;

 private:
  std::vector<std::pair<std::string, std::string>> declared_;
};

}  // namespace kgacc

#endif  // KGACC_UTIL_ARG_PARSER_H_
