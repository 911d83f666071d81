// Minimal command-line flag parsing for the bench binaries and CLI tools.
// Supports --name=value and bare boolean --name; anything else is
// positional. (The "--name value" two-token form is intentionally not
// supported — it is ambiguous with boolean flags followed by positionals.)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"

namespace tsd {

/// A flag value out of its accepted range. what() is the whole one-line
/// diagnostic, e.g. "--threads must be an integer in [1, 1024] (got 0)".
class FlagError : public CheckError {
 public:
  using CheckError::CheckError;
};

/// Parsed command line: registered typed lookups over "--key=value" pairs.
class Flags {
 public:
  /// Parses argv. Unrecognized positional arguments are collected in
  /// positional(). Throws CheckError on malformed flags.
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  std::int64_t GetInt(const std::string& name,
                      std::int64_t default_value) const;
  /// GetInt that throws FlagError when the value lies outside [min, max],
  /// so an out-of-range count fails loudly instead of wrapping in a cast.
  std::int64_t GetIntInRange(const std::string& name,
                             std::int64_t default_value, std::int64_t min,
                             std::int64_t max) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Benchmark scale selector: reads --scale, falling back to the
  /// TSD_BENCH_SCALE environment variable, then "small".
  /// Recognized values: "tiny", "small", "large".
  std::string BenchScale() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tsd
