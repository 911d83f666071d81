#include "common/flags.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace tsd {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  TSD_CHECK_MSG(end != nullptr && *end == '\0',
                "flag --" << name << " is not an integer: " << it->second);
  return v;
}

std::int64_t Flags::GetIntInRange(const std::string& name,
                                  std::int64_t default_value,
                                  std::int64_t min, std::int64_t max) const {
  const std::int64_t value = GetInt(name, default_value);
  if (value < min || value > max) {
    // The raw text, since strtoll saturates a value past the int64 range.
    throw FlagError("--" + name + " must be an integer in [" +
                    std::to_string(min) + ", " + std::to_string(max) +
                    "] (got " + GetString(name, "") + ")");
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  TSD_CHECK_MSG(end != nullptr && *end == '\0',
                "flag --" << name << " is not a number: " << it->second);
  return v;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Flags::BenchScale() const {
  if (Has("scale")) return GetString("scale", "small");
  const char* env = std::getenv("TSD_BENCH_SCALE");
  if (env != nullptr && *env != '\0') return env;
  return "small";
}

}  // namespace tsd
