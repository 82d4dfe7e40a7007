#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace pme {
namespace {

/// A value that does not parse is a misconfiguration, not a request for
/// the default: report the flag and stop.
[[noreturn]] void ExitMalformed(const std::string& name,
                                const std::string& value, const char* kind) {
  const Status status = Status::InvalidArgument(
      "flag --" + name + "='" + value + "' is not " + kind);
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    given_.push_back(body.substr(0, eq));
    values_[given_.back()] =
        eq != std::string::npos ? body.substr(eq + 1) : "true";
  }
  const char* full_env = std::getenv("PME_FULL");
  if (full_env != nullptr && std::string(full_env) != "0" &&
      values_.find("full") == values_.end()) {
    values_["full"] = "true";
  }
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

long long Flags::GetInt(const std::string& name,
                        long long default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  long long v = 0;
  if (!ParseInt(it->second, &v)) ExitMalformed(name, it->second, "an integer");
  return v;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double v = 0.0;
  if (!ParseDouble(it->second, &v)) ExitMalformed(name, it->second, "a number");
  return v;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v.empty();
}

bool Flags::Has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

Status Flags::CheckAccepted(const std::vector<std::string>& accepted) const {
  for (const std::string& name : given_) {
    if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::Ok();
}

}  // namespace pme
