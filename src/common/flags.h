// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_FLAGS_H_
#define PME_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace pme {

/// Minimal command-line flag parser used by benches and examples.
///
/// Accepts `--name=value` and bare `--name` (boolean true). Anything not
/// starting with `--` is collected as a positional
/// argument. Also honours the PME_FULL environment variable as an alias
/// for `--full` so the whole bench directory can be escalated at once.
class Flags {
 public:
  /// Parses argv. Unknown flags are kept (benches share a common set).
  Flags(int argc, char** argv);

  /// String flag with default.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// Integer flag with default. A value that is not an integer (`12x`)
  /// prints an error naming the flag and exits the process with status 1.
  long long GetInt(const std::string& name, long long default_value) const;
  /// Double flag with default; a malformed value exits like GetInt.
  double GetDouble(const std::string& name, double default_value) const;
  /// Boolean flag: present without value, or "=true/1/yes".
  bool GetBool(const std::string& name, bool default_value) const;

  /// True when a flag was explicitly supplied.
  bool Has(const std::string& name) const;

  /// Ok when every flag given on the command line is in `accepted`;
  /// otherwise kInvalidArgument naming the first one that is not, so a
  /// typo or a retired flag fails loudly instead of being ignored.
  /// PME_FULL's implied `--full` is not a command-line flag.
  Status CheckAccepted(const std::vector<std::string>& accepted) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> given_;  // flag names from argv, in order
  std::vector<std::string> positional_;
};

}  // namespace pme

#endif  // PME_COMMON_FLAGS_H_
