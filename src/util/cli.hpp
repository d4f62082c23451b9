// cli.hpp -- minimal command line option parsing for examples and benches.
//
// All experiment binaries accept overrides such as --k=1000 or --seed=7 so
// that the paper's parameters (K = 10000 test sets, nmax = 10) can be traded
// against runtime.  Only `--name=value` and bare positional arguments are
// supported; unknown options raise a contract_error listing the valid names.
//
// run_cli is the shared top-level guard: it maps the pipeline's typed error
// taxonomy (util/cancel.hpp) onto the CLI exit-code convention, so every
// example exits 124 on a deadline/cancel, 2 on invalid input (malformed
// circuit files, bad options) and 1 on anything unexpected -- scripts can
// branch on the outcome without parsing stderr.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/cancel.hpp"

namespace ndet {

/// The examples' exit-code convention (124 matches timeout(1)).
inline constexpr int kExitInternal = 1;
inline constexpr int kExitInvalidInput = 2;
inline constexpr int kExitTimeout = 124;

/// Exit code for a typed error kind: kCancelled/kDeadlineExceeded -> 124,
/// kInvalidInput -> 2, everything else -> 1.
int exit_code_for(ErrorKind kind);

/// Runs a CLI main body, printing any escaping error to stderr (with its
/// kind and stage) and returning the mapped exit code.
int run_cli(const std::function<int()>& body);

/// Parsed command line: named `--key=value` options plus positionals.
class CliArgs {
 public:
  /// Parses argv; `known` lists the accepted option names (without dashes).
  CliArgs(int argc, const char* const* argv, std::set<std::string> known);

  /// True when --name was supplied.
  bool has(const std::string& name) const;

  /// String option with default.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Unsigned integer option with default (throws on non-numeric values).
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;

  /// Positional arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  std::set<std::string> known_;
};

}  // namespace ndet
