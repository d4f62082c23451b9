#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <exception>

#include "util/check.hpp"

namespace ndet {

int exit_code_for(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kCancelled:
    case ErrorKind::kDeadlineExceeded:
      return kExitTimeout;
    case ErrorKind::kInvalidInput:
      return kExitInvalidInput;
    case ErrorKind::kResourceExhausted:
    case ErrorKind::kInternal:
      return kExitInternal;
  }
  return kExitInternal;
}

int run_cli(const std::function<int()>& body) {
  try {
    return body();
  } catch (const Error& e) {
    std::fprintf(stderr, "error (%s): %s\n", to_string(e.kind()), e.what());
    return exit_code_for(e.kind());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitInternal;
  }
}

CliArgs::CliArgs(int argc, const char* const* argv, std::set<std::string> known)
    : known_(std::move(known)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string name =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (!known_.contains(name)) {
      std::string valid;
      for (const auto& k : known_) valid += " --" + k;
      throw contract_error("unknown option --" + name + "; valid options:" + valid);
    }
    options_[name] = value;
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.contains(name);
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::uint64_t CliArgs::get_u64(const std::string& name,
                               std::uint64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(
      it->second.data(), it->second.data() + it->second.size(), value);
  require(ec == std::errc{} && ptr == it->second.data() + it->second.size(),
          "option --" + name + " expects an unsigned integer, got '" +
              it->second + "'");
  return value;
}

}  // namespace ndet
