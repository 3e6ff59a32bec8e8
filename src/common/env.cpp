#include "common/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace qugeo::env {
namespace {

[[noreturn]] void reject(const char* name, const char* expected,
                         const char* value) {
  throw std::invalid_argument(std::string(name) + ": expected " + expected +
                              ", got '" + value + "'");
}

/// Strict unsigned-decimal parse of the WHOLE value. strtoull alone is not
/// enough: it accepts leading whitespace, a '-' sign (wrapping through
/// two's complement), and stops silently at trailing junk — exactly the
/// failure modes this module exists to reject.
std::uint64_t parse_u64_value(const char* name, const char* value,
                              const char* expected) {
  if (*value == '\0' || !std::isdigit(static_cast<unsigned char>(*value)))
    reject(name, expected, value);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') reject(name, expected, value);
  if (errno == ERANGE) reject(name, expected, value);
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::size_t parse_env_size_t(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  return static_cast<std::size_t>(
      parse_u64_value(name, v, "a non-negative integer"));
}

std::size_t parse_env_positive(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  const std::uint64_t parsed = parse_u64_value(name, v, "a positive integer");
  if (parsed == 0) reject(name, "a positive integer", v);
  return static_cast<std::size_t>(parsed);
}

std::uint64_t parse_env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  return parse_u64_value(name, v, "a non-negative integer (unsigned)");
}

Real parse_env_probability(const char* name, Real fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  if (*v == '\0') reject(name, "a probability in [0, 1]", v);
  char* end = nullptr;
  const Real parsed = std::strtod(v, &end);
  // Written as a negated range test so NaN, which fails every comparison,
  // is rejected too.
  if (end == v || *end != '\0' || !(parsed >= 0 && parsed <= 1))
    reject(name, "a probability in [0, 1]", v);
  return parsed;
}

}  // namespace qugeo::env
