//===- support/Args.h - validated command-line value parsing ----*- C++ -*-===//
//
// Part of the gpuperf project: reproduction of Lai & Seznec, CGO 2013.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict numeric parsing for CLI flags. std::atoi silently turns
/// "--jobs foo" into 0 and saturates on overflow without any signal; every
/// numeric flag in the tools and benches goes through parseInteger
/// instead: full-string consumption, explicit range check, and a failure
/// message naming the offending text. flagInt/flagUnsigned wrap the two
/// integer parsers with the tools' shared failure contract: a
/// "<tool>: <flag>: <message>" diagnostic and exit code 2 (usage).
///
//===----------------------------------------------------------------------===//

#ifndef GPUPERF_SUPPORT_ARGS_H
#define GPUPERF_SUPPORT_ARGS_H

#include "support/Error.h"
#include "support/Format.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace gpuperf {

/// Parses \p Text as an integer in [\p Min, \p Max]. Base-0 semantics
/// (decimal, 0x hex, 0 octal) so address-like flags keep accepting hex.
/// Fails -- instead of guessing -- on empty input, trailing garbage
/// ("12x"), values outside the range, and overflow.
inline Expected<long long> parseInteger(const char *Text, long long Min,
                                        long long Max) {
  using Result = Expected<long long>;
  if (!Text || !*Text)
    return Result::error("expected an integer, got an empty string");
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Text, &End, 0);
  if (End == Text || *End != '\0')
    return Result::error(
        formatString("'%s' is not an integer", Text));
  if (errno == ERANGE || V < Min || V > Max)
    return Result::error(formatString(
        "'%s' is out of range [%lld, %lld]", Text, Min, Max));
  return V;
}

/// parseInteger for unsigned 64-bit ranges (watchdog budgets, byte
/// counts, parameter words) where Max may exceed LLONG_MAX.
inline Expected<unsigned long long>
parseUnsigned(const char *Text, unsigned long long Max) {
  using Result = Expected<unsigned long long>;
  if (!Text || !*Text)
    return Result::error("expected an integer, got an empty string");
  // Reject negative input explicitly: strtoull wraps "-1" to 2^64-1.
  for (const char *P = Text; *P; ++P)
    if (*P == '-')
      return Result::error(
          formatString("'%s' must be non-negative", Text));
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 0);
  if (End == Text || *End != '\0')
    return Result::error(
        formatString("'%s' is not an integer", Text));
  if (errno == ERANGE || V > Max)
    return Result::error(formatString(
        "'%s' is out of range [0, %llu]", Text, Max));
  return V;
}

/// parseInteger for the value \p Text of command-line flag \p Flag of
/// tool \p Tool; on any parse error prints "<Tool>: <Flag>: <message>"
/// to stderr and exits 2.
inline long long flagInt(const char *Tool, const char *Flag,
                         const char *Text, long long Min, long long Max) {
  auto V = parseInteger(Text, Min, Max);
  if (!V) {
    std::fprintf(stderr, "%s: %s: %s\n", Tool, Flag, V.message().c_str());
    std::exit(2);
  }
  return *V;
}

/// Same for unsigned flags (rejects negative values outright).
inline unsigned long long flagUnsigned(const char *Tool, const char *Flag,
                                       const char *Text,
                                       unsigned long long Max) {
  auto V = parseUnsigned(Text, Max);
  if (!V) {
    std::fprintf(stderr, "%s: %s: %s\n", Tool, Flag, V.message().c_str());
    std::exit(2);
  }
  return *V;
}

/// Parses \p Text against a fixed set of spelled-out choices and returns
/// the index of the match within \p Choices. Enumerated flags
/// ("--notation tuned", "--schedule list") go through this instead of
/// ad-hoc strcmp chains that silently fall back on a default: a typo
/// fails with a message listing every valid spelling.
inline Expected<int>
parseChoice(const char *Text, std::initializer_list<const char *> Choices) {
  using Result = Expected<int>;
  if (!Text || !*Text)
    return Result::error("expected a value, got an empty string");
  std::string Valid;
  int Index = 0;
  for (const char *Choice : Choices) {
    if (std::strcmp(Text, Choice) == 0)
      return Index;
    if (!Valid.empty())
      Valid += "|";
    Valid += Choice;
    ++Index;
  }
  return Result::error(
      formatString("'%s' is not one of %s", Text, Valid.c_str()));
}

} // namespace gpuperf

#endif // GPUPERF_SUPPORT_ARGS_H
