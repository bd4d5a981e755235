#pragma once

/// \file
/// Always-on invariant checking. The library does not use exceptions
/// (contract violations are programming errors, not recoverable states), so
/// a failed check prints the failing expression with its location and
/// aborts. Unlike assert(), these checks are active in release builds: the
/// protocols are randomized and a silently corrupted invariant would
/// invalidate every measured communication bound.
///
/// A check is one compare and a branch to one shared cold function; each
/// site's location is a static record in data, not an immediate in .text.

namespace nmc::common {

/// Where a check sits and what it tests; one constant record per site.
struct CheckSite {
  const char* file;
  int line;
  const char* text;
};

/// Prints "NMC_CHECK failed at <file>:<line>: <text>" to stderr and aborts.
[[noreturn, gnu::cold, gnu::noinline]] void CheckFailed(const CheckSite* site);

}  // namespace nmc::common

// Parentheses, not braces: a check may sit inside another macro's argument.
#define NMC_CHECK_IMPL(cond, text)                                           \
  do {                                                                       \
    if (!(cond)) [[unlikely]] {                                              \
      static constexpr ::nmc::common::CheckSite nmc_check_site(              \
          __FILE__, __LINE__, text);                                         \
      ::nmc::common::CheckFailed(&nmc_check_site);                           \
    }                                                                        \
  } while (0)

#define NMC_CHECK(cond) NMC_CHECK_IMPL(cond, #cond)
#define NMC_CHECK_OP(op, a, b) NMC_CHECK_IMPL((a)op(b), #a " " #op " " #b)

#define NMC_CHECK_EQ(a, b) NMC_CHECK_OP(==, a, b)
#define NMC_CHECK_NE(a, b) NMC_CHECK_OP(!=, a, b)
#define NMC_CHECK_LT(a, b) NMC_CHECK_OP(<, a, b)
#define NMC_CHECK_LE(a, b) NMC_CHECK_OP(<=, a, b)
#define NMC_CHECK_GT(a, b) NMC_CHECK_OP(>, a, b)
#define NMC_CHECK_GE(a, b) NMC_CHECK_OP(>=, a, b)
