#pragma once

#include <string>
#include <vector>

#include "nmc_lint/lexer.h"

namespace nmc::lint {

/// A mutable `static` local inside some function body — per-process state
/// that every thread would share.
struct StaticLocal {
  std::string function;  ///< "Class::name" or "name" of the enclosing body
  int line = 0;
  std::string hint;  ///< declared name when recoverable, else ""
};

/// Non-const namespace-scope data or a non-const static data member:
/// mutable state with process lifetime, the exact thing a threaded runtime
/// cannot tolerate undeclared.
struct MutableGlobal {
  std::string name;
  std::string owner;  ///< enclosing class for static members, else ""
  int line = 0;
  bool is_static_member = false;
};

/// The process-wide mutable state one file declares, built by a
/// best-effort, deterministic scan of the code token stream: namespace and
/// class scopes are brace-tracked, out-of-class `Cls::Name(...)`
/// definitions recover their class from the qualifier, and each function
/// body is searched for static locals. Known imprecision (template
/// instantiations, macro-generated bodies) is documented in DESIGN.md §11.
struct FileSymbols {
  std::vector<StaticLocal> static_locals;
  std::vector<MutableGlobal> mutable_globals;
};

/// Scans `code` (the code token stream: identifiers, numbers, punctuation).
/// Deterministic: output depends only on the tokens.
FileSymbols BuildFileSymbols(const std::vector<Token>& code);

}  // namespace nmc::lint
