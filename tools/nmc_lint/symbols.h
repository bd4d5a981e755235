#pragma once

#include <string>
#include <vector>

#include "nmc_lint/lexer.h"

namespace nmc::lint {

/// Thread-compatibility contract an author wrote on a function definition:
///   // nmc: reentrant                    — safe to call concurrently on
///                                          distinct objects; touches no
///                                          mutable shared state
///   // nmc: not-thread-safe(reason)      — documented hostile; the reason
///                                          is mandatory
/// The markers are *checked*, not decorative: a reentrant function may only
/// call reentrant functions (THREAD_COMPAT), and a marker that attaches to
/// nothing, names an unknown verb, or omits its reason is itself a finding.
enum class ThreadAnnotation {
  kNone,
  kReentrant,
  kNotThreadSafe,
};

/// One function *definition* (declarations carry no body and no symbol).
/// Built by a best-effort, deterministic scan of the code token stream:
/// namespace/class scopes are brace-tracked, out-of-class `Cls::Name(...)`
/// definitions recover their class from the qualifier, and the body is the
/// balanced token range between the definition's braces. Known imprecision
/// (templates instantiations, overload sets collapsing onto one name,
/// macro-generated bodies) is documented in DESIGN.md §11.
struct FunctionSymbol {
  std::string name;        ///< unqualified: "EnsureGap"
  std::string class_name;  ///< enclosing/qualifying class; "" = free fn
  std::string name_space;  ///< "nmc::sim"; "" = global; "(anon)" segments
  std::string file;        ///< repo-relative path
  int line = 0;            ///< 1-based line of the name token
  ThreadAnnotation annotation = ThreadAnnotation::kNone;
  int annotation_line = 0;

  /// "Class::name" or "name" — the human-facing spelling in chains.
  std::string Display() const {
    return class_name.empty() ? name : class_name + "::" + name;
  }
};

/// A mutable `static` local inside some function body — per-process state
/// that every thread would share.
struct StaticLocal {
  size_t function_index = 0;  ///< into FileSymbols::functions
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

/// One call site inside a function body, pre-resolution.
struct CallSite {
  size_t caller_index = 0;  ///< into FileSymbols::functions
  std::string name;         ///< unqualified callee name
  std::vector<std::string> quals;  ///< qualifier chain: {"std"}, {"Cls"}...
  bool member_call = false;        ///< receiver.name(...) / ptr->name(...)
  int line = 0;
};

/// A raw `// nmc: ...` marker, parsed from the unstripped source lines.
/// Same attachment convention as the allow() annotations: a marker on a
/// comment-only line applies to the next line, an inline marker to its own
/// line; it attaches to the function whose name-token line starts within
/// two lines of the target (definitions wrap).
struct ThreadMarker {
  int line = 0;         ///< line the marker was written on
  int target_line = 0;  ///< first line it may attach to
  std::string verb;     ///< "reentrant", "not-thread-safe", or unknown text
  std::string reason;   ///< parenthesized argument, "" if none
  ThreadAnnotation kind = ThreadAnnotation::kNone;  ///< kNone = unknown verb
  bool attached = false;
};

/// Everything the interprocedural layers need from one file, built in a
/// single pass: the lexed code stream, every function definition with its
/// body range, raw call sites, mutable globals, static locals, and thread
/// markers (already attached to their functions where possible).
struct FileSymbols {
  std::string file;
  std::vector<Token> code;  ///< the code token stream the scan walks
  std::vector<FunctionSymbol> functions;  ///< in source order
  std::vector<CallSite> calls;            ///< in source order
  std::vector<StaticLocal> static_locals;
  std::vector<MutableGlobal> mutable_globals;
  std::vector<ThreadMarker> markers;
};

/// Parses `content` as if it lived at repo-relative `path`. Deterministic:
/// output depends only on (path, content).
FileSymbols BuildFileSymbols(const std::string& path,
                             const std::string& content);

}  // namespace nmc::lint
