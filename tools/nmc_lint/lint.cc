#include "nmc_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "nmc_lint/call_graph.h"
#include "nmc_lint/include_graph.h"
#include "nmc_lint/lexer.h"
#include "nmc_lint/scopes.h"
#include "nmc_lint/symbols.h"
#include "nmc_lint/token_match.h"

namespace nmc::lint {

namespace {

// Path scopes, name tables, and token matchers live in scopes.h and
// token_match.h, shared with the symbol/call-graph layers.

// ---- Rule registry --------------------------------------------------------

const std::vector<RuleInfo> kAllRules = {
    {"NO_UNSEEDED_RNG",
     "no std::random_device / rand() / srand, and every engine construction "
     "seeds from a parameter or a common/rng.h factory (src/, bench/, "
     "tools/)"},
    {"NO_WALLCLOCK_IN_SIM",
     "no wall-clock reads in src/ outside src/bench timing code"},
    {"NO_UNORDERED_ITERATION_IN_PROTOCOL",
     "no iteration over unordered containers in src/{core,hyz,baselines,sim}"},
    {"NO_MAP_IN_HOT_PATH",
     "no std::map/std::multimap/std::deque in src/sim delivery paths or any "
     "function a hot-path entry point reaches"},
    {"NO_IOSTREAM_IN_LIB", "no std::cout/printf in library code"},
    {"NO_PER_UPDATE_TRANSCENDENTALS",
     "no log/exp/pow inside hot-path entry points (src/{core,hyz,baselines,"
     "sim}) or any function they transitively call; hoist into a rate "
     "helper or cache (see core::RateCache)"},
    {"NO_HEAP_IN_HOT_PATH",
     "no new/make_unique/make_shared, and no push_back/emplace_back on a "
     "receiver the file never reserve()s, inside hot-path entry points "
     "(src/{core,hyz,baselines,sim}) or any function they transitively "
     "call"},
    {"NO_MUTABLE_GLOBAL_STATE",
     "no non-const namespace-scope data or non-const static data members in "
     "src/ — process-wide state a threaded runtime cannot tolerate "
     "undeclared"},
    {"NO_STATIC_LOCAL_IN_REENTRANT",
     "no mutable function-local statics in functions reachable from "
     "hot-path entry points, Protocol/Network/BatchRng members, or "
     "// nmc: reentrant functions"},
    {"THREAD_COMPAT",
     "// nmc: reentrant / not-thread-safe(reason) contracts are "
     "well-formed, attach to a definition, and a reentrant function only "
     "calls reentrant functions"},
    {"ATOMIC_ORDER_EXPLICIT",
     "every atomic load/store/RMW in src/ spells its memory_order "
     "argument; a defaulted (seq_cst) call hides the synchronization "
     "contract the model checker verifies"},
    {"SEQ_CST_JUSTIFIED",
     "every memory_order_seq_cst in src/ carries a same-or-previous-line "
     "// nmc: seq-cst(reason) — the total order is expensive and almost "
     "never what the protocol actually needs"},
    {"NO_RAW_ATOMIC_IN_RUNTIME",
     "concurrency in src/runtime/ and the lock-free primitives goes "
     "through the atomics policy shim (common/atomic_policy.h), never raw "
     "std::atomic / atomic_thread_fence — raw atomics are invisible to "
     "tools/nmc_race"},
    {"INCLUDE_HYGIENE",
     "no parent-relative #include \"../...\" and no <bits/...> headers"},
    {"PRAGMA_ONCE", "every header starts with #pragma once"},
    {"LAYERING_VIOLATION",
     "includes must follow the layer DAG in tools/nmc_lint/layers.txt"},
    {"NO_INCLUDE_CYCLES", "the repo include graph must stay acyclic"},
    {"INCLUDE_DEPTH",
     "transitive include depth stays within the layers.txt budget"},
    {"ALLOW_MISSING_REASON", "nmc-lint: allow(...) must carry a reason"},
    {"ALLOW_UNKNOWN_RULE", "nmc-lint: allow(...) names a rule that exists"},
    {"ALLOW_UNUSED", "nmc-lint: allow(...) must suppress something"},
    {"LINT_IO", "every linted file is readable"},
};

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& rule : kAllRules) {
    if (id == rule.id) return true;
  }
  return false;
}

// ---- Token streams --------------------------------------------------------

/// The rules walk "code" (identifiers/numbers/punctuation) and directives as
/// two parallel streams; literal and comment tokens are dropped entirely —
/// nothing inside them can match, which is the point of lexing.
struct TokenStreams {
  std::vector<Token> code;
  std::vector<Token> directives;
};

TokenStreams SplitStreams(const std::vector<Token>& tokens) {
  TokenStreams streams;
  for (const Token& token : tokens) {
    if (IsCodeToken(token)) {
      streams.code.push_back(token);
    } else if (token.kind == TokenKind::kPpDirective) {
      streams.directives.push_back(token);
    }
  }
  return streams;
}

// ---- Simple token-pattern rules -------------------------------------------

constexpr const char* kWallclockBare[] = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "localtime",    "gmtime"};
constexpr const char* kWallclockCalls[] = {"time", "clock"};

void CheckWallclock(const std::string& path, const std::vector<Token>& code,
                    std::vector<Finding>* findings) {
  const char* message =
      "wall-clock read in simulator/protocol code; timing belongs in "
      "src/bench";
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsIdentIn(code, i, kWallclockBare)) {
      findings->push_back({path, code[i].line, "NO_WALLCLOCK_IN_SIM", message});
    } else if (IsIdentIn(code, i, kWallclockCalls) && IsPunct(code, i + 1, "(")) {
      findings->push_back({path, code[i].line, "NO_WALLCLOCK_IN_SIM", message});
    }
  }
}

void CheckMapInHotPath(const std::string& path, const std::vector<Token>& code,
                       std::vector<Finding>* findings) {
  for (size_t i = 0; i + 3 < code.size(); ++i) {
    if (IsIdent(code, i, "std") && IsPunct(code, i + 1, "::") &&
        IsIdentIn(code, i + 2, kMapLike) && IsPunct(code, i + 3, "<")) {
      findings->push_back(
          {path, code[i].line, "NO_MAP_IN_HOT_PATH",
           "node-based container in src/sim delivery path; use a flat "
           "vector/array (see PR 1 regression class)"});
    }
  }
}

void CheckIostream(const std::string& path, const TokenStreams& streams,
                   std::vector<Finding>* findings) {
  const char* message =
      "console output in library code; return data or use "
      "fprintf(stderr, ...) at the binary layer";
  static const std::regex kIostreamInclude(R"(^#\s*include\s*<iostream>)");
  for (const Token& directive : streams.directives) {
    if (std::regex_search(directive.text, kIostreamInclude)) {
      findings->push_back(
          {path, directive.line, "NO_IOSTREAM_IN_LIB", message});
    }
  }
  const std::vector<Token>& code = streams.code;
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsIdent(code, i, "std") && IsPunct(code, i + 1, "::") &&
        (IsIdent(code, i + 2, "cout") || IsIdent(code, i + 2, "cerr"))) {
      findings->push_back({path, code[i].line, "NO_IOSTREAM_IN_LIB", message});
    } else if (IsIdent(code, i, "printf") && IsPunct(code, i + 1, "(")) {
      findings->push_back({path, code[i].line, "NO_IOSTREAM_IN_LIB", message});
    }
  }
}

void CheckIncludeHygiene(const std::string& path, const TokenStreams& streams,
                         std::vector<Finding>* findings) {
  static const std::regex kParentRe(R"(^#\s*include\s*\"\.\./)");
  static const std::regex kBitsRe(R"(^#\s*include\s*<bits/)");
  for (const Token& directive : streams.directives) {
    if (std::regex_search(directive.text, kParentRe)) {
      findings->push_back({path, directive.line, "INCLUDE_HYGIENE",
                           "parent-relative #include; include repo-rooted "
                           "paths (e.g. \"core/sampling.h\")"});
    }
    if (std::regex_search(directive.text, kBitsRe)) {
      findings->push_back({path, directive.line, "INCLUDE_HYGIENE",
                           "non-portable <bits/...> header"});
    }
  }
}

void CheckPragmaOnce(const std::string& path, const TokenStreams& streams,
                     std::vector<Finding>* findings) {
  static const std::regex kPragmaOnce(R"(^#\s*pragma\s+once\b)");
  for (const Token& directive : streams.directives) {
    if (std::regex_search(directive.text, kPragmaOnce)) return;
  }
  findings->push_back({path, 1, "PRAGMA_ONCE",
                       "header lacks #pragma once (repo convention; "
                       "#ifndef guards were retired in PR 2)"});
}

// ---- Atomics-discipline rules ---------------------------------------------

/// std::atomic member operations that take a memory_order parameter and
/// default it to seq_cst when omitted. `load`/`store` are atomic-specific
/// enough as member names in this codebase; the repo's own SlotArray
/// spells Store/View capitalized precisely to stay out of this namespace.
constexpr const char* kAtomicOrderedOps[] = {
    "load",          "store",        "exchange",
    "fetch_add",     "fetch_sub",    "fetch_and",
    "fetch_or",      "fetch_xor",    "test_and_set",
    "compare_exchange_weak",         "compare_exchange_strong"};

/// ATOMIC_ORDER_EXPLICIT: a member call `x.load(...)` / `x->fetch_add(...)`
/// must mention a memory_order somewhere in its argument list — either a
/// std::memory_order_* constant or a Policy::Order(...) wrapper (whose
/// site argument spells the declared constant). Lexical by design: the
/// receiver's type is unknown, but non-atomic receivers with these exact
/// member names do not occur in library code, and allow() is the escape.
void CheckAtomicOrderExplicit(const std::string& path,
                              const std::vector<Token>& code,
                              std::vector<Finding>* findings) {
  for (size_t i = 2; i < code.size(); ++i) {
    if (!IsIdentIn(code, i, kAtomicOrderedOps)) continue;
    if (!IsPunct(code, i - 1, ".") && !IsPunct(code, i - 1, "->")) continue;
    if (!IsPunct(code, i + 1, "(")) continue;
    const size_t close = MatchingClose(code, i + 1, ParenDelta);
    if (close == code.size()) continue;  // unbalanced; not a call we parse
    bool has_order = false;
    for (size_t j = i + 2; j < close; ++j) {
      if (IsIdent(code, j) &&
          code[j].text.rfind("memory_order", 0) == 0) {
        has_order = true;
        break;
      }
    }
    if (!has_order) {
      findings->push_back(
          {path, code[i].line, "ATOMIC_ORDER_EXPLICIT",
           "'" + code[i].text +
               "' with a defaulted memory_order (seq_cst); spell the "
               "ordering — and justify it if seq_cst is really meant"});
    }
  }
}

/// SEQ_CST_JUSTIFIED: each memory_order_seq_cst token needs a
/// // nmc: seq-cst(<reason>) on its own or the preceding raw line.
void CheckSeqCstJustified(const std::string& path,
                          const std::vector<Token>& code,
                          const std::vector<std::string>& lines,
                          std::vector<Finding>* findings) {
  static const std::regex kJustification(R"(//\s*nmc:\s*seq-cst\([^)\s][^)]*\))");
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdent(code, i, "memory_order_seq_cst")) continue;
    const int line = code[i].line;  // 1-based
    bool justified = false;
    for (int candidate = line - 1; candidate <= line; ++candidate) {
      if (candidate < 1 || candidate > static_cast<int>(lines.size())) {
        continue;
      }
      if (std::regex_search(lines[static_cast<size_t>(candidate) - 1],
                            kJustification)) {
        justified = true;
        break;
      }
    }
    if (!justified) {
      findings->push_back(
          {path, line, "SEQ_CST_JUSTIFIED",
           "memory_order_seq_cst without a justification; write "
           "// nmc: seq-cst(<why the single total order is required>) on "
           "this or the preceding line"});
    }
  }
}

/// NO_RAW_ATOMIC_IN_RUNTIME: inside the modeled-concurrency scope
/// (src/runtime/ + the lock-free primitive headers), spelling std::atomic
/// or a bare fence bypasses the policy shim and makes the code invisible
/// to the model checker.
void CheckRawAtomicInRuntime(const std::string& path,
                             const std::vector<Token>& code,
                             std::vector<Finding>* findings) {
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsIdent(code, i, "std") && IsPunct(code, i + 1, "::") &&
        (IsIdent(code, i + 2, "atomic") ||
         IsIdent(code, i + 2, "atomic_flag"))) {
      findings->push_back(
          {path, code[i].line, "NO_RAW_ATOMIC_IN_RUNTIME",
           "raw std::" + code[i + 2].text +
               " in model-checked concurrency code; use the policy shim "
               "(common::RuntimeAtomic<T> or Policy::template Atomic<T>) "
               "so tools/nmc_race can model this synchronization"});
    } else if (IsIdent(code, i, "atomic_thread_fence")) {
      findings->push_back(
          {path, code[i].line, "NO_RAW_ATOMIC_IN_RUNTIME",
           "bare atomic_thread_fence in model-checked concurrency code; "
           "route fences through Policy::Fence(OrderSite, order)"});
    }
  }
}

// ---- NO_UNSEEDED_RNG: banned sources + seed provenance --------------------

/// Engines whose construction demands a traceable seed.
constexpr const char* kStdEngines[] = {
    "mt19937",       "mt19937_64",   "minstd_rand",   "minstd_rand0",
    "default_random_engine",         "knuth_b",       "ranlux24",
    "ranlux48",      "ranlux24_base", "ranlux48_base"};

/// Identifiers that taint a seed expression outright.
constexpr const char* kTaintedSources[] = {"random_device", "rand", "srand",
                                           "time", "clock", "getpid"};

/// common/rng.h methods that yield derived, provenance-clean seeds or
/// engines when called on an already-clean Rng.
constexpr const char* kRngFactoryMethods[] = {"Fork", "NextU64", "UniformInt"};

/// Type-ish leading tokens that mark a parenthesized list as a parameter
/// list (a declaration), not a seed expression.
constexpr const char* kTypeKeywords[] = {
    "const",  "unsigned", "signed", "uint64_t", "uint32_t", "int64_t",
    "int32_t", "size_t",  "int",    "long",     "short",    "double",
    "float",  "bool",     "char",   "auto",     "void",     "uint8_t",
    "int8_t", "uint16_t", "int16_t"};

/// Scope-tracking provenance checker. One forward pass maintains a stack of
/// function scopes (parameter names harvested from definition headers,
/// locals classified as they are assigned) and, at every engine
/// construction, classifies the seed expression:
///   clean  — every leaf identifier is a parameter, a clean local, a member
///            (trailing '_', repo convention), or a method call on a clean
///            object (the common/rng.h factories); literals may mix in
///            (the `seed ^ kSalt` pattern);
///   dirty  — a leaf resolves to none of those (an unseeded global, an
///            entropy source, an unknown free function);
///   literal-only — a hard-coded seed: deterministic, but untraceable to
///            any caller, so trials cannot be varied or decorrelated.
/// Deliberately lexical: constructor *member-init lists* are not analyzed
/// (the member's value was classified where it was computed), and helper
/// functions are not traced across files — the seed must be clean at the
/// construction site's own scope, which is exactly what a reviewer sees.
class RngProvenanceChecker {
 public:
  RngProvenanceChecker(const std::string& path,
                       const std::vector<Token>& code,
                       std::vector<Finding>* findings)
      : path_(path), code_(code), findings_(findings) {}

  void Run() {
    for (size_t i = 0; i < code_.size(); ++i) {
      MaintainScopes(i);
      TrackAssignment(i);
      CheckConstruction(i);
    }
  }

 private:
  struct Scope {
    int entry_depth = 0;  // brace depth the scope's body lives at
    std::vector<std::string> params;
    std::map<std::string, bool> locals;  // name -> provenance-clean
  };

  void MaintainScopes(size_t i) {
    if (IsPunct(code_, i, "{")) {
      ++depth_;
      if (pending_params_ && pending_brace_index_ == i) {
        scopes_.push_back({depth_, std::move(pending_names_), {}});
        pending_params_ = false;
      }
      return;
    }
    if (IsPunct(code_, i, "}")) {
      if (!scopes_.empty() && scopes_.back().entry_depth == depth_) {
        scopes_.pop_back();
      }
      --depth_;
      return;
    }
    // Function-definition header: `name ( params ) [qualifiers] {` — also
    // lambda headers `] ( params ) ... {`. Harvest parameter names so the
    // body can resolve them.
    const bool header_start =
        (IsIdent(code_, i) || IsPunct(code_, i, "]")) &&
        IsPunct(code_, i + 1, "(");
    if (!header_start) return;
    int paren_depth = 0;
    size_t j = i + 1;
    std::vector<std::string> names;
    for (; j < code_.size(); ++j) {
      paren_depth += ParenDelta(code_[j]);
      if (paren_depth == 0) break;
      if (paren_depth == 1 && IsIdent(code_, j) &&
          (IsPunct(code_, j + 1, ",") || IsPunct(code_, j + 1, ")") ||
           IsPunct(code_, j + 1, "="))) {
        names.push_back(code_[j].text);
      }
    }
    if (j >= code_.size() || names.empty()) return;
    // Skip trailing qualifiers; a ctor init list runs to the body brace.
    size_t k = j + 1;
    while (k < code_.size() &&
           (IsIdent(code_, k, "const") || IsIdent(code_, k, "noexcept") ||
            IsIdent(code_, k, "override") || IsIdent(code_, k, "final"))) {
      ++k;
    }
    if (IsPunct(code_, k, ":")) {
      int d = 0;
      for (; k < code_.size(); ++k) {
        d += ParenDelta(code_[k]);
        if (d == 0 && IsPunct(code_, k, "{")) break;
        if (d == 0 && IsPunct(code_, k, ";")) return;  // not a definition
      }
    }
    if (!IsPunct(code_, k, "{")) return;
    // The last entry of a ctor member-init list (`..., network_(n) {`) also
    // looks like a header ending at the body brace; the real header claimed
    // that brace first and keeps it.
    if (pending_params_ && pending_brace_index_ == k) return;
    pending_params_ = true;
    pending_brace_index_ = k;
    pending_names_ = std::move(names);
  }

  void TrackAssignment(size_t i) {
    if (scopes_.empty() || !IsIdent(code_, i) || !IsPunct(code_, i + 1, "=")) {
      return;
    }
    // `name = expr ;` — record whether expr is provenance-clean. Statement
    // ends at the first ';' outside parentheses.
    size_t end = i + 2;
    int paren_depth = 0;
    while (end < code_.size()) {
      paren_depth += ParenDelta(code_[end]);
      if (paren_depth == 0 && IsPunct(code_, end, ";")) break;
      ++end;
    }
    const Verdict v = Classify(i + 2, end);
    scopes_.back().locals[code_[i].text] = v == Verdict::kClean;
  }

  void CheckConstruction(size_t i) {
    if (!IsIdent(code_, i)) return;
    const bool is_std_engine = IsIdentIn(code_, i, kStdEngines);
    const bool is_rng = code_[i].text == "Rng";
    if (!is_std_engine && !is_rng) return;
    // Qualification: `std::mt19937` / `common::Rng` / bare `Rng`.
    if (i >= 2 && IsPunct(code_, i - 1, "::")) {
      const std::string& qual = code_[i - 2].text;
      if (is_std_engine && qual != "std") return;
      if (is_rng && qual != "common") return;
    }
    size_t args_open;  // index of '(' or '{' carrying the seed expression
    if (IsPunct(code_, i + 1, "(")) {
      args_open = i + 1;  // temporary: Rng(expr)
    } else if (IsIdent(code_, i + 1) &&
               (IsPunct(code_, i + 2, "(") || IsPunct(code_, i + 2, "{"))) {
      args_open = i + 2;  // named: Rng name(expr) / Rng name{expr}
    } else if (is_std_engine && IsIdent(code_, i + 1) &&
               IsPunct(code_, i + 2, ";")) {
      findings_->push_back(
          {path_, code_[i].line, "NO_UNSEEDED_RNG",
           "default-constructed " + code_[i].text +
               " uses the implementation's fixed default seed; seed it from "
               "a parameter or a common/rng.h factory"});
      return;
    } else {
      return;  // reference/pointer/template-argument position, not a ctor
    }
    const char open = code_[args_open].text[0];
    const char close = open == '(' ? ')' : '}';
    size_t end = args_open + 1;
    int group_depth = 1;
    while (end < code_.size() && group_depth > 0) {
      if (code_[end].kind == TokenKind::kPunct) {
        if (code_[end].text[0] == open && code_[end].text.size() == 1) {
          ++group_depth;
        } else if (code_[end].text[0] == close &&
                   code_[end].text.size() == 1) {
          --group_depth;
        }
      }
      if (group_depth == 0) break;
      ++end;
    }
    if (end >= code_.size()) return;
    const size_t args_begin = args_open + 1;
    if (args_begin == end) {
      // `Rng Fork()` is a function declaration; `std::mt19937 gen()` is the
      // most vexing parse. Only braced `std::mt19937 gen{}` is a real
      // (default, unseeded) construction.
      if (is_std_engine && open == '{') {
        findings_->push_back(
            {path_, code_[i].line, "NO_UNSEEDED_RNG",
             "default-constructed " + code_[i].text +
                 " uses the implementation's fixed default seed; seed it "
                 "from a parameter or a common/rng.h factory"});
      }
      return;
    }
    if (IsIdentIn(code_, args_begin, kTypeKeywords) ||
        (IsIdent(code_, args_begin) && IsIdent(code_, args_begin + 1))) {
      return;  // parameter list: `explicit Rng(uint64_t seed)` etc.
    }
    const Verdict verdict = Classify(args_begin, end);
    // A named construction declares a local whose own provenance downstream
    // code may lean on: `Rng seeder(options.seed); Rng rng(seeder.NextU64());`
    if (args_open == i + 2 && !scopes_.empty()) {
      scopes_.back().locals[code_[i + 1].text] = verdict == Verdict::kClean;
    }
    switch (verdict) {
      case Verdict::kClean:
        return;
      case Verdict::kDirty:
        findings_->push_back(
            {path_, code_[i].line, "NO_UNSEEDED_RNG",
             "seed of this " + code_[i].text +
                 " does not trace to a function/ctor parameter or a "
                 "common/rng.h factory ('" + dirty_leaf_ + "')"});
        return;
      case Verdict::kLiteralOnly:
        findings_->push_back(
            {path_, code_[i].line, "NO_UNSEEDED_RNG",
             "hard-coded seed for this " + code_[i].text +
                 "; thread the seed in from the caller (function/ctor "
                 "parameter or common/rng.h factory) so trials can vary it"});
        return;
    }
  }

  enum class Verdict { kClean, kDirty, kLiteralOnly };

  /// Classifies the expression spanning code tokens [begin, end).
  Verdict Classify(size_t begin, size_t end) {
    bool saw_clean = false;
    for (size_t i = begin; i < end; ++i) {
      if (!IsIdent(code_, i)) continue;
      const std::string& name = code_[i].text;
      if (IsIdentIn(code_, i, kTaintedSources)) {
        dirty_leaf_ = name;
        return Verdict::kDirty;
      }
      // Engine type names inside the expression (`rng = Rng(seed)`) are not
      // leaves; the nested construction is judged by CheckConstruction.
      if (name == "Rng" || IsIdentIn(code_, i, kStdEngines)) continue;
      if (name == "static_cast" || name == "sizeof" || name == "nullptr" ||
          name == "true" || name == "false" || name == "this" ||
          IsIdentIn(code_, i, kTypeKeywords)) {
        if (name == "this") saw_clean = true;
        continue;
      }
      // Member/method position: `base.name` — provenance rides on `base`.
      if (i > begin && (IsPunct(code_, i - 1, ".") ||
                        IsPunct(code_, i - 1, "->"))) {
        continue;
      }
      // Qualifier position: `ns::name` — judge the full qualified leaf.
      if (IsPunct(code_, i + 1, "::")) continue;
      if (i > begin && IsPunct(code_, i - 1, "::")) {
        dirty_leaf_ = code_[i - 2].text + "::" + name;
        return Verdict::kDirty;  // qualified globals have no local provenance
      }
      // Free-function call: not a factory we know.
      if (IsPunct(code_, i + 1, "(")) {
        bool factory = IsIdentIn(code_, i, kRngFactoryMethods);
        if (!factory) {
          dirty_leaf_ = name + "()";
          return Verdict::kDirty;
        }
        saw_clean = true;
        continue;
      }
      if (ResolvesClean(name)) {
        saw_clean = true;
        continue;
      }
      dirty_leaf_ = name;
      return Verdict::kDirty;
    }
    return saw_clean ? Verdict::kClean : Verdict::kLiteralOnly;
  }

  bool ResolvesClean(const std::string& name) {
    if (!name.empty() && name.back() == '_') return true;  // member, by style
    // A ctor's member-init list runs before its body scope is pushed; the
    // parameters harvested from the header are already pending.
    if (pending_params_ &&
        std::find(pending_names_.begin(), pending_names_.end(), name) !=
            pending_names_.end()) {
      return true;
    }
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      const auto local = scope->locals.find(name);
      if (local != scope->locals.end()) return local->second;
      if (std::find(scope->params.begin(), scope->params.end(), name) !=
          scope->params.end()) {
        return true;
      }
    }
    return false;
  }

  const std::string& path_;
  const std::vector<Token>& code_;
  std::vector<Finding>* findings_;
  int depth_ = 0;
  std::vector<Scope> scopes_;
  bool pending_params_ = false;
  size_t pending_brace_index_ = 0;
  std::vector<std::string> pending_names_;
  std::string dirty_leaf_;
};

void CheckUnseededRng(const std::string& path, const std::vector<Token>& code,
                      std::vector<Finding>* findings) {
  const char* message =
      "non-deterministic RNG source; use a seeded nmc::common::Rng";
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsIdent(code, i, "random_device") || IsIdent(code, i, "srand")) {
      findings->push_back({path, code[i].line, "NO_UNSEEDED_RNG", message});
    } else if (IsIdent(code, i, "rand") && IsPunct(code, i + 1, "(")) {
      findings->push_back({path, code[i].line, "NO_UNSEEDED_RNG", message});
    }
  }
  if (!IsRngFactory(path)) {
    RngProvenanceChecker(path, code, findings).Run();
  }
}

// ---- NO_UNORDERED_ITERATION_IN_PROTOCOL -----------------------------------

constexpr const char* kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
constexpr const char* kBeginFamily[] = {"begin", "cbegin", "rbegin", "crbegin"};

/// Names declared in this file with an unordered container type: after
/// `unordered_*` the template argument list is balanced (across lines —
/// the token stream has no line seams), then the declared identifier is
/// taken, skipping function declarations (identifier followed by '(').
std::vector<std::string> CollectUnorderedNames(const std::vector<Token>& code) {
  std::vector<std::string> names;
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdentIn(code, i, kUnorderedContainers) ||
        !IsPunct(code, i + 1, "<")) {
      continue;
    }
    size_t j = i + 1;
    int depth = 0;
    for (; j < code.size(); ++j) {
      depth += AngleDelta(code[j]);
      if (depth <= 0) break;
    }
    if (j >= code.size()) continue;
    ++j;
    while (IsPunct(code, j, "&") || IsPunct(code, j, "*") ||
           IsPunct(code, j, "&&")) {
      ++j;
    }
    if (!IsIdent(code, j) || IsPunct(code, j + 1, "(")) continue;
    names.push_back(code[j].text);
  }
  return names;
}

void CheckUnorderedIteration(const std::string& path,
                             const std::vector<Token>& code,
                             std::vector<Finding>* findings) {
  const std::vector<std::string> names = CollectUnorderedNames(code);
  if (names.empty()) return;
  auto is_unordered = [&](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  auto report = [&](int line, const std::string& name) {
    findings->push_back(
        {path, line, "NO_UNORDERED_ITERATION_IN_PROTOCOL",
         "iteration over unordered container '" + name +
             "' — hash-order leaks into the message schedule; iterate "
             "a sorted/indexed structure instead"});
  };
  for (size_t i = 0; i < code.size(); ++i) {
    // Range-for: `for ( decl : name )`.
    if (IsIdent(code, i, "for") && IsPunct(code, i + 1, "(")) {
      size_t j = i + 2;
      int depth = 1;
      for (; j < code.size(); ++j) {
        depth += ParenDelta(code[j]);
        if (depth == 0) break;                            // plain for-loop
        if (depth == 1 && IsPunct(code, j, ";")) break;   // classic for
        if (depth == 1 && IsPunct(code, j, ":")) {
          if (IsIdent(code, j + 1) && IsPunct(code, j + 2, ")") &&
              is_unordered(code[j + 1].text)) {
            report(code[i].line, code[j + 1].text);
          }
          break;
        }
      }
    }
    // Sweep start: `name.begin()` / `name->cbegin()`.
    if (IsIdent(code, i) &&
        (IsPunct(code, i + 1, ".") || IsPunct(code, i + 1, "->")) &&
        IsIdentIn(code, i + 2, kBeginFamily) && IsPunct(code, i + 3, "(") &&
        is_unordered(code[i].text)) {
      report(code[i].line, code[i].text);
    }
  }
}

// ---- Concurrency-readiness per-file rules ---------------------------------

/// NO_MUTABLE_GLOBAL_STATE plus the THREAD_COMPAT annotation-grammar checks
/// — everything about the concurrency contracts that one file can decide
/// alone (the reentrant-calls-reentrant edge check needs the call graph and
/// runs in RunInterprocRules).
void CheckSymbolRules(const std::string& path, const FileSymbols& symbols,
                      std::vector<Finding>* findings) {
  for (const MutableGlobal& global : symbols.mutable_globals) {
    const std::string what =
        global.is_static_member
            ? "static data member '" + global.owner + "::" + global.name + "'"
            : "namespace-scope variable '" + global.name + "'";
    findings->push_back(
        {path, global.line, "NO_MUTABLE_GLOBAL_STATE",
         "mutable " + what +
             " is process-wide shared state; make it const, pass it "
             "explicitly, or allow() it with the single-threaded "
             "justification"});
  }
  for (const ThreadMarker& marker : symbols.markers) {
    if (marker.kind == ThreadAnnotation::kNone) {
      findings->push_back(
          {path, marker.line, "THREAD_COMPAT",
           "unknown thread-contract verb '" + marker.verb +
               "'; known contracts: // nmc: reentrant and "
               "// nmc: not-thread-safe(reason)"});
      continue;
    }
    if (marker.kind == ThreadAnnotation::kNotThreadSafe &&
        marker.reason.empty()) {
      findings->push_back(
          {path, marker.line, "THREAD_COMPAT",
           "not-thread-safe contract carries no reason; write "
           "// nmc: not-thread-safe(<why it is hostile>)"});
    }
    if (!marker.attached) {
      findings->push_back(
          {path, marker.line, "THREAD_COMPAT",
           "thread-contract annotation attaches to no function definition "
           "within two lines; move it onto the definition or delete it"});
    }
  }
}

// ---- Allow annotations ----------------------------------------------------

struct Allowance {
  int line = 0;         // line the allowance was written on (1-based)
  int target_line = 0;  // line it suppresses
  std::string rule;
  bool has_reason = false;
  bool used = false;
};

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

/// Parses allow annotations — the "nmc-lint:" marker followed by a
/// parenthesized comma-separated rule list and a free-text reason — from
/// the raw (unstripped) lines. An annotation on a comment-only line applies
/// to the next line; inline annotations apply to their own line.
std::vector<Allowance> ParseAllowances(const std::vector<std::string>& lines) {
  static const std::regex kAllowRe(
      R"(//\s*nmc-lint:\s*allow\(([^)]*)\)\s*(.*)$)");
  std::vector<Allowance> allowances;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch match;
    if (!std::regex_search(lines[i], match, kAllowRe)) continue;
    const std::string first_two = lines[i].substr(
        std::min(lines[i].find_first_not_of(" \t"), lines[i].size()), 2);
    const int target =
        first_two == "//" ? static_cast<int>(i) + 2 : static_cast<int>(i) + 1;
    const bool has_reason = !match[2].str().empty();
    std::stringstream rule_list(match[1].str());
    std::string rule;
    while (std::getline(rule_list, rule, ',')) {
      const size_t begin = rule.find_first_not_of(" \t");
      const size_t end = rule.find_last_not_of(" \t");
      if (begin == std::string::npos) continue;
      allowances.push_back({static_cast<int>(i) + 1, target,
                            rule.substr(begin, end - begin + 1), has_reason,
                            false});
    }
  }
  return allowances;
}

// ---- Per-file pipeline ----------------------------------------------------

/// Pre-suppression analysis of one file: every single-file rule, findings
/// deduplicated to one per (line, rule) to match the historic
/// one-finding-per-line regex behavior.
struct FileAnalysis {
  std::vector<Finding> findings;  // pre-suppression
  std::vector<Allowance> allowances;
  /// Symbol table for library files (src/) — feeds the per-file concurrency
  /// rules here and the cross-TU call graph in LintRepo.
  FileSymbols symbols;
  bool has_symbols = false;
};

FileAnalysis AnalyzeFile(const std::string& path, const std::string& content) {
  FileAnalysis analysis;
  if (!InRepoCode(path)) return analysis;

  const TokenStreams streams = SplitStreams(Lex(content));
  const std::vector<std::string> lines = SplitLines(content);
  analysis.allowances = ParseAllowances(lines);

  std::vector<Finding>* findings = &analysis.findings;
  if (InLibraryCode(path)) {
    analysis.symbols = BuildFileSymbols(path, content);
    analysis.has_symbols = true;
    CheckSymbolRules(path, analysis.symbols, findings);
  }
  if (InAtomicsDisciplineScope(path)) {
    CheckAtomicOrderExplicit(path, streams.code, findings);
    CheckSeqCstJustified(path, streams.code, lines, findings);
  }
  if (InModeledConcurrencyScope(path)) {
    CheckRawAtomicInRuntime(path, streams.code, findings);
  }
  if (InDeterminismScope(path)) CheckUnseededRng(path, streams.code, findings);
  if (InSimLibrary(path)) {
    CheckWallclock(path, streams.code, findings);
    CheckIostream(path, streams, findings);
  }
  if (InHotPath(path)) CheckMapInHotPath(path, streams.code, findings);
  if (InProtocolCode(path)) {
    CheckUnorderedIteration(path, streams.code, findings);
  }
  CheckIncludeHygiene(path, streams, findings);
  if (IsHeader(path)) CheckPragmaOnce(path, streams, findings);

  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule, a.message) <
                     std::tie(b.line, b.rule, b.message);
            });
  findings->erase(std::unique(findings->begin(), findings->end(),
                              [](const Finding& a, const Finding& b) {
                                return a.line == b.line && a.rule == b.rule;
                              }),
                  findings->end());
  return analysis;
}

/// Rules whose findings can originate in a cross-file pass (include graph
/// or a call chain through another file). An allow() for one of these may
/// look unused when LintContent sees its file alone — ALLOW_UNUSED for them
/// gates only in repo mode.
constexpr const char* kCrossFileCapableRules[] = {
    "LAYERING_VIOLATION",        "NO_INCLUDE_CYCLES",
    "INCLUDE_DEPTH",             "NO_HEAP_IN_HOT_PATH",
    "NO_PER_UPDATE_TRANSCENDENTALS", "NO_MAP_IN_HOT_PATH",
    "NO_STATIC_LOCAL_IN_REENTRANT",  "THREAD_COMPAT"};

bool IsCrossFileCapable(const std::string& rule) {
  for (const char* name : kCrossFileCapableRules) {
    if (rule == name) return true;
  }
  return false;
}

/// Applies allowances to the (possibly graph-rule-augmented) findings and
/// appends the annotation-hygiene findings. These are not themselves
/// suppressible — the annotation layer must stay honest. `repo_mode` says
/// whether the cross-file passes ran; see kCrossFileCapableRules.
std::vector<Finding> ApplyAllowances(const std::string& path,
                                     std::vector<Finding> findings,
                                     std::vector<Allowance> allowances,
                                     bool repo_mode) {
  std::vector<Finding> kept;
  for (const Finding& finding : findings) {
    bool suppressed = false;
    for (Allowance& allowance : allowances) {
      if (allowance.target_line == finding.line &&
          allowance.rule == finding.rule) {
        allowance.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) kept.push_back(finding);
  }
  for (const Allowance& allowance : allowances) {
    if (!IsKnownRule(allowance.rule)) {
      kept.push_back({path, allowance.line, "ALLOW_UNKNOWN_RULE",
                      "allow(" + allowance.rule + ") names no known rule"});
      continue;
    }
    if (!allowance.has_reason) {
      kept.push_back({path, allowance.line, "ALLOW_MISSING_REASON",
                      "allow(" + allowance.rule +
                          ") carries no justification; write the reason "
                          "after the closing parenthesis"});
    }
    if (!allowance.used &&
        (repo_mode || !IsCrossFileCapable(allowance.rule))) {
      kept.push_back({path, allowance.line, "ALLOW_UNUSED",
                      "allow(" + allowance.rule +
                          ") suppresses nothing on line " +
                          std::to_string(allowance.target_line) +
                          "; delete the stale annotation"});
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return kept;
}

std::string ReadFileOr(const std::filesystem::path& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *ok = true;
  return buffer.str();
}

/// Interprocedural pass: the call graph over the analyzed library files'
/// symbol tables, the hot-path propagation (entry-point bodies included) and
/// the concurrency reachability/contract rules. Findings merge into the
/// per-file lists *before* allowance application (like the include-graph
/// rules) so an inline allow() at the flagged line works; one finding per
/// (line, rule) is kept.
void MergeInterprocFindings(std::map<std::string, FileAnalysis>* analyses) {
  std::vector<const FileSymbols*> symbol_files;
  for (const auto& [file, analysis] : *analyses) {
    if (analysis.has_symbols) symbol_files.push_back(&analysis.symbols);
  }
  const CallGraph graph = CallGraph::Build(symbol_files);
  std::map<std::string, std::vector<Finding>> interproc;
  RunInterprocRules(symbol_files, graph, &interproc);
  for (auto& [file, findings] : interproc) {
    std::vector<Finding>& kept = analyses->at(file).findings;
    for (Finding& finding : findings) {
      const bool duplicate =
          std::any_of(kept.begin(), kept.end(), [&](const Finding& existing) {
            return existing.line == finding.line &&
                   existing.rule == finding.rule;
          });
      if (!duplicate) kept.push_back(std::move(finding));
    }
  }
}

void SortByFileLineRule(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
}

}  // namespace

// ---- Public API -----------------------------------------------------------

const std::vector<RuleInfo>& Rules() { return kAllRules; }

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content) {
  std::map<std::string, FileAnalysis> analyses;
  analyses.emplace(path, AnalyzeFile(path, content));
  MergeInterprocFindings(&analyses);
  FileAnalysis& analysis = analyses.at(path);
  return ApplyAllowances(path, std::move(analysis.findings),
                         std::move(analysis.allowances),
                         /*repo_mode=*/false);
}

std::vector<Finding> LintRepo(const RepoLintOptions& options,
                              size_t* files_linted) {
  namespace fs = std::filesystem;
  const std::vector<std::string> files = CollectFiles(
      options.repo_root, options.compile_commands, options.roots);
  if (files_linted != nullptr) *files_linted = files.size();

  std::vector<Finding> all;
  std::map<std::string, FileAnalysis> analyses;
  for (const std::string& file : files) {
    bool ok = false;
    const std::string content =
        ReadFileOr(fs::path(options.repo_root) / file, &ok);
    if (!ok) {
      all.push_back({file, 0, "LINT_IO", "cannot read file"});
      continue;
    }
    analyses.emplace(file, AnalyzeFile(file, content));
  }

  // Cross-file rules: merged into the per-file lists *before* allowance
  // application so an inline allow() on the offending #include works.
  if (!options.layers_path.empty()) {
    LayerSpec spec;
    std::string error;
    if (!LoadLayerSpec(options.layers_path, &spec, &error)) {
      all.push_back({options.layers_path, 0, "LINT_IO",
                     "layer spec rejected: " + error});
    } else {
      const IncludeGraph graph = BuildIncludeGraph(options.repo_root, files);
      for (Finding& finding : CheckIncludeGraph(graph, spec)) {
        const auto it = analyses.find(finding.file);
        if (it != analyses.end()) {
          it->second.findings.push_back(std::move(finding));
        } else {
          all.push_back(std::move(finding));
        }
      }
    }
  }

  MergeInterprocFindings(&analyses);
  for (auto& [file, analysis] : analyses) {
    std::vector<Finding> kept = ApplyAllowances(
        file, std::move(analysis.findings), std::move(analysis.allowances),
        /*repo_mode=*/true);
    all.insert(all.end(), kept.begin(), kept.end());
  }
  SortByFileLineRule(&all);
  return all;
}

std::vector<std::string> CollectFiles(const std::string& repo_root,
                                      const std::string& compile_commands_path,
                                      const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::set<std::string> files;
  auto under_roots = [&](const std::string& rel) {
    for (const std::string& root : roots) {
      if (StartsWith(rel, root + "/") || rel == root) return true;
    }
    return false;
  };
  auto in_testdata = [](const fs::path& p) {
    for (const auto& part : p) {
      if (part == "testdata") return true;
    }
    return false;
  };
  for (const std::string& root : roots) {
    const fs::path dir = fs::path(repo_root) / root;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp") {
        continue;
      }
      // Exclusion is by *repo-relative* path: fixtures under the linted
      // tree are deliberately pathological, but a fixture tree used as
      // repo_root by the lint tests must itself stay lintable.
      const fs::path rel = fs::relative(entry.path(), repo_root);
      if (in_testdata(rel)) continue;
      files.insert(rel.generic_string());
    }
  }
  if (!compile_commands_path.empty()) {
    std::ifstream in(compile_commands_path);
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string json = buffer.str();
      static const std::regex kFileRe(R"re("file"\s*:\s*"([^"]+)")re");
      for (auto it = std::sregex_iterator(json.begin(), json.end(), kFileRe);
           it != std::sregex_iterator(); ++it) {
        const fs::path file((*it)[1].str());
        std::error_code ec;
        const fs::path rel = fs::relative(file, repo_root, ec);
        if (ec || in_testdata(rel)) continue;
        const std::string rel_str = rel.generic_string();
        if (under_roots(rel_str)) files.insert(rel_str);
      }
    }
  }
  return {files.begin(), files.end()};
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": " +
         finding.rule + ": " + finding.message;
}

}  // namespace nmc::lint
