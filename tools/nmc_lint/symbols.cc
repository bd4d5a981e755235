#include "nmc_lint/symbols.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>
#include <string>

#include "nmc_lint/token_match.h"

namespace nmc::lint {

namespace {

// The symbol scanner is a single forward pass over the code token stream
// with a stack of *declaration* scopes (namespaces, classes, enum bodies).
// Function bodies never go on the stack: when a definition header is
// recognized, the body's balanced token range is recorded on the symbol,
// scanned for static locals and call sites, and skipped in one step — so
// the main loop only ever parses declaration context. Deliberately
// heuristic where C++ demands a real frontend (see DESIGN.md §11); every
// decision is deterministic in the token stream alone.

constexpr const char* kCallKeywords[] = {
    "if",      "for",         "while",    "switch",   "return",
    "sizeof",  "alignof",     "alignas",  "decltype", "noexcept",
    "catch",   "new",         "delete",   "throw",    "defined",
    "assert",  "co_return",   "co_await", "co_yield", "typeid",
    "requires"};

/// Identifiers that may directly precede a call-looking `name(` without
/// turning it into a declaration (`return foo(x)` vs `int foo(x)`).
constexpr const char* kExprKeywords[] = {"return", "throw",     "else",
                                         "do",     "co_return", "co_yield",
                                         "case",   "goto"};

constexpr const char* kDeclSkipToSemi[] = {"using", "typedef", "friend",
                                           "static_assert"};

bool LooksLikeMacro(const std::string& name) {
  if (name.size() < 2) return false;
  bool has_alpha = false;
  for (const char c : name) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
    if (std::isupper(static_cast<unsigned char>(c))) has_alpha = true;
  }
  return has_alpha;
}

bool StartsUpper(const std::string& s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0]));
}

struct Frame {
  enum class Kind { kNamespace, kClass, kOpaque };
  Kind kind;
  std::string name;
};

class SymbolScanner {
 public:
  SymbolScanner(const std::string& path, FileSymbols* out)
      : path_(path), out_(out), code_(out->code) {}

  void Run() {
    size_t i = 0;
    while (i < code_.size()) i = DeclStep(i);
  }

 private:
  // ---- generic skips ------------------------------------------------------

  /// Advances past the next `;`, balancing (), {} and [] so an initializer
  /// (even a lambda) cannot desync the scope stack.
  size_t SkipToSemi(size_t i) {
    int paren = 0, brace = 0, bracket = 0;
    for (; i < code_.size(); ++i) {
      const Token& t = code_[i];
      paren += ParenDelta(t);
      brace += BraceDelta(t);
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "[") ++bracket;
        if (t.text == "]") --bracket;
      }
      if (paren <= 0 && brace <= 0 && bracket <= 0 && IsPunct(code_, i, ";")) {
        return i + 1;
      }
    }
    return i;
  }

  size_t SkipAngles(size_t i) {  // i at '<'
    int depth = 0;
    for (; i < code_.size(); ++i) {
      depth += AngleDelta(code_[i]);
      if (depth <= 0) return i + 1;
    }
    return i;
  }

  // ---- declaration scope --------------------------------------------------

  size_t DeclStep(size_t i) {
    if (IsPunct(code_, i, "}")) {
      if (!stack_.empty()) stack_.pop_back();
      return i + 1;
    }
    if (IsPunct(code_, i, ";")) return i + 1;
    if (IsIdent(code_, i, "namespace")) return ParseNamespace(i);
    if (IsIdent(code_, i, "template")) {
      if (IsPunct(code_, i + 1, "<")) return SkipAngles(i + 1);
      return i + 1;
    }
    if (IsIdentIn(code_, i, kDeclSkipToSemi)) return SkipToSemi(i);
    if (IsIdent(code_, i, "extern")) {
      // `extern "C" {` lexes to `extern` `{` in the code stream (the
      // literal is dropped); the block is transparent.
      if (IsPunct(code_, i + 1, "{")) {
        stack_.push_back({Frame::Kind::kNamespace, ""});
        return i + 2;
      }
      return SkipToSemi(i);
    }
    if (IsIdent(code_, i, "enum")) return ParseEnum(i);
    if (IsIdent(code_, i, "class") || IsIdent(code_, i, "struct") ||
        IsIdent(code_, i, "union")) {
      return ParseClass(i);
    }
    if ((IsIdent(code_, i, "public") || IsIdent(code_, i, "private") ||
         IsIdent(code_, i, "protected")) &&
        IsPunct(code_, i + 1, ":")) {
      return i + 2;
    }
    return ParseDeclaration(i);
  }

  size_t ParseNamespace(size_t i) {
    ++i;  // past `namespace`
    std::string name;
    while (IsIdent(code_, i)) {
      if (!name.empty()) name += "::";
      name += code_[i].text;
      if (IsPunct(code_, i + 1, "::")) {
        i += 2;
      } else {
        ++i;
        break;
      }
    }
    if (IsPunct(code_, i, "=")) return SkipToSemi(i);  // namespace alias
    if (IsPunct(code_, i, "{")) {
      stack_.push_back(
          {Frame::Kind::kNamespace, name.empty() ? "(anon)" : name});
      return i + 1;
    }
    return i + 1;
  }

  size_t ParseEnum(size_t i) {
    // `enum [class|struct] [name] [: underlying] { ... } ;` — the body is
    // opaque (enumerators, not code).
    for (; i < code_.size(); ++i) {
      if (IsPunct(code_, i, ";")) return i + 1;
      if (IsPunct(code_, i, "{")) {
        stack_.push_back({Frame::Kind::kOpaque, ""});
        return i + 1;
      }
    }
    return i;
  }

  size_t ParseClass(size_t i) {
    ++i;  // past class/struct/union
    std::string name;
    if (IsIdent(code_, i) && !IsIdent(code_, i, "final")) {
      name = code_[i].text;
    }
    // Scan to the body `{` or a `;` (forward declaration / pointer decl);
    // template arguments and base-clause parens are balanced through.
    int angle = 0, paren = 0;
    for (; i < code_.size(); ++i) {
      angle += AngleDelta(code_[i]);
      paren += ParenDelta(code_[i]);
      if (angle > 0 || paren > 0) continue;
      if (IsPunct(code_, i, ";")) return i + 1;
      if (IsPunct(code_, i, "=")) return SkipToSemi(i);  // type alias-ish
      if (IsPunct(code_, i, "{")) {
        stack_.push_back({Frame::Kind::kClass, name});
        return i + 1;
      }
    }
    return i;
  }

  // ---- the generic member / variable / function parse --------------------

  size_t ParseDeclaration(size_t i) {
    const size_t start = i;
    bool saw_const = false;
    bool saw_static = false;
    bool saw_operator = false;
    int angle = 0;
    for (; i < code_.size(); ++i) {
      const Token& t = code_[i];
      angle += AngleDelta(t);
      if (angle > 0) continue;
      if (IsIdent(code_, i, "const") || IsIdent(code_, i, "constexpr")) {
        saw_const = true;
      } else if (IsIdent(code_, i, "static")) {
        saw_static = true;
      } else if (IsIdent(code_, i, "operator")) {
        saw_operator = true;
      } else if (IsPunct(code_, i, "(") && i > start &&
                 (IsIdent(code_, i - 1) || saw_operator)) {
        return ParseCallableTail(start, i, saw_operator);
      } else if (IsPunct(code_, i, "=") && !saw_operator) {
        RecordVariable(start, i, saw_const, saw_static);
        return SkipToSemi(i);
      } else if (IsPunct(code_, i, "{")) {
        // Brace-initialized variable: `int x{3};`.
        RecordVariable(start, i, saw_const, saw_static);
        const size_t close = MatchingClose(code_, i, BraceDelta);
        return SkipToSemi(close);
      } else if (IsPunct(code_, i, ";")) {
        RecordVariable(start, i, saw_const, saw_static);
        return i + 1;
      }
    }
    return i;
  }

  /// Declarator name for a variable-shaped statement ending at `stop`:
  /// the last identifier before `stop`, skipping back over array brackets.
  void RecordVariable(size_t start, size_t stop, bool saw_const,
                      bool saw_static) {
    if (saw_const || stop <= start) return;
    size_t j = stop;
    while (j > start) {
      --j;
      if (IsPunct(code_, j, "]")) {
        while (j > start && !IsPunct(code_, j, "[")) --j;
        continue;
      }
      if (IsIdent(code_, j)) break;
      if (code_[j].kind != TokenKind::kNumber) return;  // *,& fall through
    }
    if (!IsIdent(code_, j)) return;
    const std::string& name = code_[j].text;
    // Reference bindings at namespace scope and keyword tails are not data.
    if (name == "final" || name == "override" || LooksLikeMacro(name)) return;
    const Frame* cls = InnermostClass();
    if (cls != nullptr && !saw_static) return;  // plain member: per-object
    if (InOpaque()) return;                     // enumerators
    MutableGlobal global;
    global.name = name;
    global.line = code_[j].line;
    global.is_static_member = cls != nullptr;
    global.owner = cls != nullptr ? cls->name : "";
    out_->mutable_globals.push_back(std::move(global));
  }

  /// From `open` (the '(' of a callable-looking declarator), decide
  /// declaration vs definition and record the symbol + body scan.
  size_t ParseCallableTail(size_t /*start*/, size_t open, bool is_operator) {
    const size_t close = MatchingClose(code_, open, ParenDelta);
    if (close >= code_.size()) return code_.size();
    size_t i = close + 1;
    // Trailing qualifiers / trailing return type. `= 0|default|delete ;`
    // ends a declaration; a ctor init list runs entry-wise to the body.
    while (i < code_.size()) {
      if (IsIdent(code_, i, "const") || IsIdent(code_, i, "noexcept") ||
          IsIdent(code_, i, "override") || IsIdent(code_, i, "final") ||
          IsPunct(code_, i, "&") || IsPunct(code_, i, "&&")) {
        if (IsIdent(code_, i, "noexcept") && IsPunct(code_, i + 1, "(")) {
          i = MatchingClose(code_, i + 1, ParenDelta) + 1;
        } else {
          ++i;
        }
        continue;
      }
      if (IsPunct(code_, i, "->")) {  // trailing return type
        ++i;
        while (i < code_.size() && !IsPunct(code_, i, "{") &&
               !IsPunct(code_, i, ";") && !IsPunct(code_, i, "=")) {
          if (IsPunct(code_, i, "<")) {
            i = SkipAngles(i);
          } else {
            ++i;
          }
        }
        continue;
      }
      break;
    }
    if (IsPunct(code_, i, "=")) return SkipToSemi(i);  // pure/default/delete
    if (IsPunct(code_, i, ":")) {                      // ctor init list
      ++i;
      while (i < code_.size()) {
        while (IsIdent(code_, i) || IsPunct(code_, i, "::") ||
               IsPunct(code_, i, "<") || IsPunct(code_, i, ">")) {
          if (IsPunct(code_, i, "<")) {
            i = SkipAngles(i);
          } else {
            ++i;
          }
        }
        if (IsPunct(code_, i, "(")) {
          i = MatchingClose(code_, i, ParenDelta) + 1;
        } else if (IsPunct(code_, i, "{")) {
          i = MatchingClose(code_, i, BraceDelta) + 1;
        } else {
          break;
        }
        if (IsPunct(code_, i, ",")) {
          ++i;
          continue;
        }
        break;
      }
    }
    if (!IsPunct(code_, i, "{")) return SkipToSemi(open);  // declaration
    return RecordFunction(open, i, is_operator);
  }

  size_t RecordFunction(size_t open, size_t body_open, bool is_operator) {
    FunctionSymbol sym;
    sym.file = path_;
    // Name + qualifier chain, read backwards from the '('.
    size_t j = open;  // token after the name going backwards
    std::vector<std::string> quals;
    if (is_operator) {
      sym.name = "operator";
      sym.line = code_[open].line;
    } else {
      --j;  // the name token
      sym.name = code_[j].text;
      sym.line = code_[j].line;
      if (j >= 1 && IsPunct(code_, j - 1, "~")) sym.name = "~" + sym.name;
      while (j >= 2 && IsPunct(code_, j - 1, "::") && IsIdent(code_, j - 2)) {
        quals.insert(quals.begin(), code_[j - 2].text);
        j -= 2;
      }
    }
    const Frame* cls = InnermostClass();
    if (cls != nullptr) {
      sym.class_name = cls->name;
    } else if (!quals.empty() && StartsUpper(quals.back())) {
      sym.class_name = quals.back();
      quals.pop_back();
    }
    for (const Frame& frame : stack_) {
      if (frame.kind != Frame::Kind::kNamespace || frame.name.empty()) {
        continue;
      }
      if (!sym.name_space.empty()) sym.name_space += "::";
      sym.name_space += frame.name;
    }
    for (const std::string& qual : quals) {
      if (!sym.name_space.empty()) sym.name_space += "::";
      sym.name_space += qual;
    }
    const size_t body_close = MatchingClose(code_, body_open, BraceDelta);
    const size_t index = out_->functions.size();
    out_->functions.push_back(std::move(sym));
    ScanBody(index, body_open + 1, body_close);
    return body_close < code_.size() ? body_close + 1 : code_.size();
  }

  // ---- function bodies ----------------------------------------------------

  void ScanBody(size_t function_index, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (IsIdent(code_, i, "static")) {
        RecordStaticLocal(function_index, i, end);
        continue;
      }
      if (!IsIdent(code_, i) || !IsPunct(code_, i + 1, "(")) continue;
      if (IsIdentIn(code_, i, kCallKeywords)) continue;
      const std::string& name = code_[i].text;
      if (LooksLikeMacro(name)) continue;
      // `Type name(args)` is a declaration, not a call — unless the
      // preceding identifier is an expression keyword (`return foo(x)`).
      if (i > begin && IsIdent(code_, i - 1) &&
          !IsIdentIn(code_, i - 1, kExprKeywords)) {
        continue;
      }
      CallSite call;
      call.caller_index = function_index;
      call.name = name;
      call.line = code_[i].line;
      size_t j = i;
      while (j >= 2 && IsPunct(code_, j - 1, "::") && IsIdent(code_, j - 2)) {
        call.quals.insert(call.quals.begin(), code_[j - 2].text);
        j -= 2;
      }
      call.member_call =
          j >= 1 && (IsPunct(code_, j - 1, ".") || IsPunct(code_, j - 1, "->"));
      out_->calls.push_back(std::move(call));
    }
  }

  void RecordStaticLocal(size_t function_index, size_t i, size_t end) {
    // `static const`/`static constexpr` locals are immutable after their
    // (thread-safe) init; `thread_local` state is per-thread. Both are
    // reentrancy-compatible and exempt.
    if (IsIdent(code_, i + 1, "const") || IsIdent(code_, i + 1, "constexpr") ||
        IsIdent(code_, i + 1, "thread_local") ||
        (i > 0 && IsIdent(code_, i - 1, "thread_local"))) {
      return;
    }
    StaticLocal local;
    local.function_index = function_index;
    local.line = code_[i].line;
    for (size_t j = i + 1; j < end && j < i + 16; ++j) {
      if (IsPunct(code_, j, ";") || IsPunct(code_, j, "=") ||
          IsPunct(code_, j, "{") || IsPunct(code_, j, "(")) {
        if (j > i + 1 && IsIdent(code_, j - 1)) local.hint = code_[j - 1].text;
        break;
      }
    }
    out_->static_locals.push_back(std::move(local));
  }

  // ---- helpers ------------------------------------------------------------

  const Frame* InnermostClass() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Frame::Kind::kClass) return &*it;
      if (it->kind == Frame::Kind::kOpaque) return nullptr;
    }
    return nullptr;
  }

  bool InOpaque() const {
    return !stack_.empty() && stack_.back().kind == Frame::Kind::kOpaque;
  }

  const std::string& path_;
  FileSymbols* out_;
  const std::vector<Token>& code_;
  std::vector<Frame> stack_;
};

// ---- thread markers -------------------------------------------------------

std::vector<ThreadMarker> ParseThreadMarkers(const std::string& content) {
  // `// nmc: verb` or `// nmc: verb(argument)` — note the bare `nmc:`
  // marker; `nmc-lint: allow(...)` is a different namespace and never
  // matches here.
  static const std::regex kMarkerRe(
      R"(//\s*nmc:\s*([A-Za-z0-9_-]+)\s*(?:\(([^)]*)\))?)");
  std::vector<ThreadMarker> markers;
  std::istringstream lines(content);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    std::smatch match;
    if (!std::regex_search(line, match, kMarkerRe)) continue;
    ThreadMarker marker;
    marker.line = line_number;
    const size_t first = line.find_first_not_of(" \t");
    const bool comment_only =
        first != std::string::npos && line.compare(first, 2, "//") == 0;
    marker.target_line = comment_only ? line_number + 1 : line_number;
    marker.verb = match[1].str();
    marker.reason = match[2].matched ? match[2].str() : "";
    // `// nmc: seq-cst(reason)` belongs to the atomics-discipline rule
    // (SEQ_CST_JUSTIFIED validates it in place), not the thread-contract
    // grammar — skip it here so it is not reported as an unknown verb.
    if (marker.verb == "seq-cst") continue;
    if (marker.verb == "reentrant") {
      marker.kind = ThreadAnnotation::kReentrant;
    } else if (marker.verb == "not-thread-safe") {
      marker.kind = ThreadAnnotation::kNotThreadSafe;
    } else {
      marker.kind = ThreadAnnotation::kNone;
    }
    markers.push_back(std::move(marker));
  }
  return markers;
}

void AttachMarkers(FileSymbols* symbols) {
  for (ThreadMarker& marker : symbols->markers) {
    if (marker.kind == ThreadAnnotation::kNone) continue;  // unknown verb
    for (FunctionSymbol& fn : symbols->functions) {
      if (fn.line >= marker.target_line && fn.line <= marker.target_line + 2) {
        fn.annotation = marker.kind;
        fn.annotation_line = marker.line;
        marker.attached = true;
        break;
      }
    }
  }
}

}  // namespace

FileSymbols BuildFileSymbols(const std::string& path,
                             const std::string& content) {
  FileSymbols symbols;
  symbols.file = path;
  for (const Token& token : Lex(content)) {
    if (IsCodeToken(token)) symbols.code.push_back(token);
  }
  symbols.markers = ParseThreadMarkers(content);
  SymbolScanner(path, &symbols).Run();
  AttachMarkers(&symbols);
  return symbols;
}

}  // namespace nmc::lint
