#include "nmc_lint/symbols.h"

#include <cctype>
#include <string>

#include "nmc_lint/token_match.h"

namespace nmc::lint {

namespace {

// The symbol scanner is a single forward pass over the code token stream
// with a stack of *declaration* scopes (namespaces, classes, enum bodies).
// Function bodies never go on the stack: when a definition header is
// recognized, the body's balanced token range is scanned for static locals
// and skipped in one step — so the main loop only ever parses declaration
// context. Deliberately heuristic where C++ demands a real frontend (see
// DESIGN.md §11); every decision is deterministic in the token stream alone.

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
  SymbolScanner(const std::vector<Token>& code, FileSymbols* out)
      : out_(out), code_(code) {}

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
        return ParseCallableTail(i, saw_operator);
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
  /// declaration vs definition and scan a definition's body.
  size_t ParseCallableTail(size_t open, bool is_operator) {
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
    const size_t body_close = MatchingClose(code_, i, BraceDelta);
    ScanBody(FunctionName(open, is_operator), i + 1, body_close);
    return body_close < code_.size() ? body_close + 1 : code_.size();
  }

  /// "Class::name" or "name" for the definition whose '(' is at `open`:
  /// the class is the enclosing class scope, or else the capitalized
  /// qualifier of an out-of-class `Cls::Name(...)`.
  std::string FunctionName(size_t open, bool is_operator) const {
    std::string name = "operator";
    std::string qual;
    if (!is_operator) {
      const size_t j = open - 1;  // the name token
      name = code_[j].text;
      if (j >= 1 && IsPunct(code_, j - 1, "~")) name = "~" + name;
      if (j >= 2 && IsPunct(code_, j - 1, "::") && IsIdent(code_, j - 2)) {
        qual = code_[j - 2].text;
      }
    }
    const Frame* cls = InnermostClass();
    if (cls != nullptr) {
      return cls->name.empty() ? name : cls->name + "::" + name;
    }
    if (StartsUpper(qual)) return qual + "::" + name;
    return name;
  }

  // ---- function bodies ----------------------------------------------------

  void ScanBody(const std::string& function, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (IsIdent(code_, i, "static")) RecordStaticLocal(function, i, end);
    }
  }

  void RecordStaticLocal(const std::string& function, size_t i, size_t end) {
    // `static const`/`static constexpr` locals are immutable after their
    // (thread-safe) init; `thread_local` state is per-thread. Both are
    // exempt.
    if (IsIdent(code_, i + 1, "const") || IsIdent(code_, i + 1, "constexpr") ||
        IsIdent(code_, i + 1, "thread_local") ||
        (i > 0 && IsIdent(code_, i - 1, "thread_local"))) {
      return;
    }
    StaticLocal local;
    local.function = function;
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

  FileSymbols* out_;
  const std::vector<Token>& code_;
  std::vector<Frame> stack_;
};

}  // namespace

FileSymbols BuildFileSymbols(const std::vector<Token>& code) {
  FileSymbols symbols;
  SymbolScanner(code, &symbols).Run();
  return symbols;
}

}  // namespace nmc::lint
