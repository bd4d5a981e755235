#pragma once

#include <cstddef>
#include <vector>

#include "nmc_lint/lexer.h"

namespace nmc::lint {

// Small token-sequence matchers shared by the single-file rules (lint.cc)
// and the symbol scan (symbols.cc). All take the "code" stream (identifiers,
// numbers, punctuation — literals and comments already dropped) and an
// index; out-of-range indices simply fail to match.

inline bool IsCodeToken(const Token& t) {
  return t.kind == TokenKind::kIdentifier || t.kind == TokenKind::kNumber ||
         t.kind == TokenKind::kPunct;
}

inline bool Is(const std::vector<Token>& code, size_t i, TokenKind kind,
               const char* text) {
  return i < code.size() && code[i].kind == kind && code[i].text == text;
}

inline bool IsPunct(const std::vector<Token>& code, size_t i,
                    const char* text) {
  return Is(code, i, TokenKind::kPunct, text);
}

inline bool IsIdent(const std::vector<Token>& code, size_t i) {
  return i < code.size() && code[i].kind == TokenKind::kIdentifier;
}

inline bool IsIdent(const std::vector<Token>& code, size_t i,
                    const char* text) {
  return Is(code, i, TokenKind::kIdentifier, text);
}

template <typename Container>
bool IsIdentIn(const std::vector<Token>& code, size_t i,
               const Container& names) {
  if (!IsIdent(code, i)) return false;
  for (const char* name : names) {
    if (code[i].text == name) return true;
  }
  return false;
}

/// Steps a '<'-balanced scan: '<' opens, '>' closes, '>>' closes twice
/// (the lexer keeps it one token).
inline int AngleDelta(const Token& t) {
  if (t.kind != TokenKind::kPunct) return 0;
  if (t.text == "<") return 1;
  if (t.text == ">") return -1;
  if (t.text == ">>") return -2;
  return 0;
}

inline int ParenDelta(const Token& t) {
  if (t.kind != TokenKind::kPunct) return 0;
  if (t.text == "(") return 1;
  if (t.text == ")") return -1;
  return 0;
}

inline int BraceDelta(const Token& t) {
  if (t.kind != TokenKind::kPunct) return 0;
  if (t.text == "{") return 1;
  if (t.text == "}") return -1;
  return 0;
}

/// Index of the matching closer for the opener at `open` ('(' or '{'),
/// or code.size() if unbalanced.
inline size_t MatchingClose(const std::vector<Token>& code, size_t open,
                            int (*delta)(const Token&)) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    depth += delta(code[i]);
    if (depth == 0) return i;
  }
  return code.size();
}

}  // namespace nmc::lint
