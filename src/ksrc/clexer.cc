#include "ksrc/clexer.h"

#include <algorithm>

namespace kernelgpt::ksrc {

namespace {

// The character classes below equal <cctype>'s in the C locale, and
// nothing in the program calls setlocale.

bool
IsDigit(char c)
{
  return c >= '0' && c <= '9';
}

bool
IsIdentStart(char c)
{
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
IsIdentChar(char c)
{
  return IsIdentStart(c) || IsDigit(c);
}

/// Value of a hex digit; `c` must be one.
uint64_t
HexValue(char c)
{
  if (IsDigit(c)) return static_cast<uint64_t>(c - '0');
  return static_cast<uint64_t>((c | 0x20) - 'a' + 10);
}

bool
IsHexDigit(char c)
{
  return IsDigit(c) || ((c | 0x20) >= 'a' && (c | 0x20) <= 'f');
}

/// Length of the operator or punctuation at `s[i]`, longest match first
/// among the multi-character operators
///   <<= >>= ... == != <= >= && || << >> -> ++ -- += -= *= /= &= |= ^= %=
/// and 1 for any other character.
size_t
OperatorLength(const std::string& s, size_t i)
{
  const char c = s[i];
  const char next = i + 1 < s.size() ? s[i + 1] : '\0';
  const char after = i + 2 < s.size() ? s[i + 2] : '\0';
  switch (c) {
    case '<':
    case '>':
      if (next == c) return after == '=' ? 3 : 2;
      return next == '=' ? 2 : 1;
    case '.':
      return next == '.' && after == '.' ? 3 : 1;
    case '&':
    case '|':
    case '+':
      return next == c || next == '=' ? 2 : 1;
    case '-':
      return next == '-' || next == '=' || next == '>' ? 2 : 1;
    case '=':
    case '!':
    case '*':
    case '/':
    case '^':
    case '%':
      return next == '=' ? 2 : 1;
    default:
      return 1;
  }
}

}  // namespace

std::vector<CToken>
CLex(const std::string& source)
{
  const size_t n = source.size();
  std::vector<CToken> tokens;
  // The corpus averages about six bytes a token.
  tokens.reserve(n / 4 + 1);
  int line = 1;
  size_t i = 0;

  size_t token_begin = 0;
  auto push = [&](CTokKind kind, std::string_view text, uint64_t number = 0) {
    CToken& t = tokens.emplace_back();
    t.kind = kind;
    t.line = line;
    t.text = text;
    t.number = number;
    t.begin = token_begin;
    t.end = i;
  };
  // The token's bytes so far, [token_begin, i).
  auto span = [&] {
    return std::string_view(source).substr(token_begin, i - token_begin);
  };

  while (i < n) {
    char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    token_begin = i;
    if (c == '#') {
      // Whole preprocessor line (with backslash continuations).
      while (i < n && source[i] != '\n') {
        if (source[i] == '\\' && i + 1 < n && source[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      push(CTokKind::kDirective, span());
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/')) {
        if (source[i] == '\n') ++line;
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      push(CTokKind::kComment, span());
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      while (i < n && source[i] != '\n') ++i;
      push(CTokKind::kComment, span());
      continue;
    }
    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(source[i])) ++i;
      push(CTokKind::kIdent, span());
      continue;
    }
    if (IsDigit(c)) {
      uint64_t value = 0;
      if (c == '0' && i + 1 < n && (source[i + 1] == 'x' || source[i + 1] == 'X')) {
        i += 2;
        while (i < n && IsHexDigit(source[i])) {
          value = value * 16 + HexValue(source[i]);
          ++i;
        }
      } else {
        while (i < n && IsDigit(source[i])) {
          value = value * 10 + static_cast<uint64_t>(source[i] - '0');
          ++i;
        }
      }
      // Swallow integer suffixes (U, L, UL, ULL...).
      while (i < n && (source[i] == 'u' || source[i] == 'U' ||
                       source[i] == 'l' || source[i] == 'L')) {
        ++i;
      }
      push(CTokKind::kNumber, span(), value);
      continue;
    }
    if (c == '"') {
      // The text is what lies between the quotes, escapes kept as written.
      // An escaped newline does not count as a line.
      const size_t start = ++i;
      while (i < n && source[i] != '"') {
        if (source[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        if (source[i] == '\n') ++line;
        ++i;
      }
      const std::string_view text =
          std::string_view(source).substr(start, i - start);
      if (i < n) ++i;  // Closing quote.
      push(CTokKind::kString, text);
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && source[i] != '\'') i += source[i] == '\\' ? 2 : 1;
      // A backslash as the last byte must not carry the token past the end.
      i = std::min(i + (i < n), n);
      push(CTokKind::kCharLit, span());
      continue;
    }
    i += OperatorLength(source, i);
    push(CTokKind::kPunct, span());
  }
  token_begin = i;
  push(CTokKind::kEof, std::string_view(source).substr(n));
  return tokens;
}

}  // namespace kernelgpt::ksrc
