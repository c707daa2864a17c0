#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace kernelgpt::util {

std::vector<std::string>
Split(std::string_view s, char sep)
{
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string>
SplitWhitespace(std::string_view s)
{
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view
Trim(std::string_view s)
{
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string
Join(const std::vector<std::string>& parts, std::string_view sep)
{
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool
StartsWith(std::string_view s, std::string_view prefix)
{
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool
EndsWith(std::string_view s, std::string_view suffix)
{
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool
Contains(std::string_view haystack, std::string_view needle)
{
  return haystack.find(needle) != std::string_view::npos;
}

std::string
ToLower(std::string_view s)
{
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string
ReplaceAll(std::string_view s, std::string_view from, std::string_view to)
{
  if (from.empty()) return std::string(s);
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      return out;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
}

std::string
Format(const char* fmt, ...)
{
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string
Indent(std::string_view s, int n)
{
  std::string pad(static_cast<size_t>(n > 0 ? n : 0), ' ');
  std::string out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find('\n', start);
    std::string_view line = (end == std::string_view::npos)
                                ? s.substr(start)
                                : s.substr(start, end - start);
    if (!line.empty()) out.append(pad);
    out.append(line);
    if (end == std::string_view::npos) break;
    out.push_back('\n');
    start = end + 1;
  }
  return out;
}

size_t
CountWords(std::string_view s)
{
  // Counts the words SplitWhitespace would return, in one pass and without
  // allocating. The inline test equals std::isspace in the C locale, and
  // nothing in the program calls setlocale.
  size_t words = 0;
  bool in_word = false;
  for (char ch : s) {
    const bool space = ch == ' ' || (ch >= '\t' && ch <= '\r');
    words += !space && !in_word;
    in_word = !space;
  }
  return words;
}

size_t
ApproxTokenCount(std::string_view s)
{
  return ApproxTokenCount(CountWords(s), s.size());
}

size_t
ApproxTokenCount(size_t words, size_t chars)
{
  // Blend word count with a character-based estimate; code-heavy text
  // tokenizes closer to 1 token / 3.5 chars.
  return std::max(words, chars / 4);
}

}  // namespace kernelgpt::util
