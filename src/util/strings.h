/// \file
/// Small string helpers shared by the lexers, printers, and reports.

#ifndef KERNELGPT_UTIL_STRINGS_H_
#define KERNELGPT_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace kernelgpt::util {

/// Splits `s` on the single character `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on any whitespace run; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `needle` occurs in `haystack`.
bool Contains(std::string_view haystack, std::string_view needle);

/// Lower-cases ASCII letters.
std::string ToLower(std::string_view s);

/// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Indents every line of `s` by `n` spaces.
std::string Indent(std::string_view s, int n);

/// Number of whitespace-separated words: SplitWhitespace(s).size(),
/// without allocating. Counts add up across a join, CountWords(a) +
/// CountWords(b) == CountWords(a + b), whenever `a` ends in whitespace.
size_t CountWords(std::string_view s);

/// Approximates an LLM tokenizer: max(CountWords(s), s.size() / 4), the
/// word count floored by the ~4 chars/token rule of thumb. Used by the
/// token meter.
size_t ApproxTokenCount(std::string_view s);

/// The same estimate for a text of `chars` bytes whose `words` were
/// counted piecewise.
size_t ApproxTokenCount(size_t words, size_t chars);

}  // namespace kernelgpt::util

#endif  // KERNELGPT_UTIL_STRINGS_H_
