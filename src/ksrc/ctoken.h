/// \file
/// Token definitions for the C-subset lexer used to analyze the synthetic
/// kernel corpus (the stand-in for the paper's LLVM-based source extractor).
///
/// Lifetime: a token's `text` is a view into the source it was lexed from
/// and owns nothing. Tokens from CLex live as long as the caller's string;
/// tokens inside a CFile (function bodies, switch arms copied from them)
/// view the file's `source`, which every copy of the CFile and of a
/// DefinitionIndex holding it shares. Code that keeps text beyond that
/// converts it explicitly (`std::string(t.text)`).

#ifndef KERNELGPT_KSRC_CTOKEN_H_
#define KERNELGPT_KSRC_CTOKEN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace kernelgpt::ksrc {

/// Token categories for the C subset.
enum class CTokKind {
  kIdent,
  kNumber,
  kString,
  kCharLit,
  kPunct,      ///< Any single/multi-char operator or punctuation.
  kComment,    ///< /* ... */ or // ... (retained: LLMs read comments).
  kDirective,  ///< Whole preprocessor line, e.g. "#define FOO 1".
  kEof,
};

/// One token of kernel C source.
struct CToken {
  CTokKind kind = CTokKind::kEof;
  int line = 0;
  /// The token's bytes in the source, [begin, end); for kString only the
  /// part between the quotes, and empty for kEof.
  std::string_view text;
  uint64_t number = 0;  ///< Parsed value for kNumber.
  size_t begin = 0;     ///< Byte offset of the token in the source.
  size_t end = 0;       ///< Byte offset one past the token.

  bool Is(std::string_view punct) const {
    return kind == CTokKind::kPunct && text == punct;
  }
  bool IsIdent(std::string_view name) const {
    return kind == CTokKind::kIdent && text == name;
  }
};

}  // namespace kernelgpt::ksrc

#endif  // KERNELGPT_KSRC_CTOKEN_H_
