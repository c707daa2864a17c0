/// \file
/// Lexer for the C subset in which the synthetic kernel corpus is written.

#ifndef KERNELGPT_KSRC_CLEXER_H_
#define KERNELGPT_KSRC_CLEXER_H_

#include <string>
#include <vector>

#include "ksrc/ctoken.h"

namespace kernelgpt::ksrc {

/// Tokenizes C source. Preprocessor lines become single kDirective tokens;
/// comments are preserved as kComment tokens (textual information matters
/// to the analysis LLM, per the paper's L-3 discussion). The stream ends
/// with kEof.
///
/// Every token's text views `source`, so the tokens are valid only while
/// `source` lives unchanged; lexing a temporary does not compile.
std::vector<CToken> CLex(const std::string& source);
std::vector<CToken> CLex(std::string&& source) = delete;

}  // namespace kernelgpt::ksrc

#endif  // KERNELGPT_KSRC_CLEXER_H_
