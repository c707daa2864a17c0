/// \file
/// Symbolic-constant table — the equivalent of syzkaller's syz-extract.
///
/// Specifications reference kernel macros (command values, flag bits,
/// length limits) by name; this table resolves those names to values.
/// It is populated from the synthetic kernel corpus's #define lines.

#ifndef KERNELGPT_SYZLANG_CONST_TABLE_H_
#define KERNELGPT_SYZLANG_CONST_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace kernelgpt::syzlang {

/// Maps macro names to integer values.
class ConstTable {
 public:
  /// Registers (or overwrites) one constant.
  void Define(const std::string& name, uint64_t value);

  /// Resolves a name, a decimal literal, or a 0x-hex literal.
  std::optional<uint64_t> Resolve(const std::string& name_or_literal) const;

  /// True if the symbolic name is defined (literals always resolve).
  bool Has(const std::string& name) const;

  size_t size() const { return values_.size(); }

 private:
  std::unordered_map<std::string, uint64_t> values_;
};

/// Parses a decimal or 0x-prefixed literal. Returns nullopt on non-numeric
/// input.
std::optional<uint64_t> ParseIntLiteral(const std::string& text);

}  // namespace kernelgpt::syzlang

#endif  // KERNELGPT_SYZLANG_CONST_TABLE_H_
