#include "syzlang/const_table.h"

#include <cctype>

namespace kernelgpt::syzlang {

std::optional<uint64_t>
ParseIntLiteral(const std::string& text)
{
  if (text.empty()) return std::nullopt;
  uint64_t value = 0;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    for (size_t i = 2; i < text.size(); ++i) {
      char c = text[i];
      if (!std::isxdigit(static_cast<unsigned char>(c))) return std::nullopt;
      value = value * 16 +
              static_cast<uint64_t>(
                  std::isdigit(static_cast<unsigned char>(c))
                      ? c - '0'
                      : std::tolower(static_cast<unsigned char>(c)) - 'a' + 10);
    }
    return value;
  }
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

void
ConstTable::Define(const std::string& name, uint64_t value)
{
  values_.insert_or_assign(name, value);
}

std::optional<uint64_t>
ConstTable::Resolve(const std::string& name_or_literal) const
{
  if (auto lit = ParseIntLiteral(name_or_literal)) return lit;
  auto it = values_.find(name_or_literal);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool
ConstTable::Has(const std::string& name) const
{
  return values_.count(name);
}

}  // namespace kernelgpt::syzlang
