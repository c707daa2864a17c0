/// \file
/// Structural AST of the kernel C subset: macros, enums, struct types,
/// initialized variables (operation-handler tables), and functions.
///
/// The parser is deliberately structural rather than expression-precise —
/// the same trade-off the paper makes ("simple yet general pattern
/// matching"). Function bodies keep their token stream so that downstream
/// analyses (baseline rules and the simulated LLM) can inspect them at
/// whatever depth their capability profile allows.
///
/// Lifetime: a CFile owns its source text through a shared pointer, and
/// every token in it (`CFunction::body_tokens`) views that text. Copies of
/// the file share it, so a copied or moved CFile, or a DefinitionIndex
/// holding it, keeps every view valid. A CFunction or a token copied out
/// of the file is valid only while some copy of the file lives. All other
/// fields are owned strings.

#ifndef KERNELGPT_KSRC_CAST_H_
#define KERNELGPT_KSRC_CAST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ksrc/ctoken.h"

namespace kernelgpt::ksrc {

/// `#define NAME VALUE` (object-like only; that is all the corpus emits).
struct CMacro {
  std::string name;
  std::string value_text;
  /// Numeric value when the right-hand side is a plain literal or a
  /// supported _IOC(...) expression the corpus renderer evaluates.
  std::optional<uint64_t> value;
  int line = 0;
};

/// One enumerator inside an enum.
struct CEnumerator {
  std::string name;
  uint64_t value = 0;
};

/// `enum name { ... };`
struct CEnum {
  std::string name;  ///< May be empty for anonymous enums.
  std::vector<CEnumerator> enumerators;
  int line = 0;
};

/// One member of a struct/union type.
struct CStructField {
  std::string type_text;  ///< e.g. "__u32", "struct dm_target_spec".
  std::string name;
  /// -1: scalar; 0: flexible array member []; >0: fixed array [n].
  int64_t array_len = -1;
  /// Raw array-length expression when it is a macro name ("DM_NAME_LEN");
  /// empty when numeric or when the field is a scalar.
  std::string array_len_text;
  bool is_pointer = false;
  /// Leading comment attached to the field, if any ("/* size of data */").
  std::string comment;
};

/// `struct name { ... };` or `union name { ... };`
struct CStructDef {
  std::string name;
  bool is_union = false;
  std::vector<CStructField> fields;
  /// Leading comment for the whole type.
  std::string comment;
  int line = 0;
};

/// `.field = value` inside a designated initializer.
struct CInitEntry {
  std::string field;
  std::string value_text;  ///< Raw tokens, e.g. "dm_ctl_ioctl" or "DM_DIR \"/\" DM_CONTROL_NODE".
};

/// `static const struct file_operations _ctl_fops = { ... };`
struct CVarDef {
  std::string type_name;  ///< e.g. "file_operations", "miscdevice".
  std::string name;
  bool is_static = false;
  std::vector<CInitEntry> init;
  int line = 0;

  /// Returns the initializer value for `.field`, or empty string.
  std::string InitFor(const std::string& field) const;
};

/// One parameter of a function.
struct CParam {
  std::string type_text;
  std::string name;
};

/// A function definition; the body is retained as raw text plus tokens.
struct CFunction {
  std::string return_type;
  std::string name;
  std::vector<CParam> params;
  std::string body_text;         ///< Body between braces, braces excluded.
  /// Tokenized body (comments kept), viewing the file's source.
  std::vector<CToken> body_tokens;
  std::string comment;           ///< Leading doc comment.
  bool is_static = false;
  int line = 0;
};

/// One parsed source file of the synthetic kernel.
struct CFile {
  std::string path;
  /// The parsed text, shared by every copy; the tokens view it.
  std::shared_ptr<const std::string> source;
  std::vector<CMacro> macros;
  std::vector<CEnum> enums;
  std::vector<CStructDef> structs;
  std::vector<CVarDef> vars;
  std::vector<CFunction> functions;
  /// Parser diagnostics (non-fatal; unparsed regions are skipped).
  std::vector<std::string> diagnostics;

  const CStructDef* FindStruct(const std::string& name) const;
  const CFunction* FindFunction(const std::string& name) const;
  const CVarDef* FindVar(const std::string& name) const;
  const CMacro* FindMacro(const std::string& name) const;
};

}  // namespace kernelgpt::ksrc

#endif  // KERNELGPT_KSRC_CAST_H_
