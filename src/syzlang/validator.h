/// \file
/// Specification validator — the equivalent of running syz-extract +
/// syz-generate over a description file. Produces structured errors whose
/// categories the repair engine (spec_gen/repair) understands.

#ifndef KERNELGPT_SYZLANG_VALIDATOR_H_
#define KERNELGPT_SYZLANG_VALIDATOR_H_

#include <string>
#include <vector>

#include "syzlang/ast.h"
#include "syzlang/const_table.h"

namespace kernelgpt::syzlang {

/// Machine-readable category of a validation error.
enum class ErrorKind {
  kUnknownType,          ///< Type reference resolves to nothing.
  kUnknownConst,         ///< const[NAME]: NAME not in the const table.
  kUnknownFlags,         ///< flags[NAME]: NAME has no flags declaration.
  kUnknownResource,      ///< Return value names an undeclared resource.
  kBadLenTarget,         ///< len[FIELD]: no sibling FIELD.
  kDuplicateDecl,        ///< Two declarations share a name.
  kEmptyStruct,          ///< struct/union with no fields.
  kRecursiveStruct,      ///< Struct contains itself without ptr indirection.
  kBadResourceBase,      ///< resource underlying type is invalid.
  kUnknownSyscall,       ///< Base name resolves to SyscallOp::kUnknown.
  kMissingFdParam,       ///< ioctl-family call without a leading fd param.
  kBadIntWidth,          ///< Scalar with unsupported bit width.
  kDanglingUnion,        ///< Union arm with void payload only.
};

/// Returns a stable identifier string for the kind (used in messages).
const char* ErrorKindName(ErrorKind kind);

/// One validation diagnostic.
struct ValidationError {
  ErrorKind kind;
  /// Declaration the error is attached to (syscall full name, struct name…).
  std::string decl;
  /// Offending identifier (type name, const name, field name…).
  std::string subject;
  /// Human-readable message in syzkaller's style.
  std::string message;
};

/// Result of validating one spec against a const table.
struct ValidationResult {
  std::vector<ValidationError> errors;
  bool ok() const { return errors.empty(); }

  /// Errors attached to a specific declaration name.
  std::vector<ValidationError> ForDecl(const std::string& decl) const;

  /// Distinct declaration names that have at least one error.
  std::vector<std::string> ErroredDecls() const;
};

/// Validates `spec`. `consts` provides macro resolution (pass an empty
/// table to require all constants be numeric literals or local defines);
/// it is read in place, never copied or modified, and a `define` in
/// `spec` or `externals` shadows an entry of the same name.
/// `externals` optionally supplies declarations (resources/structs/flags)
/// that live in other spec files the target will be linked with.
ValidationResult Validate(const SpecFile& spec, const ConstTable& consts,
                          const SpecFile* externals = nullptr);

}  // namespace kernelgpt::syzlang

#endif  // KERNELGPT_SYZLANG_VALIDATOR_H_
