/// \file
/// A resolved collection of specification files — the fuzzer's view of
/// "enabled syscalls". Merges one or more SpecFiles, indexes declarations
/// by name, resolves constants, and compiles every type it owns into a
/// generation plan (fuzzer/gen_plan.h) that the Generator executes.

#ifndef KERNELGPT_FUZZER_SPEC_LIBRARY_H_
#define KERNELGPT_FUZZER_SPEC_LIBRARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fuzzer/gen_plan.h"
#include "syzlang/ast.h"
#include "syzlang/const_table.h"

namespace kernelgpt::fuzzer {

using syzlang::ResolveSyscallOp;
using syzlang::SyscallOp;

/// Immutable after Finalize(); cheap to query during fuzzing, and safe to
/// share between threads that only read it.
class SpecLibrary {
 public:
  SpecLibrary() = default;

  /// Adds every declaration of `spec` (declarations with duplicate names
  /// are kept once, first writer wins).
  void Add(const syzlang::SpecFile& spec);

  /// Supplies the constant table (from syz-extract / the corpus index).
  void SetConsts(syzlang::ConstTable consts) { consts_ = std::move(consts); }

  /// Builds the producer index, numbers every owned type
  /// (Type::cache_slot) and compiles each into its generation plan,
  /// with resource names turned into dense ids. Call after the last
  /// Add(); generation sees the syscalls of the last Finalize(). A
  /// struct that contains itself by value, which only a merge of
  /// separately validated files can produce, is cut where the cycle
  /// closes: that reference generates like an undefined struct (8 zero
  /// bytes, size 0, no draw).
  void Finalize();

  const std::vector<syzlang::SyscallDef>& syscalls() const {
    return syscalls_;
  }

  /// Opcode of syscall `index`, resolved by Finalize(). kUnknown for an
  /// out-of-range index or before Finalize().
  SyscallOp OpcodeOf(size_t index) const {
    return index < opcodes_.size() ? opcodes_[index] : SyscallOp::kUnknown;
  }
  const syzlang::StructDef* FindStruct(const std::string& name) const;
  const syzlang::FlagsDef* FindFlags(const std::string& name) const;
  bool HasResource(const std::string& name) const;

  /// Numeric value of a constant name or literal (0 when unresolved).
  uint64_t ResolveConst(const std::string& name) const;

  /// Indices of syscalls whose return value produces `resource`.
  const std::vector<size_t>& ProducersOf(const std::string& resource) const;

  /// Packed byte size of a type as the generator lays it out. Flexible
  /// arrays count as zero (sized at generation time). An owned type
  /// reads its plan and any other is compiled for this call; `type` is
  /// either, as PlanOf() requires.
  size_t TypeSize(const syzlang::Type& type) const;

  /// Packed byte size of a struct/union definition.
  size_t StructSize(const syzlang::StructDef& def) const;

  /// Generation plans of every owned type and syscall (see Finalize()).
  const GenPlans& plans() const { return plans_; }

  /// Plan of `type` when this library owns it, else nullptr. Ownership
  /// is read from Type::cache_slot alone, so `type` must be one this
  /// library's last Finalize() numbered, or carry cache_slot == -1. A
  /// copy of an owned type keeps the slot and is served the original's
  /// plan even after an edit, as is a type another finalized library
  /// owns; set cache_slot = -1 on such a type before passing it here.
  const TypePlan* PlanOf(const syzlang::Type& type) const {
    const size_t slot = static_cast<size_t>(type.cache_slot);
    return type.cache_slot >= 0 && slot < plans_.types.size()
               ? &plans_.types[slot]
               : nullptr;
  }

  /// Compiles a type this library does not own (e.g. a test's ad-hoc
  /// type) into `out`, resolving names against this library; returns
  /// the index of its TypePlan in `out->types`.
  uint32_t CompileType(const syzlang::Type& type, GenPlans* out) const;

  /// (len_param, target_param) pairs of syscall `index` — which params
  /// are len[...]/bytesize[...] of which sibling. Precomputed by
  /// Finalize() so per-call len linking does no string comparisons.
  const std::vector<std::pair<int, int>>& LenLinksOf(size_t index) const;

 private:
  std::vector<syzlang::SyscallDef> syscalls_;
  std::vector<SyscallOp> opcodes_;
  std::vector<std::vector<std::pair<int, int>>> len_links_;
  std::vector<std::pair<int, int>> no_len_links_;
  GenPlans plans_;
  std::unordered_map<std::string, syzlang::StructDef> structs_;
  std::unordered_map<std::string, syzlang::FlagsDef> flags_;
  std::unordered_map<std::string, syzlang::ResourceDef> resources_;
  std::unordered_map<std::string, std::vector<size_t>> producers_;
  std::vector<size_t> no_producers_;
  std::unordered_map<std::string, bool> seen_calls_;
  syzlang::ConstTable consts_;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_SPEC_LIBRARY_H_
