/// \file
/// A resolved collection of specification files — the fuzzer's view of
/// "enabled syscalls". Merges one or more SpecFiles, indexes declarations
/// by name, resolves constants, and computes packed layouts of spec
/// structs for argument construction.

#ifndef KERNELGPT_FUZZER_SPEC_LIBRARY_H_
#define KERNELGPT_FUZZER_SPEC_LIBRARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "syzlang/ast.h"
#include "syzlang/const_table.h"

namespace kernelgpt::fuzzer {

using syzlang::ResolveSyscallOp;
using syzlang::SyscallOp;

/// Immutable after Finalize(); cheap to query during fuzzing.
class SpecLibrary {
 public:
  SpecLibrary() = default;

  /// Adds every declaration of `spec` (declarations with duplicate names
  /// are kept once, first writer wins).
  void Add(const syzlang::SpecFile& spec);

  /// Supplies the constant table (from syz-extract / the corpus index).
  void SetConsts(syzlang::ConstTable consts) { consts_ = std::move(consts); }

  /// Builds the producer index; call once after all Add()s.
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

  /// Producers of `resource` that do not themselves consume it (e.g.
  /// socket/openat rather than accept). Falls back to ProducersOf() when
  /// every producer is self-consuming. Precomputed by Finalize() so the
  /// generator does not rescan producer parameter lists per call.
  const std::vector<size_t>& SafeProducersOf(const std::string& resource) const;

  /// Packed byte size of a type as the generator lays it out. Flexible
  /// arrays count as zero (sized at generation time).
  size_t TypeSize(const syzlang::Type& type) const;

  /// Packed byte size of a struct/union definition.
  size_t StructSize(const syzlang::StructDef& def) const;

  /// Number of type cache slots Finalize() assigned (every Type owned by
  /// this library gets a dense `cache_slot` id; see Type::cache_slot).
  size_t TypeSlotCount() const { return type_slot_count_; }

  /// (len_param, target_param) pairs of syscall `index` — which params
  /// are len[...]/bytesize[...] of which sibling. Precomputed by
  /// Finalize() so per-call len linking does no string comparisons.
  const std::vector<std::pair<int, int>>& LenLinksOf(size_t index) const;

 private:
  std::vector<syzlang::SyscallDef> syscalls_;
  std::vector<SyscallOp> opcodes_;
  std::vector<std::vector<std::pair<int, int>>> len_links_;
  std::vector<std::pair<int, int>> no_len_links_;
  size_t type_slot_count_ = 0;
  std::unordered_map<std::string, std::vector<size_t>> safe_producers_;
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
