/// \file
/// Declaration-level AST of the syzlang-like DSL: resources, syscalls,
/// structs/unions, flag sets, and constant defines, plus the SpecFile
/// container that holds one specification.

#ifndef KERNELGPT_SYZLANG_AST_H_
#define KERNELGPT_SYZLANG_AST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "syzlang/types.h"

namespace kernelgpt::syzlang {

/// `resource fd_dm[fd]` — a kernel object flowing between syscalls.
struct ResourceDef {
  std::string name;
  /// Underlying representation: "fd", another resource, or intN.
  std::string underlying;

  bool operator==(const ResourceDef& other) const {
    return name == other.name && underlying == other.underlying;
  }
};

/// `openat$dm(...) fd_dm` — one (possibly specialized) syscall description.
struct SyscallDef {
  /// Base syscall name, e.g. "ioctl".
  std::string name;
  /// Specialization after '$', e.g. "DM_DEV_CREATE"; empty when generic.
  std::string variant;
  std::vector<Field> params;
  /// Resource produced by the return value, if any.
  std::optional<std::string> returns_resource;

  /// Full display name, e.g. "ioctl$DM_DEV_CREATE".
  std::string FullName() const {
    return variant.empty() ? name : name + "$" + variant;
  }

  bool operator==(const SyscallDef& other) const {
    return name == other.name && variant == other.variant &&
           params == other.params && returns_resource == other.returns_resource;
  }
};

/// Operation a syscall's base name resolves to. The validator accepts
/// exactly the names that resolve to an operation; the fuzzer resolves
/// each call once in SpecLibrary::Finalize() and its executor dispatches
/// with a switch on the result.
enum class SyscallOp : uint8_t {
  kUnknown = 0,
  kOpen,
  kOpenat,
  kClose,
  kDup,
  kIoctl,
  kRead,
  kWrite,
  kPoll,
  kMmap,
  kSocket,
  kSetSockOpt,
  kGetSockOpt,
  kBind,
  kConnect,
  kSendTo,
  kSendMsg,
  kRecvFrom,
  kListen,
  kAccept,
};

/// Maps a base syscall name to its operation (kUnknown when unsupported).
SyscallOp ResolveSyscallOp(const std::string& name);

/// `dm_ioctl { ... }` or `u [ ... ]` — a record type.
struct StructDef {
  std::string name;
  bool is_union = false;
  std::vector<Field> fields;

  bool operator==(const StructDef& other) const {
    return name == other.name && is_union == other.is_union &&
           fields == other.fields;
  }
};

/// `open_flags = O_RDONLY, O_RDWR, 0x2` — a named flag set.
struct FlagsDef {
  std::string name;
  /// Symbolic constant names or numeric literal renderings.
  std::vector<std::string> values;

  bool operator==(const FlagsDef& other) const {
    return name == other.name && values == other.values;
  }
};

/// `define DM_NAME_LEN 128` — an inline constant definition.
struct DefineDef {
  std::string name;
  uint64_t value = 0;

  bool operator==(const DefineDef& other) const {
    return name == other.name && value == other.value;
  }
};

/// Discriminator for Decl.
enum class DeclKind {
  kResource,
  kSyscall,
  kStruct,
  kFlags,
  kDefine,
};

/// One top-level declaration (tagged union with value semantics).
struct Decl {
  DeclKind kind = DeclKind::kDefine;
  ResourceDef resource;
  SyscallDef syscall;
  StructDef struct_def;
  FlagsDef flags;
  DefineDef define;

  static Decl Make(ResourceDef d);
  static Decl Make(SyscallDef d);
  static Decl Make(StructDef d);
  static Decl Make(FlagsDef d);
  static Decl Make(DefineDef d);

  /// Name of whatever this declares (syscalls use their full name).
  const std::string& Name() const;
};

/// One specification "file": an ordered list of declarations.
struct SpecFile {
  /// Provenance label (e.g. driver name or generator id); not semantic.
  std::string origin;
  std::vector<Decl> decls;

  // -- Convenience accessors and builders ---------------------------------

  void Add(ResourceDef d) { decls.push_back(Decl::Make(std::move(d))); }
  void Add(SyscallDef d) { decls.push_back(Decl::Make(std::move(d))); }
  void Add(StructDef d) { decls.push_back(Decl::Make(std::move(d))); }
  void Add(FlagsDef d) { decls.push_back(Decl::Make(std::move(d))); }
  void Add(DefineDef d) { decls.push_back(Decl::Make(std::move(d))); }

  /// Appends all declarations of `other` (no dedup).
  void Merge(const SpecFile& other);

  std::vector<const SyscallDef*> Syscalls() const;
  std::vector<const StructDef*> Structs() const;
  std::vector<const ResourceDef*> Resources() const;
  std::vector<const FlagsDef*> FlagSets() const;
  std::vector<const DefineDef*> Defines() const;

  const SyscallDef* FindSyscall(const std::string& full_name) const;
  const StructDef* FindStruct(const std::string& name) const;
  const ResourceDef* FindResource(const std::string& name) const;
  const FlagsDef* FindFlags(const std::string& name) const;
};

}  // namespace kernelgpt::syzlang

#endif  // KERNELGPT_SYZLANG_AST_H_
