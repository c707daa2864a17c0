#include "syzlang/ast.h"

namespace kernelgpt::syzlang {

SyscallOp
ResolveSyscallOp(const std::string& name)
{
  if (name == "open") return SyscallOp::kOpen;
  if (name == "openat") return SyscallOp::kOpenat;
  if (name == "close") return SyscallOp::kClose;
  if (name == "dup") return SyscallOp::kDup;
  if (name == "ioctl") return SyscallOp::kIoctl;
  if (name == "read") return SyscallOp::kRead;
  if (name == "write") return SyscallOp::kWrite;
  if (name == "poll") return SyscallOp::kPoll;
  if (name == "mmap") return SyscallOp::kMmap;
  if (name == "socket") return SyscallOp::kSocket;
  if (name == "setsockopt") return SyscallOp::kSetSockOpt;
  if (name == "getsockopt") return SyscallOp::kGetSockOpt;
  if (name == "bind") return SyscallOp::kBind;
  if (name == "connect") return SyscallOp::kConnect;
  if (name == "sendto") return SyscallOp::kSendTo;
  if (name == "sendmsg") return SyscallOp::kSendMsg;
  if (name == "recvfrom") return SyscallOp::kRecvFrom;
  if (name == "recvmsg") return SyscallOp::kRecvFrom;
  if (name == "listen") return SyscallOp::kListen;
  if (name == "accept") return SyscallOp::kAccept;
  return SyscallOp::kUnknown;
}

Decl
Decl::Make(ResourceDef d)
{
  Decl out;
  out.kind = DeclKind::kResource;
  out.resource = std::move(d);
  return out;
}

Decl
Decl::Make(SyscallDef d)
{
  Decl out;
  out.kind = DeclKind::kSyscall;
  out.syscall = std::move(d);
  return out;
}

Decl
Decl::Make(StructDef d)
{
  Decl out;
  out.kind = DeclKind::kStruct;
  out.struct_def = std::move(d);
  return out;
}

Decl
Decl::Make(FlagsDef d)
{
  Decl out;
  out.kind = DeclKind::kFlags;
  out.flags = std::move(d);
  return out;
}

Decl
Decl::Make(DefineDef d)
{
  Decl out;
  out.kind = DeclKind::kDefine;
  out.define = std::move(d);
  return out;
}

const std::string&
Decl::Name() const
{
  switch (kind) {
    case DeclKind::kResource: return resource.name;
    case DeclKind::kSyscall: {
      // FullName() returns by value; keep a stable member for generic
      // syscalls and fall through to name for the common case.
      return syscall.variant.empty() ? syscall.name : syscall.variant;
    }
    case DeclKind::kStruct: return struct_def.name;
    case DeclKind::kFlags: return flags.name;
    case DeclKind::kDefine: return define.name;
  }
  return define.name;
}

void
SpecFile::Merge(const SpecFile& other)
{
  decls.insert(decls.end(), other.decls.begin(), other.decls.end());
}

std::vector<const SyscallDef*>
SpecFile::Syscalls() const
{
  std::vector<const SyscallDef*> out;
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kSyscall) out.push_back(&d.syscall);
  }
  return out;
}

std::vector<const StructDef*>
SpecFile::Structs() const
{
  std::vector<const StructDef*> out;
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kStruct) out.push_back(&d.struct_def);
  }
  return out;
}

std::vector<const ResourceDef*>
SpecFile::Resources() const
{
  std::vector<const ResourceDef*> out;
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kResource) out.push_back(&d.resource);
  }
  return out;
}

std::vector<const FlagsDef*>
SpecFile::FlagSets() const
{
  std::vector<const FlagsDef*> out;
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kFlags) out.push_back(&d.flags);
  }
  return out;
}

std::vector<const DefineDef*>
SpecFile::Defines() const
{
  std::vector<const DefineDef*> out;
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kDefine) out.push_back(&d.define);
  }
  return out;
}

const SyscallDef*
SpecFile::FindSyscall(const std::string& full_name) const
{
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kSyscall && d.syscall.FullName() == full_name) {
      return &d.syscall;
    }
  }
  return nullptr;
}

const StructDef*
SpecFile::FindStruct(const std::string& name) const
{
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kStruct && d.struct_def.name == name) {
      return &d.struct_def;
    }
  }
  return nullptr;
}

const ResourceDef*
SpecFile::FindResource(const std::string& name) const
{
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kResource && d.resource.name == name) {
      return &d.resource;
    }
  }
  return nullptr;
}

const FlagsDef*
SpecFile::FindFlags(const std::string& name) const
{
  for (const auto& d : decls) {
    if (d.kind == DeclKind::kFlags && d.flags.name == name) {
      return &d.flags;
    }
  }
  return nullptr;
}

}  // namespace kernelgpt::syzlang
