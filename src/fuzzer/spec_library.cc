#include "fuzzer/spec_library.h"

#include <functional>

namespace kernelgpt::fuzzer {

using syzlang::DeclKind;
using syzlang::Type;
using syzlang::TypeKind;

void
SpecLibrary::Add(const syzlang::SpecFile& spec)
{
  for (const auto& decl : spec.decls) {
    switch (decl.kind) {
      case DeclKind::kSyscall: {
        const std::string full = decl.syscall.FullName();
        if (seen_calls_.count(full)) break;
        seen_calls_[full] = true;
        syscalls_.push_back(decl.syscall);
        break;
      }
      case DeclKind::kStruct:
        structs_.emplace(decl.struct_def.name, decl.struct_def);
        break;
      case DeclKind::kFlags:
        flags_.emplace(decl.flags.name, decl.flags);
        break;
      case DeclKind::kResource:
        resources_.emplace(decl.resource.name, decl.resource);
        break;
      case DeclKind::kDefine:
        consts_.Define(decl.define.name, decl.define.value);
        break;
    }
  }
}

void
SpecLibrary::Finalize()
{
  producers_.clear();
  opcodes_.clear();
  opcodes_.reserve(syscalls_.size());
  len_links_.clear();
  len_links_.resize(syscalls_.size());
  for (size_t i = 0; i < syscalls_.size(); ++i) {
    opcodes_.push_back(ResolveSyscallOp(syscalls_[i].name));
    if (syscalls_[i].returns_resource) {
      producers_[*syscalls_[i].returns_resource].push_back(i);
    }
    const auto& params = syscalls_[i].params;
    for (size_t p = 0; p < params.size(); ++p) {
      const Type& type = params[p].type;
      if (type.kind != TypeKind::kLen && type.kind != TypeKind::kBytesize) {
        continue;
      }
      for (size_t t = 0; t < params.size(); ++t) {
        if (params[t].name == type.len_target) {
          len_links_[i].emplace_back(static_cast<int>(p),
                                     static_cast<int>(t));
        }
      }
    }
  }

  // Dense type-cache slots for the generator (see Type::cache_slot).
  type_slot_count_ = 0;
  std::function<void(Type*)> assign_slots = [&](Type* type) {
    type->cache_slot = static_cast<int>(type_slot_count_++);
    for (Type& elem : type->elems) assign_slots(&elem);
  };
  for (auto& syscall : syscalls_) {
    for (auto& param : syscall.params) assign_slots(&param.type);
  }
  for (auto& [name, struct_def] : structs_) {
    (void)name;
    for (auto& field : struct_def.fields) assign_slots(&field.type);
  }

  // Safe-producer pools: producers that do not consume their own
  // resource, so the generator's recursive producer insertion cannot
  // pick e.g. accept to satisfy accept's own fd parameter.
  safe_producers_.clear();
  for (const auto& [resource, producers] : producers_) {
    std::vector<size_t> safe;
    for (size_t p : producers) {
      bool self = false;
      for (const auto& param : syscalls_[p].params) {
        if ((param.type.kind == syzlang::TypeKind::kResource ||
             param.type.kind == syzlang::TypeKind::kStructRef) &&
            param.type.ref_name == resource) {
          self = true;
        }
      }
      if (!self) safe.push_back(p);
    }
    if (!safe.empty()) safe_producers_[resource] = std::move(safe);
  }
}

const syzlang::StructDef*
SpecLibrary::FindStruct(const std::string& name) const
{
  auto it = structs_.find(name);
  return it == structs_.end() ? nullptr : &it->second;
}

const syzlang::FlagsDef*
SpecLibrary::FindFlags(const std::string& name) const
{
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool
SpecLibrary::HasResource(const std::string& name) const
{
  return resources_.count(name) || name == "fd";
}

uint64_t
SpecLibrary::ResolveConst(const std::string& name) const
{
  return consts_.Resolve(name).value_or(0);
}

const std::vector<size_t>&
SpecLibrary::ProducersOf(const std::string& resource) const
{
  auto it = producers_.find(resource);
  return it == producers_.end() ? no_producers_ : it->second;
}

const std::vector<std::pair<int, int>>&
SpecLibrary::LenLinksOf(size_t index) const
{
  return index < len_links_.size() ? len_links_[index] : no_len_links_;
}

const std::vector<size_t>&
SpecLibrary::SafeProducersOf(const std::string& resource) const
{
  auto it = safe_producers_.find(resource);
  return it == safe_producers_.end() ? ProducersOf(resource) : it->second;
}

size_t
SpecLibrary::TypeSize(const Type& type) const
{
  switch (type.kind) {
    case TypeKind::kInt:
    case TypeKind::kConst:
    case TypeKind::kFlags:
    case TypeKind::kLen:
    case TypeKind::kBytesize:
      return type.bits == 0 ? 8 : static_cast<size_t>(type.bits) / 8;
    case TypeKind::kArray: {
      size_t elem = TypeSize(type.elems.at(0));
      return elem * static_cast<size_t>(type.array_len);
    }
    case TypeKind::kString:
      return type.str_literal.empty() ? 0 : type.str_literal.size() + 1;
    case TypeKind::kStructRef: {
      const syzlang::StructDef* def = FindStruct(type.ref_name);
      return def ? StructSize(*def) : 0;
    }
    case TypeKind::kPtr:
    case TypeKind::kResource:
    case TypeKind::kFilename:
      return 8;
    case TypeKind::kVoid:
      return 0;
  }
  return 0;
}

size_t
SpecLibrary::StructSize(const syzlang::StructDef& def) const
{
  size_t total = 0;
  size_t max_arm = 0;
  for (const auto& field : def.fields) {
    size_t sz = TypeSize(field.type);
    total += sz;
    max_arm = std::max(max_arm, sz);
  }
  return def.is_union ? max_arm : total;
}

}  // namespace kernelgpt::fuzzer
