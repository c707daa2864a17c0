#include "syzlang/validator.h"

#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace kernelgpt::syzlang {

namespace {

/// Collected name environment for reference resolution. `consts` holds
/// only the spec's own `define`s; they shadow the caller's table, which
/// is read in place rather than copied.
struct Scope {
  std::unordered_set<std::string> resources;
  std::unordered_set<std::string> structs;
  std::unordered_set<std::string> flag_sets;
  ConstTable consts;
};

class ValidatorImpl {
 public:
  ValidatorImpl(const SpecFile& spec, const ConstTable& consts,
                const SpecFile* externals, ValidationResult* out)
      : spec_(spec), externals_(externals), base_consts_(consts), out_(out) {
    scope_.resources.insert("fd");  // Builtin.
    CollectScope(spec_);
    if (externals) CollectScope(*externals);
  }

  void Run() {
    CheckDuplicates();
    for (const Decl& d : spec_.decls) {
      switch (d.kind) {
        case DeclKind::kResource: CheckResource(d.resource); break;
        case DeclKind::kSyscall: CheckSyscall(d.syscall); break;
        case DeclKind::kStruct: CheckStruct(d.struct_def); break;
        case DeclKind::kFlags: CheckFlags(d.flags); break;
        case DeclKind::kDefine: break;
      }
    }
    CheckStructRecursion();
  }

 private:
  void AddError(ErrorKind kind, const std::string& decl,
                const std::string& subject, std::string message) {
    out_->errors.push_back({kind, decl, subject, std::move(message)});
  }

  void CollectScope(const SpecFile& spec) {
    for (const Decl& d : spec.decls) {
      switch (d.kind) {
        case DeclKind::kResource: scope_.resources.insert(d.resource.name); break;
        case DeclKind::kStruct: scope_.structs.insert(d.struct_def.name); break;
        case DeclKind::kFlags: scope_.flag_sets.insert(d.flags.name); break;
        case DeclKind::kDefine:
          scope_.consts.Define(d.define.name, d.define.value);
          break;
        case DeclKind::kSyscall: break;
      }
    }
  }

  void CheckDuplicates() {
    std::unordered_set<std::string> seen;
    for (const Decl& d : spec_.decls) {
      std::string key;
      switch (d.kind) {
        case DeclKind::kSyscall: key = "call:" + d.syscall.FullName(); break;
        case DeclKind::kResource: key = "res:" + d.resource.name; break;
        case DeclKind::kStruct: key = "type:" + d.struct_def.name; break;
        case DeclKind::kFlags: key = "flags:" + d.flags.name; break;
        case DeclKind::kDefine: key = "def:" + d.define.name; break;
      }
      if (!seen.insert(key).second) {
        AddError(ErrorKind::kDuplicateDecl, d.Name(), d.Name(),
                 util::Format("duplicate declaration of %s", key.c_str()));
      }
    }
  }

  void CheckResource(const ResourceDef& r) {
    const std::string& base = r.underlying;
    bool ok = base == "fd" || scope_.resources.count(base) ||
              base == "int8" || base == "int16" || base == "int32" ||
              base == "int64" || base == "intptr";
    if (!ok) {
      AddError(ErrorKind::kBadResourceBase, r.name, base,
               util::Format("unknown resource base type '%s' in resource %s",
                            base.c_str(), r.name.c_str()));
    }
    if (base == r.name) {
      AddError(ErrorKind::kBadResourceBase, r.name, base,
               util::Format("resource %s is based on itself", r.name.c_str()));
    }
  }

  void CheckSyscall(const SyscallDef& c) {
    const std::string decl = c.FullName();
    const SyscallOp op = ResolveSyscallOp(c.name);
    if (op == SyscallOp::kUnknown) {
      AddError(ErrorKind::kUnknownSyscall, decl, c.name,
               util::Format("unknown syscall '%s'", c.name.c_str()));
    }
    if (op == SyscallOp::kIoctl || op == SyscallOp::kRead ||
        op == SyscallOp::kWrite || op == SyscallOp::kSetSockOpt ||
        op == SyscallOp::kGetSockOpt) {
      bool fd_first =
          !c.params.empty() &&
          (c.params[0].type.kind == TypeKind::kResource ||
           (c.params[0].type.kind == TypeKind::kStructRef &&
            scope_.resources.count(c.params[0].type.ref_name)));
      if (!fd_first) {
        AddError(ErrorKind::kMissingFdParam, decl,
                 c.params.empty() ? "" : c.params[0].name,
                 util::Format("%s must take a resource (fd) first argument",
                              decl.c_str()));
      }
    }
    for (const Field& p : c.params) {
      CheckType(decl, p.type, c.params);
    }
    if (c.returns_resource && !scope_.resources.count(*c.returns_resource)) {
      AddError(ErrorKind::kUnknownResource, decl, *c.returns_resource,
               util::Format("unknown resource '%s' used as return value of %s",
                            c.returns_resource->c_str(), decl.c_str()));
    }
  }

  void CheckStruct(const StructDef& s) {
    if (s.fields.empty()) {
      AddError(ErrorKind::kEmptyStruct, s.name, s.name,
               util::Format("%s %s has no fields",
                            s.is_union ? "union" : "struct", s.name.c_str()));
    }
    std::unordered_set<std::string> field_names;
    for (const Field& f : s.fields) {
      if (!field_names.insert(f.name).second) {
        AddError(ErrorKind::kDuplicateDecl, s.name, f.name,
                 util::Format("duplicate field '%s' in %s", f.name.c_str(),
                              s.name.c_str()));
      }
      if (s.is_union && f.type.kind == TypeKind::kVoid) {
        AddError(ErrorKind::kDanglingUnion, s.name, f.name,
                 util::Format("union %s arm '%s' has void payload",
                              s.name.c_str(), f.name.c_str()));
      }
      CheckType(s.name, f.type, s.fields);
    }
  }

  /// A local define first, then a literal or a name in the caller's table.
  bool ConstDefined(const std::string& name) const {
    return scope_.consts.Has(name) || base_consts_.Resolve(name);
  }

  void CheckFlags(const FlagsDef& f) {
    for (const std::string& v : f.values) {
      if (!ConstDefined(v)) {
        AddError(ErrorKind::kUnknownConst, f.name, v,
                 util::Format("flag value '%s' in %s is not defined",
                              v.c_str(), f.name.c_str()));
      }
    }
  }

  void CheckType(const std::string& decl, const Type& t,
                 const std::vector<Field>& siblings) {
    switch (t.kind) {
      case TypeKind::kInt:
        CheckIntWidth(decl, t.bits);
        if (t.has_range && t.range_hi < t.range_lo) {
          AddError(ErrorKind::kBadIntWidth, decl,
                   util::Format("%lld:%lld", static_cast<long long>(t.range_lo),
                                static_cast<long long>(t.range_hi)),
                   util::Format("empty int range in %s", decl.c_str()));
        }
        break;
      case TypeKind::kConst:
        CheckIntWidth(decl, t.bits);
        if (!ConstDefined(t.const_name)) {
          AddError(ErrorKind::kUnknownConst, decl, t.const_name,
                   util::Format("const %s is not defined",
                                t.const_name.c_str()));
        }
        break;
      case TypeKind::kFlags:
        CheckIntWidth(decl, t.bits);
        if (!scope_.flag_sets.count(t.flags_name)) {
          AddError(ErrorKind::kUnknownFlags, decl, t.flags_name,
                   util::Format("unknown flags set '%s'",
                                t.flags_name.c_str()));
        }
        break;
      case TypeKind::kPtr:
        CheckType(decl, t.elems.at(0), siblings);
        break;
      case TypeKind::kArray:
        CheckType(decl, t.elems.at(0), siblings);
        break;
      case TypeKind::kLen:
      case TypeKind::kBytesize: {
        CheckIntWidth(decl, t.bits);
        bool found = t.len_target == "parent";
        for (const Field& f : siblings) {
          if (f.name == t.len_target) found = true;
        }
        if (!found) {
          AddError(ErrorKind::kBadLenTarget, decl, t.len_target,
                   util::Format("len target '%s' does not exist in %s",
                                t.len_target.c_str(), decl.c_str()));
        }
        break;
      }
      case TypeKind::kResource:
        if (!scope_.resources.count(t.ref_name)) {
          AddError(ErrorKind::kUnknownResource, decl, t.ref_name,
                   util::Format("unknown resource '%s'", t.ref_name.c_str()));
        }
        break;
      case TypeKind::kStructRef: {
        // A bare name may legally refer to a struct, union, or resource.
        if (scope_.structs.count(t.ref_name)) break;
        if (scope_.resources.count(t.ref_name)) break;
        AddError(ErrorKind::kUnknownType, decl, t.ref_name,
                 util::Format("type %s is not defined", t.ref_name.c_str()));
        break;
      }
      case TypeKind::kString:
      case TypeKind::kFilename:
      case TypeKind::kVoid:
        break;
    }
  }

  void CheckIntWidth(const std::string& decl, int bits) {
    if (bits != 0 && bits != 8 && bits != 16 && bits != 32 && bits != 64) {
      AddError(ErrorKind::kBadIntWidth, decl, util::Format("int%d", bits),
               util::Format("unsupported int width int%d in %s", bits,
                            decl.c_str()));
    }
  }

  /// Detects structs containing themselves by value (directly or through
  /// arrays/other structs) which would have infinite size. The walk
  /// follows the externals' structs too (the spec's own shadow them), so
  /// a cycle closed only once the files are linked is still refused.
  void CheckStructRecursion() {
    std::unordered_map<std::string, const StructDef*> by_name;
    for (const StructDef* s : spec_.Structs()) by_name[s->name] = s;
    if (externals_) {
      for (const StructDef* s : externals_->Structs()) {
        by_name.emplace(s->name, s);
      }
    }

    for (const StructDef* s : spec_.Structs()) {
      std::unordered_set<std::string> stack;
      if (Recurses(s->name, by_name, stack)) {
        AddError(ErrorKind::kRecursiveStruct, s->name, s->name,
                 util::Format("struct %s recursively contains itself by value",
                              s->name.c_str()));
      }
    }
  }

  bool Recurses(const std::string& name,
                const std::unordered_map<std::string, const StructDef*>& defs,
                std::unordered_set<std::string>& stack) {
    if (stack.count(name)) return true;
    auto it = defs.find(name);
    if (it == defs.end()) return false;
    stack.insert(name);
    bool hit = false;
    for (const Field& f : it->second->fields) {
      hit = hit || TypeRecurses(f.type, defs, stack);
    }
    stack.erase(name);
    return hit;
  }

  bool TypeRecurses(const Type& t,
                    const std::unordered_map<std::string, const StructDef*>& defs,
                    std::unordered_set<std::string>& stack) {
    switch (t.kind) {
      case TypeKind::kStructRef:
        return Recurses(t.ref_name, defs, stack);
      case TypeKind::kArray:
        return TypeRecurses(t.elems.at(0), defs, stack);
      case TypeKind::kPtr:
        return false;  // Pointer indirection breaks value recursion.
      default:
        return false;
    }
  }

  const SpecFile& spec_;
  const SpecFile* externals_;
  const ConstTable& base_consts_;
  Scope scope_;
  ValidationResult* out_;
};

}  // namespace

const char*
ErrorKindName(ErrorKind kind)
{
  switch (kind) {
    case ErrorKind::kUnknownType: return "unknown-type";
    case ErrorKind::kUnknownConst: return "unknown-const";
    case ErrorKind::kUnknownFlags: return "unknown-flags";
    case ErrorKind::kUnknownResource: return "unknown-resource";
    case ErrorKind::kBadLenTarget: return "bad-len-target";
    case ErrorKind::kDuplicateDecl: return "duplicate-decl";
    case ErrorKind::kEmptyStruct: return "empty-struct";
    case ErrorKind::kRecursiveStruct: return "recursive-struct";
    case ErrorKind::kBadResourceBase: return "bad-resource-base";
    case ErrorKind::kUnknownSyscall: return "unknown-syscall";
    case ErrorKind::kMissingFdParam: return "missing-fd-param";
    case ErrorKind::kBadIntWidth: return "bad-int-width";
    case ErrorKind::kDanglingUnion: return "dangling-union";
  }
  return "unknown";
}

std::vector<ValidationError>
ValidationResult::ForDecl(const std::string& decl) const
{
  std::vector<ValidationError> out;
  for (const auto& e : errors) {
    if (e.decl == decl) out.push_back(e);
  }
  return out;
}

std::vector<std::string>
ValidationResult::ErroredDecls() const
{
  std::vector<std::string> out;
  for (const auto& e : errors) {
    bool seen = false;
    for (const auto& d : out) seen = seen || d == e.decl;
    if (!seen) out.push_back(e.decl);
  }
  return out;
}

ValidationResult
Validate(const SpecFile& spec, const ConstTable& consts,
         const SpecFile* externals)
{
  ValidationResult result;
  ValidatorImpl impl(spec, consts, externals, &result);
  impl.Run();
  return result;
}

}  // namespace kernelgpt::syzlang
