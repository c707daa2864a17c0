#include "fuzzer/spec_library.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

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

namespace {

uint64_t
ScalarMask(int bits)
{
  if (bits <= 0 || bits >= 64) return ~0ULL;
  return (1ULL << bits) - 1;
}

/// Compiles types into a GenPlans. Compiling a library's own types
/// (`ids` non-null) fills plans->types by Type::cache_slot, each slot
/// once, and interns resource names into `ids`; compiling a foreign type
/// appends its plans and gives it no resource ids (only AppendCall reads
/// them, and it runs the library's own plans). Each struct is compiled
/// once per compiler; a reference to a struct still being compiled
/// closes a by-value cycle and compiles like an undefined struct.
class PlanCompiler {
 public:
  PlanCompiler(const SpecLibrary& lib, GenPlans* plans,
               std::unordered_map<std::string, int32_t>* ids)
      : lib_(lib), plans_(*plans), ids_(ids) {
    if (ids_) compiled_.assign(plans_.types.size(), false);
  }

  /// Index of `type`'s TypePlan in plans->types.
  uint32_t Compile(const Type& type) {
    if (ids_) {
      const size_t slot = static_cast<size_t>(type.cache_slot);
      if (!compiled_[slot]) {
        // Build() may recurse into this slot through a by-value cycle;
        // the outermost compile is the one that stays.
        const TypePlan plan = Build(type);
        plans_.types[slot] = plan;
        compiled_[slot] = true;
      }
      return static_cast<uint32_t>(slot);
    }
    const TypePlan plan = Build(type);
    plans_.types.push_back(plan);
    return static_cast<uint32_t>(plans_.types.size() - 1);
  }

 private:
  struct Compiled {
    uint32_t node;
    uint64_t size;
  };

  TypePlan Build(const Type& type) {
    TypePlan plan;
    plan.scalar = Scalar(type);
    const Compiled payload = Payload(type, plan.scalar);
    plan.payload = payload.node;
    plan.size = payload.size;
    switch (type.kind) {
      case TypeKind::kResource:
        plan.arg = TypePlan::Arg::kResourceRef;
        plan.resource = ResourceId(type.ref_name);
        break;
      case TypeKind::kStructRef:
        // A bare name can be a resource reference after parsing
        // round-trips; as an argument the resource wins.
        if (lib_.HasResource(type.ref_name)) {
          plan.arg = TypePlan::Arg::kResourceRef;
          plan.resource = ResourceId(type.ref_name);
        } else {
          plan.arg = TypePlan::Arg::kBuffer;
          plan.pointee = payload.node;
          plan.pointee_size = payload.size;
        }
        break;
      case TypeKind::kPtr: {
        const TypePlan elem = plans_.types[Compile(type.elems.at(0))];
        plan.arg = TypePlan::Arg::kBuffer;
        plan.dir = type.dir;
        plan.pointee = elem.payload;
        plan.pointee_size = elem.size;
        break;
      }
      case TypeKind::kFilename:
        plan.arg = TypePlan::Arg::kFilename;
        break;
      case TypeKind::kLen:
      case TypeKind::kBytesize:
        plan.arg = TypePlan::Arg::kLen;
        break;
      default:
        plan.arg = TypePlan::Arg::kScalar;
        break;
    }
    return plan;
  }

  uint32_t Scalar(const Type& type) {
    ScalarPlan plan;
    plan.mask = ScalarMask(type.bits == 0 ? 64 : type.bits);
    switch (type.kind) {
      case TypeKind::kConst:
        plan.op = ScalarPlan::Op::kConst;
        plan.value = lib_.ResolveConst(type.const_name);
        break;
      case TypeKind::kFlags: {
        auto [it, fresh] = flag_ranges_.try_emplace(type.flags_name);
        if (fresh) {
          it->second.first = static_cast<uint32_t>(plans_.flag_values.size());
          if (const auto* flags = lib_.FindFlags(type.flags_name)) {
            for (const auto& name : flags->values) {
              plans_.flag_values.push_back(lib_.ResolveConst(name));
            }
          }
          it->second.second = static_cast<uint32_t>(plans_.flag_values.size());
        }
        plan.begin = it->second.first;
        plan.end = it->second.second;
        plan.op = plan.begin == plan.end ? ScalarPlan::Op::kRaw
                                         : ScalarPlan::Op::kFlags;
        break;
      }
      case TypeKind::kInt:
        plan.op = type.has_range ? ScalarPlan::Op::kRange
                                 : ScalarPlan::Op::kSpecial;
        plan.lo = type.range_lo;
        plan.hi = type.range_hi;
        break;
      default:
        plan.op = ScalarPlan::Op::kRaw;
        break;
    }
    plans_.scalars.push_back(plan);
    return static_cast<uint32_t>(plans_.scalars.size() - 1);
  }

  uint32_t AddNode(const PayloadNode& node) {
    plans_.nodes.push_back(node);
    return static_cast<uint32_t>(plans_.nodes.size() - 1);
  }

  uint32_t ScalarNode(uint32_t scalar, uint64_t width) {
    PayloadNode node;
    node.op = PayloadNode::Op::kScalar;
    node.scalar = scalar;
    node.width = width;
    return AddNode(node);
  }

  Compiled Zeros8() {
    PayloadNode node;
    node.op = PayloadNode::Op::kZeros;
    node.width = 8;
    return {AddNode(node), 0};
  }

  /// BuildPayload's node for `type`, and TypeSize(type); `scalar` is
  /// the type's ScalarFor plan.
  Compiled Payload(const Type& type, uint32_t scalar) {
    switch (type.kind) {
      case TypeKind::kString: {
        PayloadNode node;
        if (type.str_literal.empty()) {
          node.op = PayloadNode::Op::kString;
          return {AddNode(node), 0};
        }
        node.op = PayloadNode::Op::kLiteral;
        node.begin = static_cast<uint32_t>(plans_.bytes.size());
        plans_.bytes.insert(plans_.bytes.end(), type.str_literal.begin(),
                            type.str_literal.end());
        plans_.bytes.push_back(0);
        node.end = static_cast<uint32_t>(plans_.bytes.size());
        return {AddNode(node), type.str_literal.size() + 1};
      }
      case TypeKind::kArray: {
        const Type& elem_type = type.elems.at(0);
        const TypePlan elem = plans_.types[Compile(elem_type)];
        PayloadNode node;
        node.op = PayloadNode::Op::kArray;
        node.count = type.array_len;
        // Struct elements nest; every other element is one scalar.
        node.child = elem_type.kind == TypeKind::kStructRef
                         ? elem.payload
                         : ScalarNode(elem.scalar, elem.size ? elem.size : 4);
        return {AddNode(node), elem.size * type.array_len};
      }
      case TypeKind::kStructRef:
        return Struct(type.ref_name);
      default: {
        const uint64_t size = ScalarSize(type);
        return {ScalarNode(scalar, size ? size : 4), size};
      }
    }
  }

  static uint64_t ScalarSize(const Type& type) {
    switch (type.kind) {
      case TypeKind::kInt:
      case TypeKind::kConst:
      case TypeKind::kFlags:
      case TypeKind::kLen:
      case TypeKind::kBytesize:
        return type.bits == 0 ? 8 : static_cast<uint64_t>(type.bits) / 8;
      case TypeKind::kPtr:
      case TypeKind::kResource:
      case TypeKind::kFilename:
        return 8;
      default:
        return 0;
    }
  }

  Compiled Struct(const std::string& name) {
    auto done = structs_.find(name);
    if (done != structs_.end()) return done->second;
    const syzlang::StructDef* def = lib_.FindStruct(name);
    if (!def || open_.count(name)) return Zeros8();
    open_.insert(name);
    const Compiled compiled = def->is_union ? Union(*def) : Record(*def);
    open_.erase(name);
    structs_.emplace(name, compiled);
    return compiled;
  }

  Compiled Union(const syzlang::StructDef& def) {
    std::vector<UnionArm> arms;
    uint64_t total = 0;
    for (const auto& field : def.fields) {
      const TypePlan arm = plans_.types[Compile(field.type)];
      arms.push_back({arm.payload, arm.scalar, arm.size});
      total = std::max(total, arm.size);
    }
    PayloadNode node;
    node.op = PayloadNode::Op::kUnion;
    node.width = total;
    node.begin = static_cast<uint32_t>(plans_.arms.size());
    plans_.arms.insert(plans_.arms.end(), arms.begin(), arms.end());
    node.end = static_cast<uint32_t>(plans_.arms.size());
    return {AddNode(node), total};
  }

  /// A struct: fields in order, len and bytesize fields zero until the
  /// fix-ups. A len names the last array, string or struct field of that
  /// name (or `parent`); naming anything else it stays 0.
  Compiled Record(const syzlang::StructDef& def) {
    const auto sized = [](const Type& t) {
      return t.kind == TypeKind::kArray || t.kind == TypeKind::kString ||
             t.kind == TypeKind::kStructRef;
    };
    const size_t n = def.fields.size();
    constexpr size_t kNone = ~size_t{0};
    std::vector<size_t> target(n, kNone);  // Len field -> target field.
    std::vector<uint32_t> reg(n, FieldStep::kNoReg);
    uint32_t regs = 0;
    for (size_t i = 0; i < n; ++i) {
      const Type& t = def.fields[i].type;
      if (t.kind != TypeKind::kLen && t.kind != TypeKind::kBytesize) continue;
      if (t.len_target == "parent") {
        reg[i] = regs++;
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        if (def.fields[j].name == t.len_target && sized(def.fields[j].type)) {
          target[i] = j;
        }
      }
      if (target[i] == kNone) continue;
      reg[i] = regs++;
      if (reg[target[i]] == FieldStep::kNoReg) reg[target[i]] = regs++;
    }

    std::vector<FieldStep> steps;
    std::vector<LenFixup> fixups;
    uint64_t size = 0;
    for (size_t i = 0; i < n; ++i) {
      const Type& t = def.fields[i].type;
      const TypePlan field = plans_.types[Compile(t)];
      size += field.size;
      FieldStep step;
      step.reg = reg[i];
      if (t.kind == TypeKind::kLen || t.kind == TypeKind::kBytesize) {
        PayloadNode zeros;
        zeros.op = PayloadNode::Op::kZeros;
        zeros.width = field.size;
        step.node = AddNode(zeros);
        step.is_len_slot = true;
        if (reg[i] != FieldStep::kNoReg) {
          LenFixup fix;
          fix.slot_reg = reg[i];
          fix.width = field.size;
          if (target[i] != kNone) {
            const Type& to = def.fields[target[i]].type;
            fix.src = reg[target[i]];
            if (t.kind == TypeKind::kLen && to.kind == TypeKind::kArray) {
              fix.divisor = std::max<uint64_t>(
                  plans_.types[Compile(to.elems.at(0))].size, 1);
            }
          }
          fixups.push_back(fix);
        }
      } else {
        step.node = field.payload;
        // Fixed-size fields keep their declared size.
        if (sized(t)) step.declared = field.size;
      }
      steps.push_back(step);
    }

    PayloadNode node;
    node.op = PayloadNode::Op::kStruct;
    node.regs = regs;
    node.begin = static_cast<uint32_t>(plans_.fields.size());
    plans_.fields.insert(plans_.fields.end(), steps.begin(), steps.end());
    node.end = static_cast<uint32_t>(plans_.fields.size());
    node.aux_begin = static_cast<uint32_t>(plans_.fixups.size());
    plans_.fixups.insert(plans_.fixups.end(), fixups.begin(), fixups.end());
    node.aux_end = static_cast<uint32_t>(plans_.fixups.size());
    return {AddNode(node), size};
  }

  int32_t ResourceId(const std::string& name) {
    if (!ids_) return -1;
    return ids_->emplace(name, static_cast<int32_t>(ids_->size()))
        .first->second;
  }

  const SpecLibrary& lib_;
  GenPlans& plans_;
  std::unordered_map<std::string, int32_t>* ids_;
  std::vector<bool> compiled_;
  std::unordered_map<std::string, Compiled> structs_;
  std::unordered_set<std::string> open_;
  std::unordered_map<std::string, std::pair<uint32_t, uint32_t>> flag_ranges_;
};

}  // namespace

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

  // Number every owned type (see Type::cache_slot). Each syscall's
  // parameters take consecutive slots, so its CallPlan is a range.
  plans_ = GenPlans();
  plans_.calls.resize(syscalls_.size());
  std::vector<Type*> owned;
  std::function<void(Type*)> number = [&](Type* type) {
    type->cache_slot = static_cast<int>(owned.size());
    owned.push_back(type);
  };
  std::function<void(Type*)> number_elems = [&](Type* type) {
    for (Type& elem : type->elems) {
      number(&elem);
      number_elems(&elem);
    }
  };
  for (size_t i = 0; i < syscalls_.size(); ++i) {
    plans_.calls[i].first_param = static_cast<uint32_t>(owned.size());
    plans_.calls[i].params =
        static_cast<uint32_t>(syscalls_[i].params.size());
    for (auto& param : syscalls_[i].params) number(&param.type);
    for (auto& param : syscalls_[i].params) number_elems(&param.type);
  }
  for (auto& [name, struct_def] : structs_) {
    (void)name;
    for (auto& field : struct_def.fields) {
      number(&field.type);
      number_elems(&field.type);
    }
  }

  // Compile every slot, then resolve return values and safe-producer
  // pools by dense resource id.
  std::unordered_map<std::string, int32_t> ids;
  for (const auto& def : syscalls_) {
    if (def.returns_resource) {
      ids.emplace(*def.returns_resource, static_cast<int32_t>(ids.size()));
    }
  }
  plans_.types.resize(owned.size());
  PlanCompiler compiler(*this, &plans_, &ids);
  for (const Type* type : owned) compiler.Compile(*type);
  for (size_t i = 0; i < syscalls_.size(); ++i) {
    if (syscalls_[i].returns_resource) {
      plans_.calls[i].returns = ids.at(*syscalls_[i].returns_resource);
    }
  }
  std::vector<const std::string*> names(ids.size());
  for (const auto& [name, id] : ids) names[static_cast<size_t>(id)] = &name;
  for (const std::string* name : names) {
    // Producers that do not consume their own resource, so recursive
    // producer insertion cannot pick e.g. accept to satisfy accept's own
    // fd parameter; every producer when each one does.
    const std::vector<size_t>& producers = ProducersOf(*name);
    std::vector<size_t> safe;
    for (size_t p : producers) {
      bool self = false;
      for (const auto& param : syscalls_[p].params) {
        if ((param.type.kind == TypeKind::kResource ||
             param.type.kind == TypeKind::kStructRef) &&
            param.type.ref_name == *name) {
          self = true;
        }
      }
      if (!self) safe.push_back(p);
    }
    const std::vector<size_t>& pool = safe.empty() ? producers : safe;
    plans_.pools.push_back(static_cast<uint32_t>(plans_.producers.size()));
    plans_.producers.insert(plans_.producers.end(), pool.begin(), pool.end());
  }
  plans_.pools.push_back(static_cast<uint32_t>(plans_.producers.size()));
}

uint32_t
SpecLibrary::CompileType(const Type& type, GenPlans* out) const
{
  return PlanCompiler(*this, out, nullptr).Compile(type);
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

size_t
SpecLibrary::TypeSize(const Type& type) const
{
  if (const TypePlan* plan = PlanOf(type)) return plan->size;
  GenPlans scratch;
  return scratch.types[CompileType(type, &scratch)].size;
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
