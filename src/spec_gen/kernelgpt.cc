#include "spec_gen/kernelgpt.h"

#include <cctype>
#include <deque>
#include <functional>
#include <unordered_set>

#include "llm/engine.h"
#include "util/strings.h"

namespace kernelgpt::spec_gen {

using syzlang::Decl;
using syzlang::DeclKind;
using syzlang::Dir;
using syzlang::Field;
using syzlang::FlagsDef;
using syzlang::ResourceDef;
using syzlang::SpecFile;
using syzlang::SyscallDef;
using syzlang::Type;
using syzlang::TypeKind;

namespace {

/// Sanitizes a label into an identifier ("kvm-vm" -> "kvm_vm").
std::string
Sanitize(const std::string& s)
{
  std::string out;
  for (char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c))
                      ? c
                      : '_');
  }
  return out;
}

/// Walks every type in a declaration, applying `fn`.
void
VisitTypes(Type* t, const std::function<void(Type*)>& fn)
{
  fn(t);
  for (Type& e : t->elems) VisitTypes(&e, fn);
}

void
VisitDeclTypes(Decl* decl, const std::function<void(Type*)>& fn)
{
  switch (decl->kind) {
    case DeclKind::kSyscall:
      for (Field& p : decl->syscall.params) VisitTypes(&p.type, fn);
      break;
    case DeclKind::kStruct:
      for (Field& f : decl->struct_def.fields) VisitTypes(&f.type, fn);
      break;
    default:
      break;
  }
}

}  // namespace

std::string
ModuleIdFromPath(const std::string& path)
{
  std::string base = path;
  auto slash = base.rfind('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  if (util::EndsWith(base, ".c")) base = base.substr(0, base.size() - 2);
  return base;
}

KernelGpt::KernelGpt(const ksrc::DefinitionIndex* index, Options options,
                     llm::Backend* backend, const syzlang::ConstTable* consts)
    : index_(index),
      options_(std::move(options)),
      backend_(backend),
      owned_consts_(consts ? nullptr
                           : std::make_unique<syzlang::ConstTable>(
                                 index->BuildConstTable())),
      consts_(consts ? consts : owned_consts_.get()) {}

KernelGpt::KernelGpt(const ksrc::DefinitionIndex* index, Options options,
                     llm::TokenMeter* meter)
    : index_(index),
      options_(std::move(options)),
      owned_backend_(std::make_unique<llm::SimulatedBackend>(
          index, options_.profile, meter)),
      backend_(owned_backend_.get()),
      owned_consts_(std::make_unique<syzlang::ConstTable>(
          index->BuildConstTable())),
      consts_(owned_consts_.get()) {}

void
KernelGpt::MaybeInjectFlaw(const std::string& module, Decl* decl)
{
  const std::string name =
      decl->kind == DeclKind::kSyscall ? decl->syscall.FullName()
                                       : decl->Name();
  if (!profile().Decide("flaw:" + module + ":" + name,
                        profile().invalid_decl_rate)) {
    return;
  }
  // Two flaw modes, chosen deterministically: a bare C `int` type (the
  // Figure 4 error) or a hallucinated constant name.
  bool bare_int = profile().Decide("flawmode:" + module + ":" + name, 0.5);
  if (decl->kind == DeclKind::kStruct && !decl->struct_def.fields.empty()) {
    if (bare_int) {
      for (Field& f : decl->struct_def.fields) {
        if (f.type.kind == TypeKind::kInt) {
          f.type = Type::StructRef("int");
          return;
        }
      }
    }
    // Fall back to mangling a len target.
    for (Field& f : decl->struct_def.fields) {
      if (f.type.kind == TypeKind::kLen) {
        f.type.len_target += "_buf";
        return;
      }
    }
    if (!decl->struct_def.fields.empty()) {
      decl->struct_def.fields[0].type = Type::StructRef("int");
    }
    return;
  }
  if (decl->kind == DeclKind::kSyscall) {
    for (Field& p : decl->syscall.params) {
      if (p.type.kind == TypeKind::kConst &&
          !syzlang::ParseIntLiteral(p.type.const_name)) {
        p.type.const_name += "_SPEC";
        return;
      }
    }
  }
}

KernelGpt::TypeResult
KernelGpt::DescribeArgType(const std::string& sub_fn,
                           const std::string& module, SpecFile* spec)
{
  TypeResult result;
  if (sub_fn.empty()) return result;
  llm::ArgTypeAnalysis analysis =
      backend_->AnalyzeArgumentType(sub_fn, module);
  result.struct_name = analysis.arg_struct;
  result.dir = analysis.dir;
  if (analysis.arg_struct.empty()) return result;

  // Merge this command's observed semantics into the struct's record;
  // the first command to constrain a field wins.
  StructSemantics& semantics = struct_semantics_[analysis.arg_struct];
  for (const llm::FieldConstraint& c : analysis.constraints) {
    bool seen = false;
    for (const auto& prev : semantics.constraints) {
      if (prev.field == c.field) seen = true;
    }
    if (!seen) semantics.constraints.push_back(c);
  }
  for (const std::string& f : analysis.out_fields) {
    bool seen = false;
    for (const auto& prev : semantics.out_fields) {
      if (prev == f) seen = true;
    }
    if (!seen) semantics.out_fields.push_back(f);
  }
  analysis.constraints = semantics.constraints;
  analysis.out_fields = semantics.out_fields;

  // Recovery is deferred to DescribeRecordedStructs so that every command
  // sharing this struct contributes its semantics first.
  bool recorded = false;
  for (const auto& name : needed_structs_) {
    if (name == analysis.arg_struct) recorded = true;
  }
  if (!recorded) needed_structs_.push_back(analysis.arg_struct);
  (void)spec;
  return result;
}

void
KernelGpt::DescribeRecordedStructs(const std::string& module, SpecFile* spec)
{
  std::deque<std::pair<std::string, int>> queue;  // (name, nesting depth)
  for (const std::string& name : needed_structs_) queue.push_back({name, 0});
  while (!queue.empty()) {
    auto [name, depth] = queue.front();
    queue.pop_front();
    if (spec->FindStruct(name)) continue;
    if (!options_.iterative && depth >= 1) {
      // All-in-one ablation: nested types are not chased; emit a raw
      // byte-array placeholder struct so the spec still parses.
      syzlang::StructDef placeholder;
      placeholder.name = name;
      Field blob;
      blob.name = "raw";
      uint64_t size = index_->SizeOf("struct " + name);
      blob.type = Type::Array(Type::Int(8), size ? size : 8);
      placeholder.fields.push_back(std::move(blob));
      spec->Add(std::move(placeholder));
      continue;
    }
    const StructSemantics& semantics = struct_semantics_[name];
    llm::StructRecovery rec = backend_->RecoverStruct(
        name, module, semantics.constraints, semantics.out_fields);
    if (rec.def.fields.empty()) continue;
    for (const llm::FlagSetGuess& guess : rec.flag_sets) {
      if (!spec->FindFlags(guess.set_name)) {
        FlagsDef flags;
        flags.name = guess.set_name;
        flags.values = guess.member_macros;
        spec->Add(std::move(flags));
      }
    }
    Decl decl = Decl::Make(std::move(rec.def));
    MaybeInjectFlaw(module, &decl);
    spec->decls.push_back(std::move(decl));
    for (const llm::Unknown& unknown : rec.unknowns) {
      if (unknown.kind == llm::Unknown::Kind::kType) {
        queue.push_back({unknown.identifier, depth + 1});
      }
    }
  }
}

size_t
KernelGpt::DescribeIoctlChain(const std::string& ioctl_fn,
                              const std::string& fd_resource,
                              const std::string& module, SpecFile* spec)
{
  struct WorkItem {
    std::string fn;
    std::string usage;
    int depth;
  };
  std::deque<WorkItem> worklist;
  worklist.push_back({ioctl_fn,
                      ioctl_fn + "(struct file *file, unsigned int command, "
                                 "unsigned long u)",
                      1});
  std::unordered_set<std::string> visited;
  std::vector<llm::CommandFinding> commands;

  // All-in-one mode: everything must fit one prompt; track a code budget
  // and stop including functions beyond it.
  size_t code_budget =
      options_.iterative ? SIZE_MAX : profile().context_tokens / 4;
  size_t code_used = 0;

  while (!worklist.empty()) {
    WorkItem item = worklist.front();
    worklist.pop_front();
    if (!visited.insert(item.fn).second) continue;
    if (options_.iterative && item.depth > options_.max_iter) continue;
    if (!options_.iterative) {
      const ksrc::FunctionFacts* facts = index_->Facts(item.fn);
      code_used +=
          facts ? util::ApproxTokenCount(facts->code_words, facts->code.size())
                : util::ApproxTokenCount(index_->ExtractCode(item.fn));
      if (code_used > code_budget) continue;  // Fell out of the context.
    }
    llm::IdentifierAnalysis analysis =
        backend_->AnalyzeIdentifiers(item.fn, item.usage, module, item.depth);
    for (auto& cmd : analysis.commands) commands.push_back(std::move(cmd));
    for (const llm::Unknown& unknown : analysis.unknowns) {
      worklist.push_back({unknown.identifier, unknown.usage, item.depth + 1});
    }
  }

  size_t described = 0;
  for (const llm::CommandFinding& cmd : commands) {
    TypeResult type = DescribeArgType(cmd.sub_function, module, spec);

    // Stage 3: does this command create a new resource?
    std::string ret_resource;
    if (options_.iterative && !cmd.sub_function.empty()) {
      llm::DependencyAnalysis dep =
          backend_->AnalyzeDependencies(cmd.sub_function, module);
      for (const auto& created : dep.created) {
        ret_resource = "fd_" + Sanitize(created.label);
        if (!spec->FindResource(ret_resource)) {
          spec->Add(ResourceDef{ret_resource, "fd"});
          // Find the handler table the new fd is bound to and describe
          // its commands against the new resource.
          const ksrc::CVarDef* fops = index_->FindVar(created.fops_var);
          if (fops) {
            std::string sub_ioctl = fops->InitFor("unlocked_ioctl");
            if (sub_ioctl.empty()) sub_ioctl = fops->InitFor("ioctl");
            if (!sub_ioctl.empty()) {
              described += DescribeIoctlChain(sub_ioctl, ret_resource, module,
                                              spec);
            }
          }
        }
        break;  // One created resource per command in practice.
      }
    }

    SyscallDef call;
    call.name = "ioctl";
    call.variant = cmd.macro;
    call.params.push_back({"fd", Type::Resource(fd_resource), false});
    call.params.push_back({"cmd", Type::Const(cmd.macro), false});
    if (type.struct_name.empty()) {
      call.params.push_back({"arg", Type::ConstValue(0, 64), false});
    } else {
      call.params.push_back(
          {"arg", Type::Ptr(type.dir, Type::StructRef(type.struct_name)),
           false});
    }
    if (!ret_resource.empty()) call.returns_resource = ret_resource;

    Decl decl = Decl::Make(std::move(call));
    MaybeInjectFlaw(module, &decl);
    // Skip duplicates (two dispatch paths can surface the same macro).
    if (!spec->FindSyscall(decl.syscall.FullName())) {
      spec->decls.push_back(std::move(decl));
      ++described;
    }
  }
  return described;
}

HandlerGeneration
KernelGpt::GenerateForDriver(const extractor::DriverHandler& handler)
{
  HandlerGeneration out;
  out.module = ModuleIdFromPath(handler.file_path);
  out.spec.origin = "kernelgpt:" + out.module;
  struct_semantics_.clear();
  needed_structs_.clear();

  std::string node = backend_->InferDeviceNode(handler, out.module);
  if (node.empty()) {
    out.status = GenStatus::kFailed;
    return out;
  }

  const std::string res = "fd_" + out.module;
  out.spec.Add(ResourceDef{res, "fd"});

  SyscallDef open;
  open.name = "openat";
  open.variant = out.module;
  open.params.push_back({"fd", Type::ConstValue(0, 64), false});
  open.params.push_back({"file", Type::Ptr(Dir::kIn, Type::String(node)),
                         false});
  open.params.push_back({"flags", Type::ConstValue(2, 32), false});
  open.params.push_back({"mode", Type::ConstValue(0, 32), false});
  open.returns_resource = res;
  out.spec.Add(std::move(open));

  size_t described = DescribeIoctlChain(handler.ioctl_fn, res, out.module,
                                        &out.spec);
  DescribeRecordedStructs(out.module, &out.spec);
  if (described == 0) {
    out.status = GenStatus::kFailed;
    return out;
  }
  ValidateAndRepair(&out);
  return out;
}

HandlerGeneration
KernelGpt::GenerateForSocket(const extractor::SocketHandler& handler)
{
  HandlerGeneration out;
  out.module = ModuleIdFromPath(handler.file_path);
  out.is_socket = true;
  out.spec.origin = "kernelgpt:" + out.module;
  struct_semantics_.clear();
  needed_structs_.clear();
  if (!profile().analyzes_sockets) {
    out.status = GenStatus::kFailed;
    return out;
  }

  const std::string res = "sock_" + out.module;
  out.spec.Add(ResourceDef{res, "fd"});

  llm::SocketCreateAnalysis create =
      backend_->AnalyzeSocketCreate(handler.create_fn, out.module);
  SyscallDef sock_call;
  sock_call.name = "socket";
  sock_call.variant = out.module;
  sock_call.params.push_back(
      {"domain", Type::Const(handler.family_expr), false});
  sock_call.params.push_back(
      {"type", create.type_macro.empty() ? Type::ConstValue(2, 32)
                                         : Type::Const(create.type_macro),
       false});
  sock_call.params.push_back(
      {"proto", Type::ConstValue(create.protocol, 32), false});
  sock_call.returns_resource = res;
  out.spec.Add(std::move(sock_call));

  size_t described = 0;

  // setsockopt / getsockopt chains.
  struct OptChain {
    const std::string* fn;
    const char* call_name;
    Dir default_dir;
  };
  for (const OptChain& chain :
       {OptChain{&handler.setsockopt_fn, "setsockopt", Dir::kIn},
        OptChain{&handler.getsockopt_fn, "getsockopt", Dir::kOut}}) {
    if (chain.fn->empty()) continue;
    llm::IdentifierAnalysis analysis = backend_->AnalyzeIdentifiers(
        *chain.fn, *chain.fn + "(sock, level, optname, optval, optlen)",
        out.module, 1);
    std::string level = analysis.guard_level_macro.empty()
                            ? "0"
                            : analysis.guard_level_macro;
    for (const llm::CommandFinding& opt : analysis.commands) {
      TypeResult type = DescribeArgType(opt.sub_function, out.module,
                                        &out.spec);
      SyscallDef call;
      call.name = chain.call_name;
      call.variant = out.module + "_" + opt.macro;
      call.params.push_back({"fd", Type::Resource(res), false});
      call.params.push_back({"level", Type::Const(level), false});
      call.params.push_back({"optname", Type::Const(opt.macro), false});
      Type payload = type.struct_name.empty()
                         ? Type::Int(32)
                         : Type::StructRef(type.struct_name);
      call.params.push_back(
          {"optval", Type::Ptr(chain.default_dir, payload), false});
      call.params.push_back({"optlen", Type::Len("optval", 32), false});
      Decl decl = Decl::Make(std::move(call));
      MaybeInjectFlaw(out.module, &decl);
      if (!out.spec.FindSyscall(decl.syscall.FullName())) {
        out.spec.decls.push_back(std::move(decl));
        ++described;
      }
    }
  }

  // Data-path operations.
  struct DataOp {
    const std::string* fn;
    const char* syscall;
  };
  for (const DataOp& op : {DataOp{&handler.bind_fn, "bind"},
                           DataOp{&handler.connect_fn, "connect"},
                           DataOp{&handler.sendmsg_fn, "sendto"},
                           DataOp{&handler.recvmsg_fn, "recvfrom"},
                           DataOp{&handler.listen_fn, "listen"},
                           DataOp{&handler.accept_fn, "accept"}}) {
    if (op.fn->empty()) continue;
    const std::string name(op.syscall);
    SyscallDef call;
    call.name = name;
    call.variant = out.module;
    call.params.push_back({"fd", Type::Resource(res), false});
    if (name == "bind" || name == "connect") {
      TypeResult type = DescribeArgType(*op.fn, out.module, &out.spec);
      Type addr = type.struct_name.empty()
                      ? Type::Array(Type::Int(8), 16)
                      : Type::StructRef(type.struct_name);
      call.params.push_back({"addr", Type::Ptr(Dir::kIn, addr), false});
      call.params.push_back({"addrlen", Type::Len("addr", 32), false});
    } else if (name == "sendto") {
      TypeResult type = DescribeArgType(*op.fn, out.module, &out.spec);
      call.params.push_back(
          {"buf", Type::Ptr(Dir::kIn, Type::Array(Type::Int(8))), false});
      call.params.push_back({"len", Type::Len("buf", 64), false});
      call.params.push_back({"flags", Type::ConstValue(0, 32), false});
      Type addr = type.struct_name.empty()
                      ? Type::Array(Type::Int(8), 16)
                      : Type::StructRef(type.struct_name);
      call.params.push_back({"addr", Type::Ptr(Dir::kIn, addr), false});
      call.params.push_back({"addrlen", Type::Len("addr", 32), false});
    } else if (name == "recvfrom") {
      call.params.push_back(
          {"buf", Type::Ptr(Dir::kOut, Type::Array(Type::Int(8))), false});
      call.params.push_back({"len", Type::Len("buf", 64), false});
    } else if (name == "listen") {
      call.params.push_back({"backlog", Type::ConstValue(0, 32), false});
    } else if (name == "accept") {
      call.params.push_back({"peer", Type::ConstValue(0, 64), false});
      call.params.push_back({"peerlen", Type::ConstValue(0, 64), false});
      call.returns_resource = res;
    }
    Decl decl = Decl::Make(std::move(call));
    MaybeInjectFlaw(out.module, &decl);
    if (!out.spec.FindSyscall(decl.syscall.FullName())) {
      out.spec.decls.push_back(std::move(decl));
      ++described;
    }
  }

  DescribeRecordedStructs(out.module, &out.spec);
  if (described == 0) {
    out.status = GenStatus::kFailed;
    return out;
  }
  ValidateAndRepair(&out);
  return out;
}

bool
KernelGpt::RepairRound(SpecFile* spec,
                       const std::vector<syzlang::ValidationError>& errors,
                       const std::string& module)
{
  (void)module;
  bool any = false;
  for (const syzlang::ValidationError& error : errors) {
    // Locate the errored declaration.
    for (Decl& decl : spec->decls) {
      std::string decl_name = decl.kind == DeclKind::kSyscall
                                  ? decl.syscall.FullName()
                                  : decl.Name();
      if (decl_name != error.decl) continue;
      switch (error.kind) {
        case syzlang::ErrorKind::kUnknownType:
          VisitDeclTypes(&decl, [&](Type* t) {
            if (t->kind == TypeKind::kStructRef &&
                t->ref_name == error.subject) {
              *t = Type::Int(32);
            }
          });
          any = true;
          break;
        case syzlang::ErrorKind::kUnknownConst: {
          // Strip the hallucinated suffix if the prefix resolves.
          std::string fixed = error.subject;
          auto us = fixed.rfind('_');
          if (us != std::string::npos) fixed = fixed.substr(0, us);
          if (!consts_->Has(fixed)) break;
          VisitDeclTypes(&decl, [&](Type* t) {
            if (t->kind == TypeKind::kConst &&
                t->const_name == error.subject) {
              t->const_name = fixed;
            }
          });
          // The variant name may carry the same hallucination.
          if (decl.kind == DeclKind::kSyscall &&
              decl.syscall.variant == error.subject) {
            decl.syscall.variant = fixed;
          }
          any = true;
          break;
        }
        case syzlang::ErrorKind::kBadLenTarget: {
          // Re-point the len to an existing sibling buffer field.
          if (decl.kind != DeclKind::kStruct) break;
          std::string target;
          for (const Field& f : decl.struct_def.fields) {
            if (f.type.kind == TypeKind::kArray) target = f.name;
          }
          if (target.empty()) break;
          for (Field& f : decl.struct_def.fields) {
            if (f.type.kind == TypeKind::kLen &&
                f.type.len_target == error.subject) {
              f.type.len_target = target;
              any = true;
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return any;
}

void
KernelGpt::ValidateAndRepair(HandlerGeneration* out)
{
  syzlang::ValidationResult v = syzlang::Validate(out->spec, *consts_);
  out->initial_errors = v.errors;
  if (v.ok()) {
    out->status = GenStatus::kValidDirect;
    return;
  }
  // Whether this handler's flaws are within the model's repair reach is
  // one deterministic per-handler draw (the paper's tail of handlers that
  // never validate despite repair attempts).
  // "v39" is a calibration constant of the simulated history: it selects
  // which concrete handlers fall into the unrepairable tail (see
  // DESIGN.md on deterministic error injection).
  if (!profile().Decide("repairable/v39|" + out->module,
                        profile().repair_success_rate)) {
    out->status = GenStatus::kFailed;
    out->remaining_errors = v.errors;
    return;
  }
  for (int round = 0; round < options_.repair_rounds; ++round) {
    RepairRound(&out->spec, v.errors, out->module);
    v = syzlang::Validate(out->spec, *consts_);
    if (v.ok()) {
      out->status = GenStatus::kRepaired;
      return;
    }
  }
  out->status = GenStatus::kFailed;
  out->remaining_errors = v.errors;
}

}  // namespace kernelgpt::spec_gen
