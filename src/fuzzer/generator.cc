#include "fuzzer/generator.h"

namespace kernelgpt::fuzzer {

using syzlang::Dir;
using syzlang::SyscallDef;
using syzlang::Type;

namespace {

/// Stores the low min(width, 8) bytes of `value` little-endian at
/// `(*out)[at]`; the caller has zeroed every byte past the eighth.
inline void
StoreLe(std::vector<uint8_t>* out, size_t at, uint64_t value, uint64_t width)
{
  const uint64_t n = width < 8 ? width : 8;
  for (uint64_t i = 0; i < n; ++i) {
    (*out)[at + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

}  // namespace

Generator::Generator(const SpecLibrary* lib, util::Rng* rng)
    : lib_(lib), rng_(rng) {}

template <typename Fn>
auto
Generator::WithPlan(const Type& type, Fn fn) const
{
  if (const TypePlan* plan = lib_->PlanOf(type)) {
    return fn(lib_->plans(), *plan);
  }
  GenPlans scratch;
  const uint32_t index = lib_->CompileType(type, &scratch);
  return fn(scratch, scratch.types[index]);
}

uint64_t
Generator::Draw(const GenPlans& plans, uint32_t scalar)
{
  const ScalarPlan& s = plans.scalars[scalar];
  switch (s.op) {
    case ScalarPlan::Op::kConst:
      return s.value;
    case ScalarPlan::Op::kFlags: {
      uint64_t value = 0;
      for (uint32_t i = s.begin; i < s.end; ++i) {
        if (rng_->Chance(0.4)) value |= plans.flag_values[i];
      }
      return value & s.mask;
    }
    case ScalarPlan::Op::kRange:
      // Mostly in-range (the point of semantic specs), occasionally a
      // boundary probe.
      if (rng_->Chance(0.9)) {
        return static_cast<uint64_t>(rng_->Range(s.lo, s.hi)) & s.mask;
      }
      return rng_->Chance(0.5) ? static_cast<uint64_t>(s.lo) & s.mask
                               : static_cast<uint64_t>(s.hi) & s.mask;
    case ScalarPlan::Op::kSpecial:
      // Special-value biased generation (syzkaller-style).
      switch (rng_->Below(6)) {
        case 0: return 0;
        case 1: return 1;
        case 2: return s.mask;
        case 3: return rng_->Below(64);
        case 4: return rng_->Next() & s.mask & 0xffff;
        default: return rng_->Next() & s.mask;
      }
    case ScalarPlan::Op::kRaw:
      break;
  }
  return rng_->Next() & s.mask;
}

uint64_t
Generator::ScalarFor(const Type& type)
{
  return WithPlan(type, [this](const GenPlans& plans, const TypePlan& plan) {
    return Draw(plans, plan.scalar);
  });
}

void
Generator::Emit(const GenPlans& plans, uint32_t index,
                std::vector<uint8_t>* out)
{
  const PayloadNode& node = plans.nodes[index];
  switch (node.op) {
    case PayloadNode::Op::kScalar: {
      const uint64_t value = Draw(plans, node.scalar);
      const uint64_t n = node.width < 8 ? node.width : 8;
      for (uint64_t i = 0; i < n; ++i) {
        out->push_back(static_cast<uint8_t>(value >> (8 * i)));
      }
      if (node.width > n) out->resize(out->size() + (node.width - n));
      return;
    }
    case PayloadNode::Op::kZeros:
      out->resize(out->size() + node.width);
      return;
    case PayloadNode::Op::kLiteral:
      out->insert(out->end(), plans.bytes.begin() + node.begin,
                  plans.bytes.begin() + node.end);
      return;
    case PayloadNode::Op::kString: {
      const uint64_t n = rng_->Below(16);
      for (uint64_t i = 0; i < n; ++i) {
        out->push_back(static_cast<uint8_t>('a' + rng_->Below(26)));
      }
      out->push_back(0);
      return;
    }
    case PayloadNode::Op::kArray: {
      const uint64_t count = node.count > 0 ? node.count : rng_->Below(17);
      for (uint64_t i = 0; i < count; ++i) Emit(plans, node.child, out);
      return;
    }
    case PayloadNode::Op::kUnion: {
      // Pick one arm and pad or cut it to the union size.
      const size_t start = out->size();
      if (node.begin != node.end) {
        const UnionArm& arm =
            plans.arms[node.begin + rng_->Below(node.end - node.begin)];
        Emit(plans, arm.node, out);
        if (out->size() == start) {
          const uint64_t value = Draw(plans, arm.scalar);
          out->resize(start + arm.width);
          StoreLe(out, start, value, arm.width);
        }
      }
      out->resize(start + node.width);
      return;
    }
    case PayloadNode::Op::kStruct:
      EmitStruct(plans, node, out);
      return;
  }
}

void
Generator::EmitStruct(const GenPlans& plans, const PayloadNode& node,
                      std::vector<uint8_t>* out)
{
  // Registers hold len slot offsets and len target payload sizes.
  constexpr uint32_t kInlineRegs = 8;
  uint64_t inline_regs[kInlineRegs] = {};
  std::vector<uint64_t> heap_regs;
  uint64_t* regs = inline_regs;
  if (node.regs > kInlineRegs) {
    heap_regs.resize(node.regs);
    regs = heap_regs.data();
  }
  const size_t start = out->size();
  for (uint32_t f = node.begin; f < node.end; ++f) {
    const FieldStep& step = plans.fields[f];
    const size_t at = out->size();
    Emit(plans, step.node, out);
    if (step.reg != FieldStep::kNoReg) {
      regs[step.reg] = step.is_len_slot ? at : out->size() - at;
    }
    // Fixed-size fields keep their declared size.
    if (step.declared > 0) out->resize(at + step.declared);
  }
  for (uint32_t x = node.aux_begin; x < node.aux_end; ++x) {
    const LenFixup& fix = plans.fixups[x];
    const uint64_t value = fix.src == LenFixup::kParent
                               ? out->size() - start
                               : regs[fix.src] / fix.divisor;
    StoreLe(out, regs[fix.slot_reg], value, fix.width);
  }
}

std::vector<uint8_t>
Generator::BuildPayload(const Type& type)
{
  return WithPlan(type, [this](const GenPlans& plans, const TypePlan& plan) {
    std::vector<uint8_t> out;
    Emit(plans, plan.payload, &out);
    return out;
  });
}

Arg
Generator::Build(const GenPlans& plans, const TypePlan& plan)
{
  Arg arg;
  switch (plan.arg) {
    case TypePlan::Arg::kResourceRef:
      arg.kind = Arg::Kind::kResourceRef;
      return arg;
    case TypePlan::Arg::kBuffer:
      arg.kind = Arg::Kind::kBuffer;
      arg.dir = plan.dir;
      arg.bytes.reserve(plan.pointee_size);
      Emit(plans, plan.pointee, &arg.bytes);
      if (plan.dir == Dir::kOut) {
        // Out buffers are kernel-filled; provide capacity only.
        arg.bytes.assign(plan.pointee_size ? plan.pointee_size : 64, 0);
      }
      return arg;
    case TypePlan::Arg::kFilename: {
      static constexpr char kPath[] = "/dev/null";
      arg.kind = Arg::Kind::kBuffer;
      arg.bytes.assign(kPath, kPath + sizeof(kPath));
      return arg;
    }
    case TypePlan::Arg::kLen:
      arg.kind = Arg::Kind::kScalar;
      arg.scalar = 0;  // Linked by LinkLens.
      return arg;
    case TypePlan::Arg::kScalar:
      break;
  }
  arg.kind = Arg::Kind::kScalar;
  arg.scalar = Draw(plans, plan.scalar);
  return arg;
}

Arg
Generator::BuildArg(const Type& type)
{
  return WithPlan(type, [this](const GenPlans& plans, const TypePlan& plan) {
    return Build(plans, plan);
  });
}

void
Generator::LinkLens(const SyscallDef& def, Call* call)
{
  (void)def;
  // (len param, target param) pairs are precomputed by Finalize().
  for (const auto& [len_idx, target_idx] :
       lib_->LenLinksOf(call->syscall_index)) {
    const size_t i = static_cast<size_t>(len_idx);
    const size_t j = static_cast<size_t>(target_idx);
    if (i >= call->args.size() || j >= call->args.size()) continue;
    if (call->args[i].len_of_param == kBrokenLenLink) continue;
    call->args[i].len_of_param = static_cast<int>(j);
    call->args[i].scalar = call->args[j].bytes.size();
  }
}

int
Generator::AppendCall(Prog* prog, size_t syscall_index, int depth)
{
  const GenPlans& plans = lib_->plans();
  if (syscall_index >= plans.calls.size()) return -1;
  const CallPlan& plan = plans.calls[syscall_index];
  Call call;
  call.syscall_index = syscall_index;
  call.args.reserve(plan.params);

  for (uint32_t p = 0; p < plan.params; ++p) {
    const TypePlan& param = plans.types[plan.first_param + p];
    Arg arg = Build(plans, param);
    if (arg.kind == Arg::Kind::kResourceRef) {
      // Reuse the most recent producer already in the program.
      for (int c = static_cast<int>(prog->calls.size()) - 1; c >= 0; --c) {
        const size_t prev = prog->calls[static_cast<size_t>(c)].syscall_index;
        if (plans.calls[prev].returns == param.resource) {
          arg.ref_call = c;
          break;
        }
      }
      if (arg.ref_call < 0 && depth < 4) {
        // Prefer producers that do not themselves consume this resource
        // (socket/openat over accept); pooled by Finalize().
        const size_t r = static_cast<size_t>(param.resource);
        const uint32_t begin = plans.pools[r];
        const uint32_t size = plans.pools[r + 1] - begin;
        if (size > 0) {
          const size_t producer = plans.producers[begin + rng_->Below(size)];
          arg.ref_call = AppendCall(prog, producer, depth + 1);
        }
      }
    }
    call.args.push_back(std::move(arg));
  }
  LinkLens(lib_->syscalls()[syscall_index], &call);
  prog->calls.push_back(std::move(call));
  return static_cast<int>(prog->calls.size()) - 1;
}

Prog
Generator::Generate(int max_len)
{
  Prog prog;
  const size_t calls = lib_->plans().calls.size();
  if (calls == 0) return prog;
  int want = 1 + static_cast<int>(rng_->Below(static_cast<uint64_t>(
                 max_len > 0 ? max_len : 1)));
  prog.calls.reserve(static_cast<size_t>(want));
  while (static_cast<int>(prog.calls.size()) < want) {
    size_t idx = rng_->Below(calls);
    AppendCall(&prog, idx);
    if (prog.calls.size() > 3 * static_cast<size_t>(want)) break;
  }
  return prog;
}

}  // namespace kernelgpt::fuzzer
