#include "fuzzer/mutator.h"

namespace kernelgpt::fuzzer {

using syzlang::TypeKind;

Mutator::Mutator(const SpecLibrary* lib, Generator* generator, util::Rng* rng)
    : lib_(lib), generator_(generator), rng_(rng) {}

void
Mutator::Relink(Prog* prog)
{
  for (Call& call : prog->calls) {
    if (call.syscall_index >= lib_->syscalls().size()) continue;
    generator_->LinkLens(lib_->syscalls()[call.syscall_index], &call);
  }
}

void
Mutator::MutateScalar(Prog* prog)
{
  if (prog->empty()) return;
  size_t ci = rng_->Below(prog->calls.size());
  Call& call = prog->calls[ci];
  if (call.args.empty()) return;
  size_t ai = rng_->Below(call.args.size());
  Arg& arg = call.args[ai];
  if (arg.kind != Arg::Kind::kScalar) return;
  const auto& def = lib_->syscalls()[call.syscall_index];
  if (ai < def.params.size()) {
    const syzlang::Type& type = def.params[ai].type;
    if (type.kind == TypeKind::kLen || type.kind == TypeKind::kBytesize) {
      // Occasionally corrupt a length (drivers must survive bad lengths).
      arg.scalar = rng_->Chance(0.5) ? rng_->Next() : arg.scalar * 2 + 1;
      arg.len_of_param = kBrokenLenLink;  // Keep it corrupted on relink.
      return;
    }
    arg.scalar = generator_->ScalarFor(type);
    return;
  }
  arg.scalar = rng_->Next();
}

void
Mutator::MutateBuffer(Prog* prog)
{
  if (prog->empty()) return;
  size_t ci = rng_->Below(prog->calls.size());
  Call& call = prog->calls[ci];
  for (size_t ai = 0; ai < call.args.size(); ++ai) {
    Arg& arg = call.args[ai];
    if (arg.kind != Arg::Kind::kBuffer) continue;
    const auto& def = lib_->syscalls()[call.syscall_index];
    if (rng_->Chance(0.5) && ai < def.params.size()) {
      // Regenerate from the type (fresh semantic values).
      Arg fresh = generator_->BuildArg(def.params[ai].type);
      if (fresh.kind == Arg::Kind::kBuffer) arg.bytes = std::move(fresh.bytes);
    } else if (!arg.bytes.empty()) {
      // Corrupt random bytes.
      int flips = 1 + static_cast<int>(rng_->Below(4));
      for (int i = 0; i < flips; ++i) {
        size_t pos = rng_->Below(arg.bytes.size());
        arg.bytes[pos] = static_cast<uint8_t>(rng_->Next());
      }
    }
    return;
  }
}

void
Mutator::InsertCall(Prog* prog)
{
  if (lib_->syscalls().empty()) return;
  size_t idx = rng_->Below(lib_->syscalls().size());
  generator_->AppendCall(prog, idx);
}

void
Mutator::RemoveCall(Prog* prog)
{
  if (prog->calls.size() <= 1) return;
  int removed = static_cast<int>(rng_->Below(prog->calls.size()));
  prog->calls.erase(prog->calls.begin() + removed);
  for (Call& call : prog->calls) {
    for (Arg& arg : call.args) {
      if (arg.kind != Arg::Kind::kResourceRef) continue;
      if (arg.ref_call == removed) arg.ref_call = -1;
      if (arg.ref_call > removed) --arg.ref_call;
    }
  }
}

void
Mutator::DuplicateCall(Prog* prog)
{
  if (prog->empty() || prog->calls.size() > 16) return;
  size_t ci = rng_->Below(prog->calls.size());
  Call copy = prog->calls[ci];
  prog->calls.push_back(std::move(copy));
}

void
Mutator::Mutate(Prog* prog)
{
  int ops = 1 + static_cast<int>(rng_->Below(3));
  for (int i = 0; i < ops; ++i) {
    switch (rng_->Below(6)) {
      case 0:
      case 1: MutateScalar(prog); break;
      case 2: MutateBuffer(prog); break;
      case 3: InsertCall(prog); break;
      case 4: RemoveCall(prog); break;
      default: DuplicateCall(prog); break;
    }
  }
  Relink(prog);
}

}  // namespace kernelgpt::fuzzer
