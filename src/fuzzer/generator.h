/// \file
/// Specification-guided program generation: chooses syscalls, satisfies
/// their resource dependencies by inserting producer calls, and builds
/// semantically valid arguments (honoring const values, ranges, flag
/// sets, string literals, and len relations) by executing the generation
/// plans SpecLibrary::Finalize() compiled for each type.

#ifndef KERNELGPT_FUZZER_GENERATOR_H_
#define KERNELGPT_FUZZER_GENERATOR_H_

#include "fuzzer/prog.h"
#include "util/rng.h"

namespace kernelgpt::fuzzer {

/// Program generator bound to one finalized spec library. It keeps no
/// state of its own beyond the library and the RNG it draws from.
class Generator {
 public:
  Generator(const SpecLibrary* lib, util::Rng* rng);

  /// Generates a program with up to `max_len` calls (resource producer
  /// chains may push slightly beyond).
  Prog Generate(int max_len);

  /// Builds one argument for a parameter type; resource params get
  /// `ref_call` = -1 and must be fixed up by the caller. Here and in
  /// BuildPayload() and ScalarFor(), `type` is owned by the library or
  /// has cache_slot == -1 (see SpecLibrary::PlanOf()).
  Arg BuildArg(const syzlang::Type& type);

  /// Builds the byte payload for a pointee type (struct/array/string).
  std::vector<uint8_t> BuildPayload(const syzlang::Type& type);

  /// Appends `syscall_index` to the program, inserting any producer calls
  /// its resource parameters need. Returns the index of the appended call.
  int AppendCall(Prog* prog, size_t syscall_index, int depth = 0);

  /// Resolves len[...] parameters after all sibling args exist.
  void LinkLens(const syzlang::SyscallDef& def, Call* call);

  /// Random scalar for an int type, biased toward special values.
  uint64_t ScalarFor(const syzlang::Type& type);

 private:
  /// Runs `fn(plans, plan)` on `type`'s plan: the library's when it owns
  /// the type, else one compiled for this call only and never cached.
  template <typename Fn>
  auto WithPlan(const syzlang::Type& type, Fn fn) const;

  uint64_t Draw(const GenPlans& plans, uint32_t scalar);
  void Emit(const GenPlans& plans, uint32_t node, std::vector<uint8_t>* out);
  void EmitStruct(const GenPlans& plans, const PayloadNode& node,
                  std::vector<uint8_t>* out);
  Arg Build(const GenPlans& plans, const TypePlan& plan);

  const SpecLibrary* lib_;
  util::Rng* rng_;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_GENERATOR_H_
