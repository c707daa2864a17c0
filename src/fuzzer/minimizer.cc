#include "fuzzer/minimizer.h"

namespace kernelgpt::fuzzer {

namespace {

/// Removes call `index`, rewiring resource references.
Prog
WithoutCall(const Prog& prog, size_t index)
{
  Prog out = prog;
  out.calls.erase(out.calls.begin() + static_cast<long>(index));
  for (Call& call : out.calls) {
    for (Arg& arg : call.args) {
      if (arg.kind != Arg::Kind::kResourceRef) continue;
      if (arg.ref_call == static_cast<int>(index)) arg.ref_call = -1;
      if (arg.ref_call > static_cast<int>(index)) --arg.ref_call;
    }
  }
  return out;
}

}  // namespace

MinimizeResult
MinimizeWhile(const Prog& input, const MinimizeProperty& property)
{
  MinimizeResult result;

  auto holds = [&](const Prog& candidate) {
    ++result.executions;
    return property(candidate);
  };

  if (input.empty()) return result;  // Nothing to replay or shrink.

  if (!holds(input)) {
    result.prog = input;
    return result;
  }
  result.reproduced = true;
  result.prog = input;

  // Pass 1: drop calls until no single removal keeps the property.
  bool shrunk = true;
  while (shrunk && result.prog.calls.size() > 1) {
    shrunk = false;
    for (size_t i = result.prog.calls.size(); i-- > 0;) {
      Prog candidate = WithoutCall(result.prog, i);
      if (candidate.empty()) continue;
      if (holds(candidate)) {
        result.prog = std::move(candidate);
        shrunk = true;
        break;  // Restart the scan on the smaller program.
      }
    }
  }

  // Pass 2: zero scalar arguments that the property does not depend on.
  for (size_t c = 0; c < result.prog.calls.size(); ++c) {
    for (size_t a = 0; a < result.prog.calls[c].args.size(); ++a) {
      Arg& arg = result.prog.calls[c].args[a];
      if (arg.kind != Arg::Kind::kScalar || arg.scalar == 0) continue;
      uint64_t saved = arg.scalar;
      arg.scalar = 0;
      if (!holds(result.prog)) arg.scalar = saved;
    }
  }

  // Pass 3: zero buffer bytes region-wise (keeps property-relevant
  // fields).
  for (Call& call : result.prog.calls) {
    for (Arg& arg : call.args) {
      if (arg.kind != Arg::Kind::kBuffer || arg.bytes.empty()) continue;
      const size_t chunk = 8;
      for (size_t offset = 0; offset < arg.bytes.size(); offset += chunk) {
        std::vector<uint8_t> saved(
            arg.bytes.begin() + static_cast<long>(offset),
            arg.bytes.begin() +
                static_cast<long>(std::min(offset + chunk, arg.bytes.size())));
        bool all_zero = true;
        for (uint8_t b : saved) all_zero = all_zero && b == 0;
        if (all_zero) continue;
        for (size_t i = 0; i < saved.size(); ++i) arg.bytes[offset + i] = 0;
        if (!holds(result.prog)) {
          for (size_t i = 0; i < saved.size(); ++i) {
            arg.bytes[offset + i] = saved[i];
          }
        }
      }
    }
  }
  return result;
}

MinimizeResult
MinimizeCrash(vkernel::KernelModel* kernel, const SpecLibrary& lib,
              const Prog& crashing, const std::string& crash_title)
{
  Executor executor(kernel, &lib);
  return MinimizeCrash(&executor, crashing, crash_title);
}

MinimizeResult
MinimizeCrash(Executor* executor, const Prog& crashing,
              const std::string& crash_title)
{
  return MinimizeWhile(crashing, [&](const Prog& candidate) {
    ExecResult exec = executor->Run(candidate, nullptr);
    return exec.crashed && exec.crash_title == crash_title;
  });
}

}  // namespace kernelgpt::fuzzer
