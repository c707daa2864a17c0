/// \file
/// Program execution against a virtual kernel: dispatches each call by
/// the opcode its syscall resolved to at Finalize() time straight to the
/// kernel's typed syscalls, threads resource results between calls, and
/// collects coverage and crash outcomes. Argument bytes are passed to the
/// kernel as zero-copy views. Every program starts from the kernel's one
/// per-program reset (Kernel::BeginProgram). A personality is the
/// kernel's KernelPolicy, so every personality runs through this one
/// path.

#ifndef KERNELGPT_FUZZER_EXECUTOR_H_
#define KERNELGPT_FUZZER_EXECUTOR_H_

#include <string>
#include <vector>

#include "fuzzer/prog.h"
#include "util/span.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {

/// Outcome of one program execution.
struct ExecResult {
  bool crashed = false;
  std::string crash_title;
  size_t calls_executed = 0;
  size_t new_blocks = 0;  ///< Blocks added to the accumulated coverage.
};

/// Per-call observable record of one execution, for the differential
/// oracle: the full result vector plus the fd-table shape at end of
/// program (captured before EndProgram tears the table down). Slots of
/// calls never executed (after a crash) keep the unset sentinel.
struct ExecTrace {
  std::vector<vkernel::SyscallResult> results;
  vkernel::FdShape end_shape;
  /// Normalized per-module/socket state (Kernel::ModuleStateShape)
  /// at end of program, compared by the differential oracle after fd
  /// shapes.
  std::string module_state;
};

/// Executes programs on one kernel, accumulating coverage. `lib` must be
/// finalized: before SpecLibrary::Finalize() every call resolves to
/// SyscallOp::kUnknown and fails with ENOSYS.
class Executor {
 public:
  Executor(vkernel::Kernel* kernel, const SpecLibrary* lib);

  /// Runs one program from a fresh kernel program state. Coverage is
  /// merged into `total`; the result reports crash state and new coverage.
  ExecResult Run(const Prog& prog, vkernel::Coverage* total) {
    return Run(prog, total, nullptr);
  }

  /// Run variant that additionally records the per-call result vector
  /// and end-of-program fd shape into `trace` (may be null).
  ExecResult Run(const Prog& prog, vkernel::Coverage* total, ExecTrace* trace);

  /// Runs each program through Run() in order, so results are identical
  /// to running them individually.
  std::vector<ExecResult> RunBatch(util::Span<const Prog> progs,
                                   vkernel::Coverage* total);

  /// RunBatch variant that additionally records each program's individual
  /// coverage signature in `signatures` (resized to progs.size()). The
  /// distiller replays merged corpora through this to feed its greedy
  /// covering-subset selection; `total` still accumulates the union and
  /// each ExecResult::new_blocks is relative to `total` as usual.
  std::vector<ExecResult> RunBatch(util::Span<const Prog> progs,
                                   vkernel::Coverage* total,
                                   std::vector<vkernel::Coverage>* signatures);

 private:
  vkernel::SyscallResult Dispatch(SyscallOp op, const Call& call,
                                  const std::vector<vkernel::SyscallResult>& results,
                                  vkernel::ExecContext& ctx);

  vkernel::Kernel* kernel_;
  const SpecLibrary* lib_;
  /// Per-call results, reused across runs.
  std::vector<vkernel::SyscallResult> results_;
  vkernel::Buffer out_scratch_;   ///< Kernel-written buffer, reused.
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_EXECUTOR_H_
