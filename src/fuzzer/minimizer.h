/// \file
/// Reproducer minimization (the syz-repro step of the Syzkaller
/// workflow): shrinks a program to a minimal sequence that still holds a
/// caller-defined property, by call removal and argument simplification.
/// Deterministic — the virtual kernel replays programs exactly. The
/// classic client is crash minimization (property: "still produces this
/// crash title"); the differential oracle minimizes divergences with the
/// property "the two models still disagree with this signature".

#ifndef KERNELGPT_FUZZER_MINIMIZER_H_
#define KERNELGPT_FUZZER_MINIMIZER_H_

#include <functional>
#include <string>

#include "fuzzer/executor.h"

namespace kernelgpt::fuzzer {

/// Outcome of a minimization run.
struct MinimizeResult {
  Prog prog;              ///< The minimized reproducer.
  size_t executions = 0;  ///< Candidate evaluations while shrinking.
  bool reproduced = false;  ///< False if the input never held the property.
};

/// The property a candidate program must keep for minimization to accept
/// it. Evaluations must be deterministic and side-effect-free on the
/// caller's state (each evaluation replays the candidate from a fresh
/// program state).
using MinimizeProperty = std::function<bool(const Prog&)>;

/// Shrinks `input` while `property` holds. Three passes: (1) drop calls
/// one at a time to fixpoint (fixing resource references), (2) zero
/// scalar arguments the property does not depend on, (3) zero buffer
/// bytes chunk-wise. The input program is not modified. If the property
/// does not hold for `input` itself, returns it unshrunk with
/// `reproduced == false`.
MinimizeResult MinimizeWhile(const Prog& input,
                             const MinimizeProperty& property);

/// Shrinks `crashing` while it keeps producing `crash_title` on `kernel`.
MinimizeResult MinimizeCrash(vkernel::KernelModel* kernel,
                             const SpecLibrary& lib, const Prog& crashing,
                             const std::string& crash_title);

/// Same, reusing a caller-owned executor — the distiller minimizes one
/// reproducer per crash title and would otherwise rebuild an executor
/// (and its scratch buffers) for every title.
MinimizeResult MinimizeCrash(Executor* executor, const Prog& crashing,
                             const std::string& crash_title);

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_MINIMIZER_H_
