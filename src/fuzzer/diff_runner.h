/// \file
/// Differential execution oracle: runs every program of a corpus on two
/// kernel personalities (baseline vs. subject, e.g. Kernel{Strict()} vs.
/// Kernel{Permissive()}) and reports normalized disagreements as findings
/// — an oracle beyond crashes. Descriptor values are layout-dependent by
/// design (kernels own their fd spaces), so fd-producing calls compare
/// (success, errno) and end-of-program fd-table *shapes* are compared
/// instead of raw descriptor numbers.
///
/// Everything is deterministic: programs are evaluated independently on
/// fresh per-program state, workers write per-index slots, and dedup +
/// minimization run serially in corpus order — the report is
/// byte-identical for any worker count.

#ifndef KERNELGPT_FUZZER_DIFF_RUNNER_H_
#define KERNELGPT_FUZZER_DIFF_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "fuzzer/executor.h"
#include "util/span.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {

/// Differential-run parameters.
struct DiffOptions {
  /// Model factories; null selects the built-in pair (strict baseline,
  /// permissive subject).
  vkernel::ModelFactory baseline;
  vkernel::ModelFactory subject;

  /// Boots each freshly built model (register drivers/socket families).
  /// Called once per model instance, possibly concurrently; must only
  /// read shared state.
  std::function<void(vkernel::KernelModel*)> boot;

  /// Worker threads evaluating programs; the report is byte-identical
  /// for any value.
  int num_workers = 1;

  /// Shrink one reproducer per divergence signature via the minimizer
  /// (property: the models still disagree with the same signature).
  bool minimize = true;
};

/// One deduplicated divergence finding.
struct Divergence {
  enum class Kind {
    kResult,       ///< A call's normalized result differs.
    kCrash,        ///< Crash state/title/timing differs.
    kFdShape,      ///< End-of-program fd-table shapes differ.
    kModuleState,  ///< Normalized per-module/socket state differs.
  };

  Kind kind = Kind::kResult;
  size_t prog_index = 0;  ///< First corpus program exhibiting it.
  size_t call_index = 0;  ///< Diverging call (kResult only).
  std::string syscall;    ///< Syscall name at the diverging call.
  /// Dedup key: kind + syscall + normalized result pair. Stable under
  /// minimization (excludes program content and call position).
  std::string signature;
  std::string detail;     ///< Human-readable normalized outcome pair.
  size_t occurrences = 0; ///< Corpus programs with this signature.
  Prog repro;             ///< Minimized reproducer (input if not shrunk).
  std::string repro_text; ///< Rendered repro (FormatProg).
  bool minimized = false;
  size_t minimize_executions = 0;
};

/// Outcome of one differential run.
struct DiffReport {
  std::string baseline_name;
  std::string subject_name;
  size_t programs = 0;
  size_t diverging_programs = 0;
  /// Deduplicated by signature, in first-seen corpus order.
  std::vector<Divergence> divergences;

  size_t UniqueDivergenceCount() const { return divergences.size(); }

  /// Canonical text form; byte-compared by the determinism suite.
  std::string Render() const;
};

/// Runs differential campaigns over one spec library.
class DiffRunner {
 public:
  DiffRunner(const SpecLibrary* lib, DiffOptions options);

  /// Evaluates every program of `corpus` on both models. Deterministic
  /// for a fixed (corpus, model pair) regardless of num_workers.
  DiffReport Run(util::Span<const Prog> corpus) const;

  const DiffOptions& options() const { return options_; }

 private:
  const SpecLibrary* lib_;
  DiffOptions options_;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_DIFF_RUNNER_H_
