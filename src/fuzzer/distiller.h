/// \file
/// Between-campaign corpus distillation — the syzkaller corpus-minimization
/// analog for the virtual kernel. Merged per-shard corpora grow without
/// bound across campaign rounds; the distiller replays them through
/// Executor::RunBatch to compute per-program coverage signatures, greedily
/// selects a minimal subset that reproduces the merged coverage exactly,
/// and deduplicates crashes into one minimized reproducer per title. The
/// distilled set re-seeds the next round's shards, so corpora stop growing
/// monotonically and long-running campaign-of-campaigns loops stay cheap.
///
/// Everything here is deterministic: replay is RNG-free, candidate order
/// is a pure function of the input, and ties break by input position —
/// distilling the same corpus twice yields byte-identical results.

#ifndef KERNELGPT_FUZZER_DISTILLER_H_
#define KERNELGPT_FUZZER_DISTILLER_H_

#include <map>
#include <string>
#include <vector>

#include "fuzzer/orchestrator.h"

namespace kernelgpt::fuzzer {

/// Distillation parameters. Structurally identical programs (by
/// HashProg) are always dropped before replay, and one reproducer per
/// crash title is always shrunk via MinimizeCrash.
struct DistillOptions {
  /// Builds the private replay kernel (null: a strict Kernel).
  vkernel::ModelFactory model_factory;
};

/// Observability counters for one distillation pass.
struct DistillStats {
  size_t input_programs = 0;      ///< Programs in the merged corpus.
  size_t exact_duplicates = 0;    ///< Dropped before replay (HashProg).
  size_t replayed = 0;            ///< Programs executed for signatures.
  size_t selected = 0;            ///< Programs in the distilled corpus.
  size_t crashing_inputs = 0;     ///< Replayed programs that crashed.
  size_t minimize_executions = 0; ///< Executions spent shrinking repros.
};

/// Outcome of one distillation pass.
struct DistillResult {
  /// Minimal covering subset, in greedy selection order (largest
  /// signature first, ties by input position).
  std::vector<Prog> corpus;
  /// Union coverage of the merged input == union coverage of `corpus`
  /// (the distiller's invariant; DistillerTest proves it).
  vkernel::Coverage coverage;
  /// One minimized reproducer per crash title seen during replay.
  std::map<std::string, Prog> crash_reproducers;
  DistillStats stats;
};

/// Runs distillation passes over merged corpora for one spec library.
class Distiller {
 public:
  Distiller(const SpecLibrary* lib, Orchestrator::BootFn boot,
            DistillOptions options = {});

  /// Distills one merged corpus (e.g. OrchestratorResult::corpus) on a
  /// private freshly booted kernel. Deterministic for a fixed input.
  DistillResult Distill(const std::vector<Prog>& merged) const;

  const DistillOptions& options() const { return options_; }

 private:
  const SpecLibrary* lib_;
  Orchestrator::BootFn boot_;
  DistillOptions options_;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_DISTILLER_H_
