#include "fuzzer/distiller.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "fuzzer/minimizer.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {

Distiller::Distiller(const SpecLibrary* lib, Orchestrator::BootFn boot,
                     DistillOptions options)
    : lib_(lib), boot_(std::move(boot)), options_(options)
{
}

DistillResult
Distiller::Distill(const std::vector<Prog>& merged) const
{
  DistillResult result;
  result.stats.input_programs = merged.size();
  if (lib_->syscalls().empty()) return result;

  // -- 1. Structural dedup (order-preserving) ------------------------------
  // Shards rebroadcast interesting seeds to every peer, so merged corpora
  // are full of byte-identical copies; dropping them here keeps the replay
  // bill proportional to distinct programs.
  std::vector<Prog> candidates;
  candidates.reserve(merged.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(merged.size());
  for (const Prog& prog : merged) {
    if (prog.empty()) continue;
    if (!seen.insert(HashProg(prog)).second) {
      ++result.stats.exact_duplicates;
      continue;
    }
    candidates.push_back(prog);
  }

  // -- 2. Replay for per-program coverage signatures -----------------------
  std::unique_ptr<vkernel::KernelModel> kernel =
      options_.model_factory ? options_.model_factory()
                             : vkernel::MakeStrictModel();
  if (boot_) boot_(kernel.get());
  Executor executor(kernel.get(), lib_);

  std::vector<vkernel::Coverage> signatures;
  const std::vector<ExecResult> execs =
      executor.RunBatch(candidates, &result.coverage, &signatures);
  result.stats.replayed = candidates.size();

  // -- 3. Greedy minimal covering subset -----------------------------------
  // Syzkaller-style one-pass greedy set cover: visit candidates from the
  // largest signature down (ties by input position) and keep every program
  // that still contributes an uncovered block. Any block of the merged
  // coverage lives in some candidate's signature, so when the pass ends
  // the selected union equals the merged union exactly.
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return signatures[a].Count() > signatures[b].Count();
  });

  vkernel::Coverage selected;
  for (size_t i : order) {
    if (signatures[i].CountNotIn(selected) == 0) continue;
    selected.Merge(signatures[i]);
    result.corpus.push_back(candidates[i]);
    if (selected.Count() == result.coverage.Count()) break;
  }
  result.stats.selected = result.corpus.size();

  // -- 4. Crash dedup + reproducer minimization ----------------------------
  // First crashing program per title (input order — deterministic), then
  // shrink it. The minimizer reuses this pass's executor and kernel.
  std::map<std::string, const Prog*> first_crash;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!execs[i].crashed) continue;
    ++result.stats.crashing_inputs;
    first_crash.emplace(execs[i].crash_title, &candidates[i]);
  }
  for (const auto& [title, prog] : first_crash) {
    MinimizeResult minimized = MinimizeCrash(&executor, *prog, title);
    result.stats.minimize_executions += minimized.executions;
    result.crash_reproducers[title] =
        minimized.reproduced ? std::move(minimized.prog) : *prog;
  }
  return result;
}

}  // namespace kernelgpt::fuzzer
