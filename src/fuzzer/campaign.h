/// \file
/// The coverage-guided fuzzing loop each orchestrator shard runs: keeps a
/// seed corpus, alternates generation and mutation, and aggregates
/// coverage and deduplicated crashes — the measurement harness behind
/// Tables 3, 5, and 6. Every program runs from the kernel's per-program
/// reset (Executor::Run). A campaign is started through the orchestrator
/// (RunShardedCampaign) or a Session; both run this loop.

#ifndef KERNELGPT_FUZZER_CAMPAIGN_H_
#define KERNELGPT_FUZZER_CAMPAIGN_H_

#include <map>
#include <string>

#include "fuzzer/executor.h"
#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"

namespace kernelgpt::fuzzer {

/// Campaign parameters. `program_budget` replaces the paper's wall-clock
/// fuzzing hours (our substrate executes in microseconds, not on a VM).
struct CampaignOptions {
  uint64_t seed = 1;
  int program_budget = 20000;
  int max_prog_len = 6;
  /// Probability of mutating a corpus seed instead of generating fresh.
  double mutate_prob = 0.7;
  /// Seed-corpus capacity.
  size_t corpus_cap = 256;
  /// Initial seed programs (typically a distilled corpus from a previous
  /// campaign round). Before the fuzzing loop starts they are replayed
  /// once (no RNG consumed, not counted against program_budget)
  /// to prime coverage, and admitted to the corpus up to corpus_cap in
  /// order. Empty (the default) is bit-for-bit the legacy behavior.
  std::vector<Prog> seed_corpus;
};

/// Mutable state of one orchestrator shard's campaign loop.
struct CampaignState {
  Generator* generator = nullptr;
  Mutator* mutator = nullptr;
  Executor* executor = nullptr;
  util::Rng* rng = nullptr;
  std::vector<Prog>* corpus = nullptr;
  vkernel::Coverage* coverage = nullptr;
  std::map<std::string, int>* crashes = nullptr;
  size_t* programs_executed = nullptr;
};

/// Runs `n` campaign iterations (mutate-or-generate, execute, corpus
/// admission) over `state`. Consecutive calls continue one RNG stream,
/// so a shard's outcome does not depend on how its budget is split into
/// epochs; only cross-shard ingest between calls changes it. When
/// `interesting_out` is non-null, programs that found new coverage are
/// also appended there (the orchestrator's cross-shard broadcast pool).
void RunCampaignChunk(const CampaignOptions& options, const CampaignState& state,
                      int n, std::vector<Prog>* interesting_out);

/// Admits one program to a corpus: appends below `options.corpus_cap`,
/// otherwise replaces a random entry. Shared by the campaign loop and
/// the orchestrator's cross-shard ingest so admission policy cannot
/// diverge between them.
void AdmitToCorpus(const CampaignOptions& options, util::Rng* rng,
                   std::vector<Prog>* corpus, Prog prog);

/// Replays `options.seed_corpus` into `state` (coverage primed, seeds
/// admitted to the corpus up to corpus_cap in order). Consumes no RNG
/// and counts nothing against the program budget, so seeding cannot
/// perturb the fuzzing stream that follows.
/// Returns the number of seeds replayed. Crashes during replay are not
/// re-counted — a seed corpus only carries coverage, not crash credit.
size_t PrimeCorpus(const CampaignOptions& options, const CampaignState& state);

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_CAMPAIGN_H_
