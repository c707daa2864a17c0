#include "fuzzer/campaign.h"

namespace kernelgpt::fuzzer {

void
AdmitToCorpus(const CampaignOptions& options, util::Rng* rng,
              std::vector<Prog>* corpus, Prog prog)
{
  if (corpus->size() >= options.corpus_cap) {
    (*corpus)[rng->Below(corpus->size())] = std::move(prog);
  } else {
    corpus->push_back(std::move(prog));
  }
}

size_t
PrimeCorpus(const CampaignOptions& options, const CampaignState& state)
{
  if (options.seed_corpus.empty()) return 0;
  size_t replayed = 0;
  for (const Prog& seed : options.seed_corpus) {
    if (seed.empty()) continue;
    state.executor->Run(seed, state.coverage);
    ++replayed;
    if (state.corpus->size() < options.corpus_cap) {
      state.corpus->push_back(seed);
    }
  }
  return replayed;
}

void
RunCampaignChunk(const CampaignOptions& options, const CampaignState& state,
                 int n, std::vector<Prog>* interesting_out)
{
  std::vector<Prog>& corpus = *state.corpus;
  for (int i = 0; i < n; ++i) {
    Prog prog;
    if (!corpus.empty() && state.rng->Chance(options.mutate_prob)) {
      prog = corpus[state.rng->Below(corpus.size())];
      state.mutator->Mutate(&prog);
    } else {
      prog = state.generator->Generate(options.max_prog_len);
    }
    if (prog.empty()) continue;

    ExecResult exec = state.executor->Run(prog, state.coverage);
    ++*state.programs_executed;
    if (exec.crashed) {
      (*state.crashes)[exec.crash_title]++;
    }
    if (exec.new_blocks > 0) {
      if (interesting_out) interesting_out->push_back(prog);
      AdmitToCorpus(options, state.rng, &corpus, std::move(prog));
    }
  }
}

}  // namespace kernelgpt::fuzzer
