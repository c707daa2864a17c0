// Corpus-lifecycle demo on the Session API: a "campaign of campaigns"
// that alternates sharded fuzzing rounds with between-round corpus
// distillation, with adaptive sync retuning the cross-shard exchange
// cadence from observed coverage growth. Shows why corpora stop growing
// monotonically: each round's merged corpus is pruned to a minimal
// covering subset before it re-seeds the next round's shards, and the
// session's RoundReport trend records expose the whole lifecycle.
//
// Build: cmake -B build && cmake --build build
// Run:   ./build/examples/example_distill_campaign [rounds] [workers]

#include <cstdio>
#include <cstdlib>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/prog.h"
#include "fuzzer/session.h"
#include "vkernel/kernel.h"

using namespace kernelgpt;

int
main(int argc, char** argv)
{
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 3;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 4;

  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  fuzzer::SpecLibrary lib;
  lib.SetConsts(corpus.BuildIndex().BuildConstTable());
  lib.Add(drivers::GroundTruthDeviceSpec(*corpus.FindDevice("dm")));
  lib.Finalize();

  auto boot = [&corpus](vkernel::KernelModel* kernel) {
    corpus.RegisterAll(kernel);
  };

  fuzzer::OrchestratorOptions orchestrator;
  orchestrator.campaign.program_budget = 20000;
  orchestrator.num_workers = workers;
  orchestrator.sync_interval = 256;
  orchestrator.adaptive_sync = true;
  orchestrator.min_sync_interval = 64;
  orchestrator.max_sync_interval = 2048;

  fuzzer::Session session(fuzzer::SessionOptions()
                              .WithSeed(42)
                              .WithRounds(rounds)
                              .WithOrchestrator(orchestrator),
                          boot);
  if (util::Status status = session.RegisterSuite("dm", &lib); !status.ok()) {
    std::fprintf(stderr, "register: %s\n", status.message().c_str());
    return 1;
  }

  std::printf("Campaign loop: %d rounds x %d programs on %d workers, "
              "adaptive sync + distillation between rounds\n\n",
              rounds, orchestrator.campaign.program_budget, workers);

  if (util::Status status = session.Run(); !status.ok()) {
    std::fprintf(stderr, "run: %s\n", status.message().c_str());
    return 1;
  }

  const fuzzer::SuiteState& state = *session.Find("dm");
  std::printf("%-6s %12s %12s %10s %10s %8s\n", "round", "merged", "distilled",
              "kept%", "cum cov", "crashes");
  for (const fuzzer::RoundReport& round : state.rounds) {
    const double kept =
        round.merged_corpus
            ? 100.0 * static_cast<double>(round.distilled_corpus) /
                  static_cast<double>(round.merged_corpus)
            : 0.0;
    std::printf("%-6d %12zu %12zu %9.1f%% %10zu %8zu\n", round.round,
                round.merged_corpus, round.distilled_corpus, kept,
                round.cumulative_coverage, round.cumulative_unique_crashes);
  }

  std::printf("\nAdaptive sync schedule (round 0):\n");
  for (size_t e = 0; e < state.rounds.front().epochs.size(); ++e) {
    const fuzzer::EpochStats& epoch = state.rounds.front().epochs[e];
    std::printf("  epoch %2zu: interval %5d, broadcast cap %2zu, "
                "+%zu blocks\n",
                e, epoch.sync_interval, epoch.broadcast_cap, epoch.new_blocks);
  }

  std::printf("\n%zu programs executed total; final distilled corpus: "
              "%zu programs covering %zu blocks\n",
              state.programs_executed, state.corpus.size(),
              state.coverage.Count());

  std::printf("\nMinimized crash reproducers (one per title):\n");
  for (const auto& [title, prog] : state.crash_reproducers) {
    std::printf("-- %s (%zu calls)\n%s", title.c_str(), prog.size(),
                FormatProg(prog, lib).c_str());
  }
  return 0;
}
