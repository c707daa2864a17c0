// Tests for the between-campaign corpus distillation service: the
// distilled corpus must reproduce the merged corpus's coverage bitmap
// exactly with no more programs, deterministically across runs; crash
// reproducers must be deduplicated by title and still crash; and the
// campaign-of-campaigns loop (a hash-chain Session) must keep corpora
// bounded while coverage accumulates.

#include <gtest/gtest.h>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/distiller.h"
#include "fuzzer/session.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class DistillerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    consts_ = new syzlang::ConstTable(
        Corpus::Instance().BuildIndex().BuildConstTable());
  }
  static void TearDownTestSuite() {
    delete consts_;
    consts_ = nullptr;
  }

  static SpecLibrary DmLibrary() {
    SpecLibrary lib;
    lib.SetConsts(*consts_);
    lib.Add(
        drivers::GroundTruthDeviceSpec(*Corpus::Instance().FindDevice("dm")));
    lib.Finalize();
    return lib;
  }

  static void Boot(vkernel::KernelModel* kernel) {
    Corpus::Instance().RegisterAll(kernel);
  }

  /// Runs a short 4-worker campaign and returns its merged corpus.
  static std::vector<Prog> MergedCorpus(const SpecLibrary& lib,
                                        uint64_t seed) {
    OrchestratorOptions options;
    options.campaign.program_budget = 12000;
    options.campaign.seed = seed;
    options.num_workers = 4;
    options.sync_interval = 200;
    return RunShardedCampaign(lib, Boot, options).corpus;
  }

  static syzlang::ConstTable* consts_;
};

syzlang::ConstTable* DistillerTest::consts_ = nullptr;

TEST_F(DistillerTest, DistilledCoverageEqualsMergedCoverageWithFewerPrograms)
{
  SpecLibrary lib = DmLibrary();
  std::vector<Prog> merged = MergedCorpus(lib, 77);
  ASSERT_GT(merged.size(), 10u);

  Distiller distiller(&lib, Boot);
  DistillResult distilled = distiller.Distill(merged);

  // The acceptance invariant: 100% of the merged corpus's coverage
  // bitmap, from a strictly smaller-or-equal program count.
  EXPECT_LE(distilled.corpus.size(), merged.size());
  ASSERT_FALSE(distilled.corpus.empty());
  vkernel::Coverage replayed;
  vkernel::Kernel kernel;
  Boot(&kernel);
  Executor executor(&kernel, &lib);
  executor.RunBatch(distilled.corpus, &replayed);
  EXPECT_EQ(replayed.blocks(), distilled.coverage.blocks());
  EXPECT_TRUE(replayed.CoversAll(distilled.coverage));
  EXPECT_TRUE(distilled.coverage.CoversAll(replayed));

  // Stats add up.
  EXPECT_EQ(distilled.stats.input_programs, merged.size());
  EXPECT_EQ(distilled.stats.selected, distilled.corpus.size());
  EXPECT_EQ(distilled.stats.replayed + distilled.stats.exact_duplicates,
            merged.size());
}

TEST_F(DistillerTest, DistillationIsDeterministicAcrossRuns)
{
  SpecLibrary lib = DmLibrary();
  std::vector<Prog> merged = MergedCorpus(lib, 123);

  Distiller distiller(&lib, Boot);
  DistillResult a = distiller.Distill(merged);
  DistillResult b = distiller.Distill(merged);

  ASSERT_EQ(a.corpus.size(), b.corpus.size());
  for (size_t i = 0; i < a.corpus.size(); ++i) {
    EXPECT_EQ(HashProg(a.corpus[i]), HashProg(b.corpus[i])) << "program " << i;
  }
  EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks());
  ASSERT_EQ(a.crash_reproducers.size(), b.crash_reproducers.size());
  auto ita = a.crash_reproducers.begin();
  auto itb = b.crash_reproducers.begin();
  for (; ita != a.crash_reproducers.end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(HashProg(ita->second), HashProg(itb->second));
  }
  EXPECT_EQ(a.stats.exact_duplicates, b.stats.exact_duplicates);
  EXPECT_EQ(a.stats.minimize_executions, b.stats.minimize_executions);
}

TEST_F(DistillerTest, ExactDuplicatesAreDroppedBeforeReplay)
{
  SpecLibrary lib = DmLibrary();
  std::vector<Prog> merged = MergedCorpus(lib, 9);
  ASSERT_FALSE(merged.empty());

  // Triple every program: two thirds of the input must dedupe away and
  // the distilled output must not change.
  Distiller distiller(&lib, Boot);
  DistillResult base = distiller.Distill(merged);

  std::vector<Prog> tripled;
  for (int copy = 0; copy < 3; ++copy) {
    tripled.insert(tripled.end(), merged.begin(), merged.end());
  }
  DistillResult dup = distiller.Distill(tripled);
  EXPECT_GE(dup.stats.exact_duplicates, merged.size() * 2);
  EXPECT_EQ(dup.stats.replayed, base.stats.replayed);
  ASSERT_EQ(dup.corpus.size(), base.corpus.size());
  for (size_t i = 0; i < dup.corpus.size(); ++i) {
    EXPECT_EQ(HashProg(dup.corpus[i]), HashProg(base.corpus[i]));
  }
}

TEST_F(DistillerTest, CrashReproducersAreMinimizedAndStillCrash)
{
  SpecLibrary lib = DmLibrary();
  // A budget large enough that the dm bugs fire during replay.
  OrchestratorOptions options;
  options.campaign.program_budget = 20000;
  options.campaign.seed = 5;
  options.num_workers = 2;
  OrchestratorResult campaign = RunShardedCampaign(lib, Boot, options);
  ASSERT_FALSE(campaign.crashes.empty());

  Distiller distiller(&lib, Boot);
  DistillResult distilled = distiller.Distill(campaign.corpus);

  // Crashing seeds live in the corpus (they found coverage when admitted),
  // so replay rediscovers at least one title; each reproducer replays to
  // exactly its own title.
  ASSERT_FALSE(distilled.crash_reproducers.empty());
  vkernel::Kernel kernel;
  Boot(&kernel);
  Executor executor(&kernel, &lib);
  for (const auto& [title, prog] : distilled.crash_reproducers) {
    ASSERT_FALSE(prog.empty());
    EXPECT_LE(prog.size(), 4u) << title;  // dm repros are tiny.
    ExecResult replay = executor.Run(prog, nullptr);
    EXPECT_TRUE(replay.crashed) << title;
    EXPECT_EQ(replay.crash_title, title);
  }
}

TEST_F(DistillerTest, EmptyAndTrivialInputsAreSafe)
{
  SpecLibrary lib = DmLibrary();
  Distiller distiller(&lib, Boot);

  DistillResult empty = distiller.Distill({});
  EXPECT_TRUE(empty.corpus.empty());
  EXPECT_EQ(empty.coverage.Count(), 0u);
  EXPECT_TRUE(empty.crash_reproducers.empty());

  // Programs with no calls are skipped, not replayed.
  DistillResult blank = distiller.Distill(std::vector<Prog>(5));
  EXPECT_TRUE(blank.corpus.empty());
  EXPECT_EQ(blank.stats.replayed, 0u);
}

TEST_F(DistillerTest, CampaignLoopKeepsCorpusBoundedAndAccumulatesCoverage)
{
  SpecLibrary lib = DmLibrary();
  // Three hash-chain rounds: fuzz, distill, re-seed the next round.
  auto run = [&lib] {
    SessionOptions options;
    options.WithSeed(31).WithRounds(3).WithWorkers(4).WithProgramBudget(8000);
    options.orchestrator.sync_interval = 200;
    Session session(options, Boot);
    EXPECT_TRUE(session.RegisterSuite("dm", &lib).ok());
    EXPECT_TRUE(session.Run().ok());
    return *session.Find("dm");
  };

  const SuiteState result = run();
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.programs_executed, 3u * 8000u);
  EXPECT_GT(result.coverage.Count(), 0u);
  for (const RoundReport& round : result.rounds) {
    // Distillation must never grow a corpus.
    EXPECT_LE(round.distilled_corpus, round.merged_corpus);
  }
  // Cumulative coverage is monotone across rounds.
  for (size_t r = 1; r < result.rounds.size(); ++r) {
    EXPECT_GE(result.rounds[r].cumulative_coverage,
              result.rounds[r - 1].cumulative_coverage);
  }
  // The final corpus is the last round's distilled set.
  EXPECT_EQ(result.corpus.size(), result.rounds.back().distilled_corpus);

  // And the loop is deterministic end to end.
  const SuiteState again = run();
  EXPECT_EQ(again.coverage.blocks(), result.coverage.blocks());
  EXPECT_EQ(again.crashes, result.crashes);
  ASSERT_EQ(again.corpus.size(), result.corpus.size());
  for (size_t i = 0; i < again.corpus.size(); ++i) {
    EXPECT_EQ(HashProg(again.corpus[i]), HashProg(result.corpus[i]));
  }
}

TEST_F(DistillerTest, ReseededRoundReplaysSeedsWithoutBudget)
{
  SpecLibrary lib = DmLibrary();
  std::vector<Prog> merged = MergedCorpus(lib, 55);
  Distiller distiller(&lib, Boot);
  DistillResult distilled = distiller.Distill(merged);
  ASSERT_FALSE(distilled.corpus.empty());

  OrchestratorOptions options;
  options.campaign.program_budget = 4000;
  options.campaign.seed = 56;
  options.campaign.seed_corpus = distilled.corpus;
  options.num_workers = 2;
  OrchestratorResult reseeded = RunShardedCampaign(lib, Boot, options);

  EXPECT_EQ(reseeded.programs_executed, 4000u);  // Seeds don't eat budget.
  for (const ShardStats& shard : reseeded.shards) {
    EXPECT_EQ(shard.seeds_preloaded, distilled.corpus.size());
  }
  // Seed coverage is primed before the loop, so the reseeded campaign
  // covers at least everything the distilled corpus covers.
  EXPECT_TRUE(reseeded.coverage.CoversAll(distilled.coverage));
}

}  // namespace
}  // namespace kernelgpt::fuzzer
