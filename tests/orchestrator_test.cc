// Tests for the parallel sharded campaign orchestrator: the pinned
// outcome of a 1-worker run and its independence of the sync interval,
// determinism of N-worker merges, cross-shard corpus syncing, and a
// multi-worker stress smoke test (run this suite under -fsanitize=thread
// to check the barriers).

#include <gtest/gtest.h>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "experiments/context.h"
#include "fuzzer/orchestrator.h"
#include "util/rng.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class OrchestratorTest : public ::testing::Test {
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

  /// The one-worker runs the pins below hold: the dm spec alone and the
  /// whole Syzkaller + KernelGPT suite.
  struct OneWorkerCase {
    const char* name;
    SpecLibrary lib;
    uint64_t seed;
    int budget;
  };
  static std::vector<OneWorkerCase> OneWorkerCases() {
    return {
        {"dm", DmLibrary(), 77, 8000},
        {"suite",
         experiments::ExperimentContext::Default()
             .SyzkallerPlusKernelGptSuite(),
         314, 4000},
    };
  }

  static OrchestratorOptions OneWorker(const OneWorkerCase& c) {
    OrchestratorOptions options;
    options.campaign.seed = c.seed;
    options.campaign.program_budget = c.budget;
    options.num_workers = 1;
    return options;
  }

  static uint64_t CoverageHash(const vkernel::Coverage& coverage) {
    uint64_t h = 0;
    for (uint64_t id : coverage.SortedBlocks()) h = util::HashCombine(h, id);
    return h;
  }

  static uint64_t CorpusHash(const std::vector<Prog>& corpus) {
    uint64_t h = 0;
    for (const Prog& prog : corpus) h = util::HashCombine(h, HashProg(prog));
    return h;
  }

  static syzlang::ConstTable* consts_;
};

syzlang::ConstTable* OrchestratorTest::consts_ = nullptr;

// A one-worker run's outcome, recorded: programs executed, corpus size,
// crash map, and hashes of the sorted coverage ids and of the final
// corpus in order. The values were recorded while the serial campaign
// loop (RunCampaign) still existed and matched it on programs, corpus
// size, crashes and coverage ids.
TEST_F(OrchestratorTest, OneWorkerOutcomeIsPinned)
{
  struct Expected {
    size_t programs;
    size_t corpus_size;
    std::map<std::string, int> crashes;
    uint64_t coverage_hash;
    uint64_t corpus_hash;
  };
  const std::vector<Expected> expected = {
      {8000,
       5,
       {{"general protection fault in cleanup_mapped_device", 1657},
        {"kmalloc bug in ctl_ioctl", 1160},
        {"kmalloc bug in dm_table_create", 297}},
       7490358686679214067ULL,
       815326737795877908ULL},
      {4000,
       256,
       {{"BUG: corrupted list in udmabuf_release", 30},
        {"WARNING in i2c_transfer_buffer", 4},
        {"WARNING in ptmx_set_termios", 5},
        {"WARNING in usb_ep_queue", 7},
        {"WARNING in vb2_core_reqbufs", 8},
        {"general protection fault in cleanup_mapped_device", 3},
        {"general protection fault in dvb_vb2_expbuf", 3},
        {"kernel BUG in btrfs_get_root_ref", 2},
        {"memory leak in __ip6_append_data", 8},
        {"memory leak in dvb_dvr_do_ioctl", 5},
        {"memory leak in posix_clock_open", 13},
        {"memory leak in rfkill_register", 10},
        {"possible deadlock in dvb_demux_release", 39},
        {"vnet: state-machine violation: tcp connect in LISTEN", 1},
        {"zero-size vmalloc in ubi_read_volume_table", 1}},
       9712307016428346320ULL,
       9465650739110375543ULL},
  };
  const std::vector<OneWorkerCase> cases = OneWorkerCases();
  ASSERT_EQ(cases.size(), expected.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    OrchestratorResult result =
        RunShardedCampaign(cases[i].lib, Boot, OneWorker(cases[i]));
    EXPECT_EQ(result.programs_executed, expected[i].programs);
    EXPECT_EQ(result.corpus_size, expected[i].corpus_size);
    EXPECT_EQ(result.crashes, expected[i].crashes);
    EXPECT_EQ(CoverageHash(result.coverage), expected[i].coverage_hash);
    EXPECT_EQ(CorpusHash(result.corpus), expected[i].corpus_hash);
  }
}

// With one worker nothing is exchanged between epochs, so the epoch
// length cannot matter: 100-program epochs give the same run as one
// epoch over the whole budget, which is the campaign loop alone.
TEST_F(OrchestratorTest, OneWorkerEpochChunkingIsInvisible)
{
  for (const OneWorkerCase& c : OneWorkerCases()) {
    SCOPED_TRACE(c.name);
    OrchestratorOptions chunked = OneWorker(c);
    chunked.sync_interval = 100;
    OrchestratorOptions single = OneWorker(c);
    single.sync_interval = c.budget;
    OrchestratorResult a = RunShardedCampaign(c.lib, Boot, chunked);
    OrchestratorResult b = RunShardedCampaign(c.lib, Boot, single);

    EXPECT_EQ(a.epochs.size(), static_cast<size_t>(c.budget / 100));
    EXPECT_EQ(b.epochs.size(), 1u);
    EXPECT_EQ(a.programs_executed, b.programs_executed);
    EXPECT_EQ(a.corpus_size, b.corpus_size);
    EXPECT_EQ(a.crashes, b.crashes);
    // Bit-identical coverage and corpus, not just counts.
    EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks());
    EXPECT_EQ(CorpusHash(a.corpus), CorpusHash(b.corpus));
  }
}

TEST_F(OrchestratorTest, MultiWorkerMergeIsDeterministic)
{
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 12000;
  options.campaign.seed = 123;
  options.num_workers = 4;
  options.sync_interval = 250;

  OrchestratorResult a = RunShardedCampaign(lib, Boot, options);
  OrchestratorResult b = RunShardedCampaign(lib, Boot, options);

  // Thread scheduling must not leak into results: identical dedup'd
  // crash maps, identical coverage bitmaps, identical shard stats.
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks());
  EXPECT_EQ(a.programs_executed, b.programs_executed);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].programs_executed, b.shards[i].programs_executed);
    EXPECT_EQ(a.shards[i].coverage_blocks, b.shards[i].coverage_blocks);
    EXPECT_EQ(a.shards[i].crash_occurrences, b.shards[i].crash_occurrences);
    EXPECT_EQ(a.shards[i].seeds_broadcast, b.shards[i].seeds_broadcast);
    EXPECT_EQ(a.shards[i].seeds_ingested, b.shards[i].seeds_ingested);
  }
}

TEST_F(OrchestratorTest, BudgetIsShardedExactly)
{
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 10001;  // Deliberately not divisible.
  options.campaign.seed = 9;
  options.num_workers = 4;
  OrchestratorResult result = RunShardedCampaign(lib, Boot, options);

  ASSERT_EQ(result.shards.size(), 4u);
  // Budgets 2501+2500+2500+2500; executed <= budget (empty programs are
  // skipped without counting).
  size_t total = 0;
  for (const auto& shard : result.shards) {
    EXPECT_LE(shard.programs_executed, 2501u);
    total += shard.programs_executed;
  }
  EXPECT_EQ(total, result.programs_executed);
  EXPECT_LE(result.programs_executed, 10001u);
  EXPECT_GT(result.programs_executed, 9000u);  // Almost no empty programs.
}

TEST_F(OrchestratorTest, ShardsExchangeSeedsAtSyncPoints)
{
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 8000;
  options.campaign.seed = 41;
  options.num_workers = 4;
  options.sync_interval = 100;  // Many sync epochs.
  OrchestratorResult result = RunShardedCampaign(lib, Boot, options);

  size_t broadcast = 0;
  size_t ingested = 0;
  for (const auto& shard : result.shards) {
    broadcast += shard.seeds_broadcast;
    ingested += shard.seeds_ingested;
  }
  // The dm spec finds new coverage early, so every shard has something
  // to share, and every broadcast seed is ingested by all three peers.
  EXPECT_GT(broadcast, 0u);
  EXPECT_EQ(ingested, broadcast * 3);
}

TEST_F(OrchestratorTest, MultiWorkerFindsTheSameDmBugsAsSerial)
{
  // Crash-dedup semantics are identical: the same titles dominate.
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 20000;
  options.campaign.seed = 5;
  options.num_workers = 4;
  OrchestratorResult result = RunShardedCampaign(lib, Boot, options);
  EXPECT_TRUE(result.crashes.count("kmalloc bug in ctl_ioctl"));
  EXPECT_TRUE(result.crashes.count("kmalloc bug in dm_table_create"));
  EXPECT_TRUE(result.crashes.count(
      "general protection fault in cleanup_mapped_device"));
}

TEST_F(OrchestratorTest, EightWorkerStressSmoke)
{
  // Oversubscribes cores on small machines on purpose; run under TSan to
  // validate the publish/ingest barrier protocol.
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 16000;
  options.campaign.seed = 2026;
  options.num_workers = 8;
  options.sync_interval = 64;  // Hammer the barriers.
  options.max_broadcast_per_sync = 4;
  OrchestratorResult result = RunShardedCampaign(lib, Boot, options);

  ASSERT_EQ(result.shards.size(), 8u);
  EXPECT_GT(result.programs_executed, 14000u);
  EXPECT_GT(result.coverage.Count(), 0u);
  EXPECT_GT(result.UniqueCrashCount(), 0u);
  // Union coverage dominates every shard's local view.
  for (const auto& shard : result.shards) {
    EXPECT_LE(shard.coverage_blocks, result.coverage.Count());
  }
}

TEST_F(OrchestratorTest, FixedSyncScheduleIsRecordedInEpochTrace)
{
  // Adaptive sync off (the default): every epoch runs at the configured
  // interval and broadcast cap — the historical fixed schedule, now
  // visible in the result trace.
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 4000;
  options.campaign.seed = 3;
  options.num_workers = 2;
  options.sync_interval = 250;
  OrchestratorResult result = RunShardedCampaign(lib, Boot, options);

  ASSERT_EQ(result.epochs.size(), 8u);  // ceil(2000 / 250) per shard.
  for (const EpochStats& epoch : result.epochs) {
    EXPECT_EQ(epoch.sync_interval, 250);
    EXPECT_EQ(epoch.broadcast_cap, options.max_broadcast_per_sync);
  }
  // The merged corpus is exported shard-by-shard for the distiller.
  EXPECT_EQ(result.corpus.size(), result.corpus_size);
}

TEST_F(OrchestratorTest, AdaptiveSyncStaysInBoundsAndIsDeterministic)
{
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 16000;
  options.campaign.seed = 911;
  options.num_workers = 4;
  options.sync_interval = 128;
  options.adaptive_sync = true;
  options.min_sync_interval = 64;
  options.max_sync_interval = 1024;
  options.min_broadcast_per_sync = 2;
  options.max_broadcast_cap = 32;

  OrchestratorResult a = RunShardedCampaign(lib, Boot, options);
  OrchestratorResult b = RunShardedCampaign(lib, Boot, options);

  // The controller must widen the interval once coverage plateaus (the
  // dm spec saturates quickly at this budget) while staying in bounds.
  ASSERT_FALSE(a.epochs.empty());
  bool widened = false;
  for (const EpochStats& epoch : a.epochs) {
    EXPECT_GE(epoch.sync_interval, options.min_sync_interval);
    EXPECT_LE(epoch.sync_interval, options.max_sync_interval);
    EXPECT_GE(epoch.broadcast_cap, options.min_broadcast_per_sync);
    EXPECT_LE(epoch.broadcast_cap, options.max_broadcast_cap);
    if (epoch.sync_interval > options.sync_interval) widened = true;
  }
  EXPECT_TRUE(widened);

  // Thread scheduling must not leak into the adaptive schedule or the
  // results: the controller is a pure function of merged epoch stats.
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].sync_interval, b.epochs[e].sync_interval);
    EXPECT_EQ(a.epochs[e].broadcast_cap, b.epochs[e].broadcast_cap);
    EXPECT_EQ(a.epochs[e].new_blocks, b.epochs[e].new_blocks);
  }
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks());
  EXPECT_EQ(a.programs_executed, b.programs_executed);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
}

TEST_F(OrchestratorTest, AdaptiveBoundsAreClampedAtConstruction)
{
  SpecLibrary lib = DmLibrary();
  OrchestratorOptions options;
  options.campaign.program_budget = 2000;
  options.campaign.seed = 8;
  options.num_workers = 2;
  options.adaptive_sync = true;
  options.sync_interval = 10000;   // Above max: must clamp down.
  options.max_sync_interval = 512;
  options.max_broadcast_per_sync = 1;  // Below min: must clamp up.
  options.min_broadcast_per_sync = 4;
  options.max_broadcast_cap = 16;

  OrchestratorResult result = RunShardedCampaign(lib, Boot, options);
  ASSERT_FALSE(result.epochs.empty());
  EXPECT_LE(result.epochs.front().sync_interval, 512);
  EXPECT_GE(result.epochs.front().broadcast_cap, 4u);
}

TEST_F(OrchestratorTest, EmptyLibraryYieldsNothing)
{
  SpecLibrary lib;
  lib.Finalize();
  OrchestratorOptions options;
  options.campaign.program_budget = 100;
  options.num_workers = 4;
  OrchestratorResult result = RunShardedCampaign(lib, Boot, options);
  EXPECT_EQ(result.programs_executed, 0u);
  EXPECT_EQ(result.coverage.Count(), 0u);
  EXPECT_EQ(result.UniqueCrashCount(), 0u);
}

}  // namespace
}  // namespace kernelgpt::fuzzer
