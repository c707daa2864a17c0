// Tests for the hot-path execution engine: per-call opcode dispatch
// parity against the legacy string-comparison chain under both
// personalities, a pinned hash of that program stream's outcomes,
// dense-coverage equivalence with set semantics, zero-copy buffer
// behaviour, RunBatch parity with individual runs, and the 1-worker
// orchestrator's identity with the serial campaign. The per-program
// reset is checked against a freshly booted kernel in boot_image_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "experiments/context.h"
#include "fuzzer/campaign.h"
#include "fuzzer/generator.h"
#include "fuzzer/orchestrator.h"
#include "util/rng.h"
#include "vkernel/coverage.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using experiments::ExperimentContext;

class HotPathTest : public ::testing::Test {
 protected:
  static const ExperimentContext& Context() {
    return ExperimentContext::Default();
  }

  static SpecLibrary SuiteLibrary() {
    return Context().SyzkallerPlusKernelGptSuite();
  }

  static void Boot(vkernel::KernelModel* kernel) { Context().BootKernel(kernel); }

  /// Deterministic program stream covering every syscall: first one
  /// program per syscall index, then a generated mix.
  static std::vector<Prog> ParityPrograms(const SpecLibrary& lib) {
    util::Rng rng(2024);
    Generator generator(&lib, &rng);
    std::vector<Prog> progs;
    for (size_t i = 0; i < lib.syscalls().size(); ++i) {
      Prog prog;
      generator.AppendCall(&prog, i);
      if (!prog.empty()) progs.push_back(std::move(prog));
    }
    for (int i = 0; i < 200; ++i) {
      Prog prog = generator.Generate(6);
      if (!prog.empty()) progs.push_back(std::move(prog));
    }
    return progs;
  }
};

// ---------------------------------------------------------------------------
// Opcode dispatch
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, EverySuiteSyscallResolvesToAnOpcode)
{
  SpecLibrary lib = SuiteLibrary();
  ASSERT_FALSE(lib.syscalls().empty());
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    EXPECT_NE(lib.OpcodeOf(i), SyscallOp::kUnknown)
        << "unhandled syscall name: " << lib.syscalls()[i].name;
  }
}

// The opcode switch and the legacy name chain must agree on every call:
// same per-call results, end fd shape, module state, coverage and
// crashes — across every syscall variant the corpus specs declare
// (generation visits them all), under both personalities.
TEST_F(HotPathTest, OpcodeDispatchMatchesLegacyNameDispatch)
{
  SpecLibrary lib = SuiteLibrary();
  const std::vector<Prog> progs = ParityPrograms(lib);

  for (const vkernel::KernelPolicy& policy :
       {vkernel::KernelPolicy::Strict(), vkernel::KernelPolicy::Permissive()}) {
    SCOPED_TRACE(policy.name);
    vkernel::Kernel kernel_new(policy);
    vkernel::Kernel kernel_old(policy);
    Boot(&kernel_new);
    Boot(&kernel_old);
    Executor opcode_exec(&kernel_new, &lib, Executor::DispatchMode::kOpcode);
    Executor legacy_exec(&kernel_old, &lib,
                         Executor::DispatchMode::kLegacyNames);

    vkernel::Coverage cov_new;
    vkernel::Coverage cov_old;
    for (size_t i = 0; i < progs.size(); ++i) {
      ExecTrace ta;
      ExecTrace tb;
      ExecResult a = opcode_exec.Run(progs[i], &cov_new, &ta);
      ExecResult b = legacy_exec.Run(progs[i], &cov_old, &tb);
      EXPECT_EQ(a.crashed, b.crashed) << i;
      EXPECT_EQ(a.crash_title, b.crash_title) << i;
      EXPECT_EQ(a.calls_executed, b.calls_executed) << i;
      EXPECT_EQ(a.new_blocks, b.new_blocks) << i;
      EXPECT_TRUE(ta.results == tb.results) << i;
      EXPECT_TRUE(ta.end_shape == tb.end_shape) << i;
      EXPECT_EQ(ta.module_state, tb.module_state) << i;
    }
    EXPECT_EQ(cov_new.blocks(), cov_old.blocks());
  }
}

// The parity program stream's outcomes on a booted strict kernel, then a
// booted permissive one, hash to a recorded constant: every per-call
// (retval, errno), end fd shape, module state, crash title, call count
// and new-block count, plus each kernel's accumulated coverage. The
// parity test above compares two dispatch paths of the same build; this
// pin is what catches a change that moves both.
TEST_F(HotPathTest, ExecutionOutcomeIsPinned)
{
  SpecLibrary lib = SuiteLibrary();
  const std::vector<Prog> progs = ParityPrograms(lib);

  uint64_t h = 0;
  for (const vkernel::KernelPolicy& policy :
       {vkernel::KernelPolicy::Strict(), vkernel::KernelPolicy::Permissive()}) {
    vkernel::Kernel kernel(policy);
    Boot(&kernel);
    Executor exec(&kernel, &lib);
    vkernel::Coverage cov;
    for (const Prog& prog : progs) {
      ExecTrace trace;
      ExecResult r = exec.Run(prog, &cov, &trace);
      for (const vkernel::SyscallResult& rc : trace.results) {
        h = util::HashCombine(h, static_cast<uint64_t>(rc.retval));
        h = util::HashCombine(h, static_cast<uint64_t>(rc.verrno));
      }
      h = util::HashCombine(h, trace.end_shape.files_open);
      h = util::HashCombine(h, trace.end_shape.sockets_open);
      h = util::HashCombine(h, util::StableHash(trace.module_state));
      h = util::HashCombine(h, util::StableHash(r.crash_title));
      h = util::HashCombine(h, r.calls_executed);
      h = util::HashCombine(h, r.new_blocks);
    }
    for (uint64_t id : cov.SortedBlocks()) h = util::HashCombine(h, id);
  }
  EXPECT_EQ(progs.size(), 1039u);
  EXPECT_EQ(h, 2609450546063905714ULL);
}

// ---------------------------------------------------------------------------
// Dense coverage
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, CoverageMatchesSetSemantics)
{
  vkernel::Coverage cov;
  std::unordered_set<uint64_t> model;

  // A mix of MakeBlockId-shaped ids (dense pages), raw hashes, duplicate
  // hits, and page-edge values.
  std::vector<uint64_t> ids;
  for (uint32_t i = 0; i < 300; ++i) {
    ids.push_back(vkernel::MakeBlockId(0xdeadbeefcafeULL, i));
  }
  util::Rng rng(99);
  for (int i = 0; i < 300; ++i) ids.push_back(rng.Next());
  ids.insert(ids.end(), {0ULL, 1ULL, 63ULL, 64ULL, 255ULL, 256ULL, ~0ULL});
  ids.insert(ids.end(), ids.begin(), ids.begin() + 100);  // Duplicates.

  for (uint64_t id : ids) {
    EXPECT_EQ(cov.Hit(id), model.insert(id).second) << id;
  }
  EXPECT_EQ(cov.Count(), model.size());
  for (uint64_t id : ids) EXPECT_TRUE(cov.Contains(id));
  EXPECT_FALSE(cov.Contains(0x1234567890ULL));
  EXPECT_EQ(cov.blocks(), model);

  std::vector<uint64_t> sorted = cov.SortedBlocks();
  EXPECT_EQ(sorted.size(), model.size());
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST_F(HotPathTest, CoverageMergeAndCountNotInMatchSetSemantics)
{
  util::Rng rng(7);
  vkernel::Coverage a;
  vkernel::Coverage b;
  std::unordered_set<uint64_t> set_a;
  std::unordered_set<uint64_t> set_b;
  for (int i = 0; i < 500; ++i) {
    // Overlapping ranges: ~half the ids land in both sets.
    uint64_t ida = vkernel::MakeBlockId(42, static_cast<uint32_t>(i));
    uint64_t idb = vkernel::MakeBlockId(42, static_cast<uint32_t>(i + 250));
    a.Hit(ida);
    set_a.insert(ida);
    b.Hit(idb);
    set_b.insert(idb);
    uint64_t h = rng.Next();
    if (i % 2) {
      a.Hit(h);
      set_a.insert(h);
    } else {
      b.Hit(h);
      set_b.insert(h);
    }
  }

  // CountNotIn == |a \ b| and |b \ a|.
  size_t a_not_b = 0;
  for (uint64_t id : set_a) a_not_b += set_b.count(id) ? 0 : 1;
  size_t b_not_a = 0;
  for (uint64_t id : set_b) b_not_a += set_a.count(id) ? 0 : 1;
  EXPECT_EQ(a.CountNotIn(b), a_not_b);
  EXPECT_EQ(b.CountNotIn(a), b_not_a);

  // Merge returns the number of genuinely new blocks; repeat merges and
  // empty merges add nothing.
  vkernel::Coverage merged;
  EXPECT_EQ(merged.Merge(a), set_a.size());
  EXPECT_EQ(merged.Merge(a), 0u);
  EXPECT_EQ(merged.Merge(b), b_not_a);
  EXPECT_EQ(merged.Count(), set_a.size() + b_not_a);
  vkernel::Coverage empty;
  EXPECT_EQ(merged.Merge(empty), 0u);
  EXPECT_EQ(empty.Merge(empty), 0u);
  EXPECT_EQ(empty.Count(), 0u);

  std::unordered_set<uint64_t> set_union = set_a;
  set_union.insert(set_b.begin(), set_b.end());
  EXPECT_EQ(merged.blocks(), set_union);

  merged.Clear();
  EXPECT_EQ(merged.Count(), 0u);
  EXPECT_EQ(merged.Merge(a), set_a.size());
}

// The AVX2 merge-join arms must be bit-identical to the scalar
// reference over adversarial id layouts: dense per-module runs (the
// MakeBlockId shape), hash-scattered ids (one page per id), ids
// straddling page and word boundaries, and the empty/self/identical-key
// edge cases that trigger the paired fast path.
TEST_F(HotPathTest, SimdCoverageArmMatchesScalarReferenceBitForBit)
{
  if (!vkernel::CoverageSimdAvailable()) {
    GTEST_SKIP() << "no AVX2 on this host; only the scalar arm exists";
  }

  // Adversarial id pattern families, each a vector of ids to Hit.
  std::vector<std::vector<uint64_t>> patterns;
  // Dense module runs: contiguous local indices under a few module
  // hashes — full and partially-full pages.
  for (uint64_t h : {0x1ULL, 0xdeadbeefcafeULL, ~0ULL}) {
    std::vector<uint64_t> dense;
    for (uint32_t i = 0; i < 700; ++i) dense.push_back(vkernel::MakeBlockId(h, i));
    patterns.push_back(std::move(dense));
  }
  // Hash-scattered: every id lands on its own page.
  {
    util::Rng rng(31337);
    std::vector<uint64_t> scattered;
    for (int i = 0; i < 600; ++i) scattered.push_back(rng.Next());
    patterns.push_back(std::move(scattered));
  }
  // Page- and word-boundary straddles around every multiple of 64 and
  // 256 in a window, plus the extremes.
  {
    std::vector<uint64_t> straddle;
    for (uint64_t base = 64; base <= 1024; base += 64) {
      straddle.insert(straddle.end(), {base - 1, base, base + 1});
    }
    straddle.insert(straddle.end(),
                    {0ULL, 63ULL, 255ULL, 256ULL, 257ULL, ~0ULL, ~0ULL - 1,
                     (~0ULL >> 8) << 8});
    patterns.push_back(std::move(straddle));
  }
  // Empty set.
  patterns.push_back({});

  // Every ordered pair of patterns (including a pattern against itself
  // — identical key arrays, the paired fast path) is exercised under
  // both arms; counts AND resulting sorted block lists must agree.
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    for (size_t pj = 0; pj < patterns.size(); ++pj) {
      struct Result {
        size_t merged, back, not_in, not_in_rev;
        bool covers;
        std::vector<uint64_t> blocks;
      };
      auto run = [&](vkernel::CoverageArm arm) {
        vkernel::SetCoverageArm(arm);
        EXPECT_EQ(vkernel::ActiveCoverageArm(), arm);
        vkernel::Coverage a, b;
        for (uint64_t id : patterns[pi]) a.Hit(id);
        for (uint64_t id : patterns[pj]) b.Hit(id);
        Result r;
        r.not_in = a.CountNotIn(b);
        r.not_in_rev = b.CountNotIn(a);
        r.covers = a.CoversAll(b);
        r.merged = a.Merge(b);
        r.back = b.Merge(a);  // Now equal sets: paired path again.
        EXPECT_EQ(a.Merge(a), 0u);  // Self-merge is a no-op.
        r.blocks = a.SortedBlocks();
        return r;
      };
      const Result scalar = run(vkernel::CoverageArm::kScalar);
      const Result simd = run(vkernel::CoverageArm::kSimd);
      vkernel::ResetCoverageArm();

      const std::string label =
          "patterns " + std::to_string(pi) + " x " + std::to_string(pj);
      EXPECT_EQ(scalar.merged, simd.merged) << label;
      EXPECT_EQ(scalar.back, simd.back) << label;
      EXPECT_EQ(scalar.not_in, simd.not_in) << label;
      EXPECT_EQ(scalar.not_in_rev, simd.not_in_rev) << label;
      EXPECT_EQ(scalar.covers, simd.covers) << label;
      EXPECT_EQ(scalar.blocks, simd.blocks) << label;

      // And both arms match naive set algebra.
      std::unordered_set<uint64_t> u(patterns[pi].begin(), patterns[pi].end());
      size_t before = u.size();
      u.insert(patterns[pj].begin(), patterns[pj].end());
      EXPECT_EQ(scalar.merged, u.size() - before) << label;
      EXPECT_EQ(scalar.blocks.size(), u.size()) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-copy buffers
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, BufferViewReadsWithoutCopyAndMaterializesOnWrite)
{
  std::vector<uint8_t> backing = {1, 2, 3, 4, 5, 6, 7, 8};
  vkernel::Buffer view = vkernel::Buffer::View(backing);
  EXPECT_TRUE(view.viewing());
  EXPECT_EQ(view.size(), backing.size());
  EXPECT_EQ(view.data(), backing.data());  // No copy happened.
  EXPECT_EQ(view.ReadScalar(0, 4), 0x04030201u);
  EXPECT_TRUE(view.bytes.empty());  // Still not materialized.

  // First write detaches from the backing storage.
  view.WriteScalar(0, 2, 0xbeef);
  EXPECT_FALSE(view.viewing());
  EXPECT_NE(view.data(), backing.data());
  EXPECT_EQ(view.ReadScalar(0, 2), 0xbeefu);
  EXPECT_EQ(view.ReadScalar(2, 2), 0x0403u);  // Old contents preserved.
  EXPECT_EQ(backing[0], 1u);                  // Backing untouched.

  vkernel::Buffer grown = vkernel::Buffer::View(backing);
  grown.Resize(16);
  EXPECT_EQ(grown.size(), 16u);
  EXPECT_EQ(grown.ReadScalar(0, 4), 0x04030201u);  // Copied then grown.
  EXPECT_EQ(grown.ReadScalar(8, 4), 0u);           // Zero-filled tail.
}

// ---------------------------------------------------------------------------
// Batch replay and campaign identity
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, RunBatchMatchesIndividualRuns)
{
  SpecLibrary lib = SuiteLibrary();
  util::Rng rng(11);
  Generator generator(&lib, &rng);
  std::vector<Prog> progs;
  for (int i = 0; i < 50; ++i) {
    Prog prog = generator.Generate(5);
    if (!prog.empty()) progs.push_back(std::move(prog));
  }

  vkernel::Kernel kernel_batch;
  vkernel::Kernel kernel_single;
  Boot(&kernel_batch);
  Boot(&kernel_single);
  Executor batch_exec(&kernel_batch, &lib);
  Executor single_exec(&kernel_single, &lib);

  vkernel::Coverage cov_batch;
  vkernel::Coverage cov_single;
  std::vector<ExecResult> batched = batch_exec.RunBatch(progs, &cov_batch);
  ASSERT_EQ(batched.size(), progs.size());
  for (size_t i = 0; i < progs.size(); ++i) {
    ExecResult single = single_exec.Run(progs[i], &cov_single);
    EXPECT_EQ(batched[i].crashed, single.crashed) << i;
    EXPECT_EQ(batched[i].crash_title, single.crash_title) << i;
    EXPECT_EQ(batched[i].calls_executed, single.calls_executed) << i;
    EXPECT_EQ(batched[i].new_blocks, single.new_blocks) << i;
  }
  EXPECT_EQ(cov_batch.blocks(), cov_single.blocks());
}

TEST_F(HotPathTest, OneWorkerOrchestratorStillBitIdenticalToSerial)
{
  SpecLibrary lib = SuiteLibrary();
  CampaignOptions campaign;
  campaign.seed = 314;
  campaign.program_budget = 4000;

  vkernel::Kernel kernel;
  Boot(&kernel);
  CampaignResult serial = RunCampaign(&kernel, lib, campaign);

  OrchestratorOptions options;
  options.campaign = campaign;
  options.num_workers = 1;
  OrchestratorResult sharded = RunShardedCampaign(
      lib, [](vkernel::KernelModel* k) { Boot(k); }, options);

  EXPECT_EQ(serial.programs_executed, sharded.programs_executed);
  EXPECT_EQ(serial.crashes, sharded.crashes);
  EXPECT_EQ(serial.coverage.blocks(), sharded.coverage.blocks());
}

}  // namespace
}  // namespace kernelgpt::fuzzer
