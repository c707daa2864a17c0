// Tests for the fuzzer substrate: spec library resolution, argument
// generation (semantic values, len linkage, resources), mutation
// invariants, execution, and campaign behaviour.

#include <gtest/gtest.h>

#include "drivers/corpus.h"
#include "drivers/model_runtime.h"
#include "drivers/model_spec.h"
#include "fuzzer/minimizer.h"
#include "fuzzer/orchestrator.h"
#include "syzlang/parser.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class FuzzerTest : public ::testing::Test {
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
    lib.Add(drivers::GroundTruthDeviceSpec(*Corpus::Instance().FindDevice("dm")));
    lib.Finalize();
    return lib;
  }

  static SpecLibrary KvmLibrary() {
    SpecLibrary lib;
    lib.SetConsts(*consts_);
    lib.Add(
        drivers::GroundTruthDeviceSpec(*Corpus::Instance().FindDevice("kvm")));
    lib.Finalize();
    return lib;
  }

  /// One campaign on one worker over a RegisterAll-booted kernel.
  static OrchestratorResult RunOneWorker(const SpecLibrary& lib,
                                         const CampaignOptions& campaign) {
    OrchestratorOptions options;
    options.campaign = campaign;
    options.num_workers = 1;
    return RunShardedCampaign(
        lib,
        [](vkernel::Kernel* kernel) { Corpus::Instance().RegisterAll(kernel); },
        options);
  }

  static syzlang::ConstTable* consts_;
};

syzlang::ConstTable* FuzzerTest::consts_ = nullptr;

TEST_F(FuzzerTest, LibraryResolvesConstsAndProducers)
{
  SpecLibrary lib = DmLibrary();
  EXPECT_EQ(lib.syscalls().size(), 9u);
  EXPECT_NE(lib.ResolveConst("DM_LIST_DEVICES"), 0u);
  EXPECT_EQ(lib.ResolveConst("42"), 42u);
  EXPECT_FALSE(lib.ProducersOf("fd_dm").empty());
  EXPECT_TRUE(lib.ProducersOf("no_such_resource").empty());
  EXPECT_TRUE(lib.HasResource("fd_dm"));
}

TEST_F(FuzzerTest, StructSizeMatchesModelLayout)
{
  SpecLibrary lib = DmLibrary();
  const syzlang::StructDef* s = lib.FindStruct("dm_ioctl");
  ASSERT_NE(s, nullptr);
  const drivers::DeviceSpec* dm = Corpus::Instance().FindDevice("dm");
  EXPECT_EQ(lib.StructSize(*s),
            drivers::StructByteSize("dm_ioctl", dm->structs));
}

TEST_F(FuzzerTest, GeneratorSatisfiesResourceDependencies)
{
  SpecLibrary lib = DmLibrary();
  util::Rng rng(7);
  Generator generator(&lib, &rng);
  for (int i = 0; i < 50; ++i) {
    Prog prog = generator.Generate(5);
    for (size_t c = 0; c < prog.calls.size(); ++c) {
      const auto& def = lib.syscalls()[prog.calls[c].syscall_index];
      for (size_t a = 0; a < prog.calls[c].args.size(); ++a) {
        const Arg& arg = prog.calls[c].args[a];
        if (arg.kind != Arg::Kind::kResourceRef) continue;
        if (arg.ref_call < 0) continue;
        // References must point backwards to a producer of the resource.
        ASSERT_LT(static_cast<size_t>(arg.ref_call), c) << def.FullName();
        const auto& producer =
            lib.syscalls()[prog.calls[static_cast<size_t>(arg.ref_call)]
                               .syscall_index];
        EXPECT_TRUE(producer.returns_resource.has_value());
      }
    }
  }
}

TEST_F(FuzzerTest, LenFieldsLinkedToBufferSizes)
{
  SpecLibrary lib = DmLibrary();
  // A synthetic call with an explicit len parameter.
  syzlang::ParseResult parsed = syzlang::Parse(
      "resource fd_t[fd]\n"
      "write$t(fd fd_t, buf ptr[in, array[int8]], len len[buf, int64])\n");
  ASSERT_TRUE(parsed.ok());
  SpecLibrary lib2;
  lib2.Add(parsed.spec);
  lib2.Finalize();
  util::Rng rng(3);
  Generator generator(&lib2, &rng);
  for (int i = 0; i < 20; ++i) {
    Prog prog;
    // write$t is index 0.
    generator.AppendCall(&prog, 0);
    const Call& call = prog.calls.back();
    ASSERT_EQ(call.args.size(), 3u);
    EXPECT_EQ(call.args[2].scalar, call.args[1].bytes.size());
  }
}

TEST_F(FuzzerTest, ScalarGenerationHonorsRangesAndConsts)
{
  SpecLibrary lib = DmLibrary();
  util::Rng rng(11);
  Generator generator(&lib, &rng);
  syzlang::Type range = syzlang::Type::IntRange(32, 3, 9);
  for (int i = 0; i < 200; ++i) {
    uint64_t v = generator.ScalarFor(range);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
  syzlang::Type konst = syzlang::Type::Const("DM_LIST_DEVICES");
  EXPECT_EQ(generator.ScalarFor(konst), lib.ResolveConst("DM_LIST_DEVICES"));
}

TEST_F(FuzzerTest, ScalarGenerationHitsSpecialValues)
{
  SpecLibrary lib = DmLibrary();
  util::Rng rng(13);
  Generator generator(&lib, &rng);
  syzlang::Type plain = syzlang::Type::Int(32);
  bool saw_zero = false;
  bool saw_max = false;
  for (int i = 0; i < 300; ++i) {
    uint64_t v = generator.ScalarFor(plain);
    if (v == 0) saw_zero = true;
    if (v == 0xffffffffu) saw_max = true;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST_F(FuzzerTest, PayloadForStringLiteral)
{
  SpecLibrary lib = DmLibrary();
  util::Rng rng(5);
  Generator generator(&lib, &rng);
  auto bytes =
      generator.BuildPayload(syzlang::Type::String("/dev/mapper/control"));
  ASSERT_GT(bytes.size(), 5u);
  EXPECT_EQ(bytes.back(), 0);  // NUL-terminated.
  EXPECT_EQ(bytes[0], '/');
}

// An array element that is a fixed array or a string literal is one
// scalar in a slot wider than 8 bytes: the low 8 bytes hold the value,
// the rest are zero. Fixed and variable arrays, in a library syscall and
// as ad-hoc types.
TEST_F(FuzzerTest, WideScalarSlotsZeroPastTheEighthByte)
{
  syzlang::ParseResult parsed = syzlang::Parse(
      "ioctl$wide(fd fd, cmd const[1], "
      "a ptr[in, array[array[int8, 16], 2]], "
      "s ptr[in, array[string[\"0123456789\"], 2]], "
      "va ptr[in, array[array[int8, 16]]], "
      "vs ptr[in, array[string[\"0123456789\"]]])\n");
  ASSERT_TRUE(parsed.ok());
  SpecLibrary lib;
  lib.Add(parsed.spec);
  lib.Finalize();
  util::Rng rng(21);
  Generator generator(&lib, &rng);

  bool saw_value = false;
  const auto check = [&saw_value](const std::vector<uint8_t>& bytes,
                                  size_t slot, const std::string& what) {
    ASSERT_EQ(bytes.size() % slot, 0u) << what;
    for (size_t at = 0; at < bytes.size(); at += slot) {
      for (size_t i = 0; i < 8; ++i) saw_value |= bytes[at + i] != 0;
      for (size_t i = 8; i < slot; ++i) {
        EXPECT_EQ(bytes[at + i], 0) << what << " slot at " << at << " byte " << i;
      }
    }
  };
  const size_t slots[] = {16, 11, 16, 11};
  for (int round = 0; round < 50; ++round) {
    Prog prog;
    generator.AppendCall(&prog, 0);
    const Call& call = prog.calls.back();
    ASSERT_EQ(call.args.size(), 6u);
    for (size_t p = 0; p < 4; ++p) {
      check(call.args[2 + p].bytes, slots[p], "param " + std::to_string(p));
    }
    for (size_t p = 0; p < 4; ++p) {
      const syzlang::Type& pointee = lib.syscalls()[0].params[2 + p].type.elems[0];
      syzlang::Type ad_hoc = pointee;
      ad_hoc.cache_slot = -1;
      check(generator.BuildPayload(ad_hoc), slots[p], "ad-hoc " + std::to_string(p));
    }
  }
  EXPECT_TRUE(saw_value);
}

// A type the library does not own is resolved on every call: two
// temporaries built in turn at the same address still get their own
// constants.
uint64_t
TemporaryConstScalar(Generator* generator, const char* name)
{
  const syzlang::Type type = syzlang::Type::Const(name);
  return generator->ScalarFor(type);
}

TEST_F(FuzzerTest, AdHocTypesAreNeverServedAStaleResolution)
{
  syzlang::ParseResult parsed =
      syzlang::Parse("define A 1\ndefine B 2\nclose$x(fd fd)\n");
  ASSERT_TRUE(parsed.ok());
  SpecLibrary lib;
  lib.Add(parsed.spec);
  lib.Finalize();
  util::Rng rng(1);
  Generator generator(&lib, &rng);
  EXPECT_EQ(TemporaryConstScalar(&generator, "A"), 1u);
  EXPECT_EQ(TemporaryConstScalar(&generator, "B"), 2u);
}

// Ownership is read from Type::cache_slot: an edited copy of an owned
// type keeps its slot and gets the original's plan until the copy's
// slot is reset, then it is compiled from what it says.
TEST_F(FuzzerTest, EditedCopyOfAnOwnedTypeNeedsItsSlotReset)
{
  syzlang::ParseResult parsed = syzlang::Parse(
      "define A 1\ndefine B 2\nioctl$x(fd fd, cmd const[A], n int32)\n");
  ASSERT_TRUE(parsed.ok());
  SpecLibrary lib;
  lib.Add(parsed.spec);
  lib.Finalize();
  util::Rng rng(1);
  Generator generator(&lib, &rng);

  syzlang::Type cmd = lib.syscalls()[0].params[1].type;
  cmd.const_name = "B";
  EXPECT_EQ(generator.ScalarFor(cmd), 1u);
  cmd.cache_slot = -1;
  EXPECT_EQ(generator.ScalarFor(cmd), 2u);

  syzlang::Type n = lib.syscalls()[0].params[2].type;
  n.bits = 8;
  EXPECT_EQ(lib.TypeSize(n), 4u);
  n.cache_slot = -1;
  EXPECT_EQ(lib.TypeSize(n), 1u);
}

// Two files that each validate against the other can still merge into a
// by-value struct cycle. The library cuts it where it closes, so sizes,
// generation and mutation terminate.
TEST_F(FuzzerTest, MergedStructCycleTerminates)
{
  syzlang::ParseResult a = syzlang::Parse(
      "a_t {\n\tv int8\n\tkids array[b_t]\n}\n"
      "c_t {\n\tx array[d_t, 2]\n}\n"
      "ioctl$a(fd fd, cmd const[1], p ptr[in, a_t], q ptr[inout, c_t])\n");
  syzlang::ParseResult b = syzlang::Parse(
      "b_t {\n\tw int8\n\tkids array[a_t]\n}\n"
      "d_t {\n\ty c_t\n\tz int8\n}\n"
      "ioctl$b(fd fd, cmd const[2], p ptr[in, b_t], q ptr[out, d_t])\n");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  SpecLibrary lib;
  lib.Add(a.spec);
  lib.Add(b.spec);
  lib.Finalize();

  EXPECT_EQ(lib.StructSize(*lib.FindStruct("a_t")), 1u);
  EXPECT_EQ(lib.StructSize(*lib.FindStruct("b_t")), 1u);
  EXPECT_LE(lib.StructSize(*lib.FindStruct("c_t")), 2u);
  EXPECT_LE(lib.TypeSize(syzlang::Type::StructRef("d_t")), 3u);

  util::Rng rng(5);
  Generator generator(&lib, &rng);
  Mutator mutator(&lib, &generator, &rng);
  for (int i = 0; i < 200; ++i) {
    Prog prog = generator.Generate(6);
    mutator.Mutate(&prog);
    EXPECT_FALSE(prog.empty());
  }
  for (const char* name : {"a_t", "b_t", "c_t", "d_t"}) {
    EXPECT_LT(generator.BuildPayload(syzlang::Type::StructRef(name)).size(),
              4096u)
        << name;
  }
}

TEST_F(FuzzerTest, MutatorPreservesResourceInvariant)
{
  SpecLibrary lib = KvmLibrary();
  util::Rng rng(17);
  Generator generator(&lib, &rng);
  Mutator mutator(&lib, &generator, &rng);
  Prog prog = generator.Generate(5);
  for (int i = 0; i < 300; ++i) {
    mutator.Mutate(&prog);
    for (size_t c = 0; c < prog.calls.size(); ++c) {
      for (const Arg& arg : prog.calls[c].args) {
        if (arg.kind == Arg::Kind::kResourceRef && arg.ref_call >= 0) {
          EXPECT_LT(static_cast<size_t>(arg.ref_call), prog.calls.size());
        }
      }
    }
  }
}

TEST_F(FuzzerTest, ExecutorRunsDmProgram)
{
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  SpecLibrary lib = DmLibrary();
  util::Rng rng(23);
  Generator generator(&lib, &rng);
  Executor executor(&kernel, &lib);
  vkernel::Coverage total;
  size_t executed = 0;
  for (int i = 0; i < 200; ++i) {
    Prog prog = generator.Generate(6);
    ExecResult result = executor.Run(prog, &total);
    executed += result.calls_executed;
  }
  EXPECT_GT(executed, 200u);
  EXPECT_GT(total.Count(), 5u);  // open + several dispatch/deep blocks.
}

TEST_F(FuzzerTest, CampaignFindsDmBugs)
{
  SpecLibrary lib = DmLibrary();
  CampaignOptions options;
  options.program_budget = 20000;
  options.seed = 5;
  OrchestratorResult result = RunOneWorker(lib, options);
  EXPECT_TRUE(result.crashes.count("kmalloc bug in ctl_ioctl"));
  EXPECT_TRUE(result.crashes.count("kmalloc bug in dm_table_create"));
  EXPECT_TRUE(result.crashes.count(
      "general protection fault in cleanup_mapped_device"));
}

TEST_F(FuzzerTest, CampaignDeterministicForSeed)
{
  SpecLibrary lib = DmLibrary();
  CampaignOptions options;
  options.program_budget = 3000;
  options.seed = 99;
  OrchestratorResult a = RunOneWorker(lib, options);
  OrchestratorResult b = RunOneWorker(lib, options);
  EXPECT_EQ(a.coverage.Count(), b.coverage.Count());
  EXPECT_EQ(a.crashes, b.crashes);
}

TEST_F(FuzzerTest, KvmSecondaryResourceChainCovered)
{
  // The generator must thread fd_kvm -> fd_kvm_vm -> fd_kvm_vcpu.
  SpecLibrary lib = KvmLibrary();
  CampaignOptions options;
  options.program_budget = 15000;
  options.seed = 31;
  OrchestratorResult result = RunOneWorker(lib, options);
  // KVM_RUN's deep blocks are only reachable through the full chain.
  const drivers::DeviceSpec* kvm = Corpus::Instance().FindDevice("kvm");
  ASSERT_NE(kvm, nullptr);
  uint64_t run_block =
      drivers::BlockLayout::ForDevice(*kvm).IdOf("deep", "KVM_RUN", 0);
  EXPECT_TRUE(result.coverage.Contains(run_block));
}

TEST_F(FuzzerTest, EmptyLibraryYieldsNothing)
{
  SpecLibrary lib;
  lib.Finalize();
  CampaignOptions options;
  options.program_budget = 100;
  OrchestratorResult result = RunOneWorker(lib, options);
  EXPECT_EQ(result.programs_executed, 0u);
  EXPECT_EQ(result.coverage.Count(), 0u);
}

TEST_F(FuzzerTest, FormatProgIsReadable)
{
  SpecLibrary lib = DmLibrary();
  util::Rng rng(41);
  Generator generator(&lib, &rng);
  Prog prog = generator.Generate(4);
  std::string text = FormatProg(prog, lib);
  EXPECT_NE(text.find("r0 = "), std::string::npos);
}

}  // namespace
}  // namespace kernelgpt::fuzzer

// ---------------------------------------------------------------------------
// Crash-reproducer minimization
// ---------------------------------------------------------------------------

namespace kernelgpt::fuzzer {
namespace {

class MinimizerTest : public FuzzerTest {
 protected:
  /// Generates programs until one crashes (any title). Fails the calling
  /// test if `budget` programs never crash.
  static void FindCrashingProg(vkernel::KernelModel* kernel, const SpecLibrary& lib,
                               uint64_t seed, Prog* prog, std::string* title,
                               int budget = 20000) {
    util::Rng rng(seed);
    Generator generator(&lib, &rng);
    Executor executor(kernel, &lib);
    title->clear();
    for (int i = 0; i < budget && title->empty(); ++i) {
      Prog candidate = generator.Generate(6);
      ExecResult exec = executor.Run(candidate, nullptr);
      if (exec.crashed) {
        *prog = std::move(candidate);
        *title = exec.crash_title;
      }
    }
    ASSERT_FALSE(title->empty()) << "no crash within " << budget << " programs";
  }
};

TEST_F(MinimizerTest, ShrinksCrashingProgram)
{
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  SpecLibrary lib = DmLibrary();
  Prog crashing;
  std::string title;
  ASSERT_NO_FATAL_FAILURE(FindCrashingProg(&kernel, lib, 61, &crashing, &title));

  MinimizeResult minimized = MinimizeCrash(&kernel, lib, crashing, title);
  ASSERT_TRUE(minimized.reproduced);
  EXPECT_LE(minimized.prog.size(), crashing.size());
  // The minimized program still reproduces the identical crash title.
  Executor executor(&kernel, &lib);
  ExecResult replay = executor.Run(minimized.prog, nullptr);
  EXPECT_TRUE(replay.crashed);
  EXPECT_EQ(replay.crash_title, title);
  // dm crashes need at most an open + two ioctls (+ close is implicit).
  EXPECT_LE(minimized.prog.size(), 3u);
}

TEST_F(MinimizerTest, NonCrashingInputReported)
{
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  SpecLibrary lib = DmLibrary();
  util::Rng rng(62);
  Generator generator(&lib, &rng);
  Prog prog;
  generator.AppendCall(&prog, 0);
  MinimizeResult result = MinimizeCrash(&kernel, lib, prog, "no such crash");
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.prog.size(), prog.size());
}

TEST_F(MinimizerTest, EmptyProgramIsSafe)
{
  // Degenerate input: nothing to replay, nothing to shrink. Must not
  // execute anything or claim reproduction.
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  SpecLibrary lib = DmLibrary();
  Prog empty;
  MinimizeResult result = MinimizeCrash(&kernel, lib, empty, "any title");
  EXPECT_FALSE(result.reproduced);
  EXPECT_TRUE(result.prog.empty());
  EXPECT_EQ(result.executions, 0u);
}

TEST_F(MinimizerTest, AlreadyMinimalProgramIsAFixpoint)
{
  // Minimizing a minimized reproducer must return it unchanged: same
  // call count, same crash title — the crash "disappears" under every
  // further shrink attempt, so the minimizer keeps the program intact.
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  SpecLibrary lib = DmLibrary();
  Prog crashing;
  std::string title;
  ASSERT_NO_FATAL_FAILURE(FindCrashingProg(&kernel, lib, 61, &crashing, &title));

  MinimizeResult first = MinimizeCrash(&kernel, lib, crashing, title);
  ASSERT_TRUE(first.reproduced);
  MinimizeResult second = MinimizeCrash(&kernel, lib, first.prog, title);
  ASSERT_TRUE(second.reproduced);
  EXPECT_EQ(second.prog.size(), first.prog.size());
  EXPECT_EQ(HashProg(second.prog), HashProg(first.prog));
  Executor executor(&kernel, &lib);
  ExecResult replay = executor.Run(second.prog, nullptr);
  EXPECT_TRUE(replay.crashed);
  EXPECT_EQ(replay.crash_title, title);
}

TEST_F(MinimizerTest, CrashDisappearingUnderWrongTitleIsReported)
{
  // A program that does crash — but not with the requested title — must
  // come back unmodified with reproduced == false (the distiller relies
  // on this to fall back to the unminimized reproducer).
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  SpecLibrary lib = DmLibrary();
  Prog crashing;
  std::string title;
  ASSERT_NO_FATAL_FAILURE(FindCrashingProg(&kernel, lib, 64, &crashing, &title));
  MinimizeResult result =
      MinimizeCrash(&kernel, lib, crashing, "some other crash title");
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.prog.size(), crashing.size());
  EXPECT_EQ(HashProg(result.prog), HashProg(crashing));
  EXPECT_EQ(result.executions, 1u);  // One replay, no shrink attempts.
}

TEST_F(MinimizerTest, ZeroesIrrelevantScalars)
{
  // A hand-built program: openat + DM_TABLE_STATUS with huge data_size
  // (the kmalloc bug); the mode/flags scalars of openat are irrelevant
  // and must end up zeroed.
  vkernel::Kernel kernel;
  Corpus::Instance().RegisterAll(&kernel);
  SpecLibrary lib = DmLibrary();
  util::Rng rng(63);
  Generator generator(&lib, &rng);
  Prog prog;
  // Build until we have a crashing candidate deterministically.
  Executor executor(&kernel, &lib);
  std::string title;
  for (int i = 0; i < 30000 && title != "kmalloc bug in ctl_ioctl"; ++i) {
    prog = generator.Generate(5);
    ExecResult exec = executor.Run(prog, nullptr);
    title = exec.crashed ? exec.crash_title : "";
  }
  ASSERT_EQ(title, "kmalloc bug in ctl_ioctl");
  MinimizeResult minimized = MinimizeCrash(&kernel, lib, prog, title);
  ASSERT_TRUE(minimized.reproduced);
  EXPECT_GT(minimized.executions, minimized.prog.size());
}

}  // namespace
}  // namespace kernelgpt::fuzzer
