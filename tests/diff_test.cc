// Differential-oracle determinism suite: strict-vs-strict runs must
// report zero divergences over the full ground-truth corpus; a
// strict-vs-permissive run must find at least one deterministic,
// minimized divergence; and the rendered report must be byte-identical
// across worker counts and across session resume. Run this suite under
// -fsanitize=thread to check the DiffRunner's worker partitioning.

#include <gtest/gtest.h>

#include <filesystem>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/diff_runner.h"
#include "fuzzer/generator.h"
#include "fuzzer/session.h"
#include "util/rng.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class DiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    consts_ = new syzlang::ConstTable(
        Corpus::Instance().BuildIndex().BuildConstTable());
  }
  static void TearDownTestSuite() {
    delete consts_;
    consts_ = nullptr;
  }

  /// Ground-truth specs of every loaded module — the full oracle corpus
  /// surface, devices and sockets alike.
  static SpecLibrary GroundTruthLibrary() {
    SpecLibrary lib;
    lib.SetConsts(*consts_);
    for (const drivers::DeviceSpec* dev : Corpus::Instance().LoadedDevices()) {
      lib.Add(drivers::GroundTruthDeviceSpec(*dev));
    }
    for (const drivers::SocketSpec& sock : Corpus::Instance().sockets()) {
      lib.Add(drivers::GroundTruthSocketSpec(sock));
    }
    lib.Finalize();
    return lib;
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

  /// Deterministic corpus over `lib`: `count` generated programs.
  static std::vector<Prog> MakeCorpus(const SpecLibrary& lib, int count,
                                      uint64_t seed) {
    util::Rng rng(seed);
    Generator generator(&lib, &rng);
    std::vector<Prog> corpus;
    corpus.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      Prog prog = generator.Generate(6);
      if (!prog.empty()) corpus.push_back(std::move(prog));
    }
    return corpus;
  }

  static syzlang::ConstTable* consts_;
};

syzlang::ConstTable* DiffTest::consts_ = nullptr;

TEST_F(DiffTest, StrictVsStrictHasZeroDivergences)
{
  SpecLibrary lib = GroundTruthLibrary();
  std::vector<Prog> corpus = MakeCorpus(lib, 300, 11);
  ASSERT_FALSE(corpus.empty());

  DiffOptions options;
  options.baseline = vkernel::MakeStrictModel;
  options.subject = vkernel::MakeStrictModel;
  options.boot = Boot;
  DiffRunner runner(&lib, options);
  DiffReport report = runner.Run(corpus);

  EXPECT_EQ(report.programs, corpus.size());
  EXPECT_EQ(report.diverging_programs, 0u);
  EXPECT_TRUE(report.divergences.empty()) << report.Render();
  EXPECT_EQ(report.baseline_name, "strict");
  EXPECT_EQ(report.subject_name, "strict");
}

TEST_F(DiffTest, EmptyCorpusReportStillNamesBothModels)
{
  SpecLibrary lib = DmLibrary();
  DiffOptions options;
  options.boot = Boot;
  const std::vector<Prog> none;
  EXPECT_EQ(DiffRunner(&lib, options).Run(none).Render(),
            "differential report: strict vs permissive\n"
            "programs=0 diverging=0 unique=0\n");
}

TEST_F(DiffTest, StrictVsPermissiveFindsMinimizedDivergences)
{
  SpecLibrary lib = GroundTruthLibrary();
  std::vector<Prog> corpus = MakeCorpus(lib, 300, 11);

  DiffOptions defaults;
  defaults.boot = Boot;
  DiffRunner runner(&lib, defaults);
  DiffReport report = runner.Run(corpus);

  EXPECT_EQ(report.baseline_name, "strict");
  EXPECT_EQ(report.subject_name, "permissive");
  ASSERT_GE(report.divergences.size(), 1u) << report.Render();
  for (const Divergence& d : report.divergences) {
    EXPECT_TRUE(d.minimized) << d.signature;
    EXPECT_GE(d.occurrences, 1u);
    EXPECT_FALSE(d.repro.empty());
    // A minimized repro still reproduces its own signature from scratch.
    DiffOptions bare;
    bare.boot = Boot;
    bare.minimize = false;
    DiffRunner recheck(&lib, bare);
    std::vector<Prog> one{d.repro};
    DiffReport again = recheck.Run(one);
    ASSERT_EQ(again.divergences.size(), 1u) << d.signature;
    EXPECT_EQ(again.divergences[0].signature, d.signature);
  }
}

TEST_F(DiffTest, ReportByteIdenticalAcrossWorkerCounts)
{
  SpecLibrary lib = GroundTruthLibrary();
  std::vector<Prog> corpus = MakeCorpus(lib, 300, 11);

  DiffOptions one;
  one.boot = Boot;
  one.num_workers = 1;
  DiffOptions four = one;
  four.num_workers = 4;

  DiffReport a = DiffRunner(&lib, one).Run(corpus);
  DiffReport b = DiffRunner(&lib, four).Run(corpus);
  EXPECT_FALSE(a.divergences.empty());
  EXPECT_EQ(a.Render(), b.Render());
  // And re-running the same pair is stable, not merely
  // partition-independent.
  DiffReport c = DiffRunner(&lib, four).Run(corpus);
  EXPECT_EQ(b.Render(), c.Render());
}

TEST_F(DiffTest, SessionRoundsRecordRoundScopedDivergences)
{
  SpecLibrary lib = DmLibrary();

  auto options = SessionOptions()
                     .WithSeed(21)
                     .WithRounds(2)
                     .WithProgramBudget(2000)
                     .WithDiffSubject(vkernel::MakePermissiveModel, 2);
  Session session(options, Boot);
  ASSERT_TRUE(session.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(session.Run().ok());

  const SuiteState* state = session.Find("dm");
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->rounds.size(), 2u);
  // dm programs poke invalid fds and unknown paths constantly; the
  // personalities must disagree somewhere every round.
  EXPECT_GE(state->rounds[0].divergences, 1u);
  EXPECT_GE(state->rounds[1].divergences, 1u);
  EXPECT_EQ(state->last_diff.UniqueDivergenceCount(),
            state->rounds[1].divergences);
  EXPECT_EQ(state->last_diff.baseline_name, "strict");
  EXPECT_EQ(state->last_diff.subject_name, "permissive");
}

TEST_F(DiffTest, DivergenceCountSurvivesSaveResume)
{
  SpecLibrary lib = DmLibrary();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kernelgpt_diff_resume_test")
          .string();
  std::filesystem::remove_all(dir);

  auto options = SessionOptions()
                     .WithSeed(9)
                     .WithRounds(2)
                     .WithProgramBudget(2000)
                     .WithDiffSubject(vkernel::MakePermissiveModel);

  Session straight(options, Boot);
  ASSERT_TRUE(straight.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(straight.Run().ok());

  Session first(options, Boot);
  ASSERT_TRUE(first.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(first.RunRound().ok());
  ASSERT_TRUE(first.Save(dir).ok());

  Session resumed(SessionOptions(options).WithRounds(1), Boot);
  ASSERT_TRUE(resumed.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(resumed.Resume(dir).ok());
  ASSERT_TRUE(resumed.Run().ok());

  const SuiteState* a = straight.Find("dm");
  const SuiteState* b = resumed.Find("dm");
  ASSERT_EQ(a->rounds.size(), 2u);
  ASSERT_EQ(b->rounds.size(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(a->rounds[r].divergences, b->rounds[r].divergences) << r;
  }
  // The resumed continuation regenerates the same final report.
  EXPECT_EQ(a->last_diff.Render(), b->last_diff.Render());
  std::filesystem::remove_all(dir);
}

TEST_F(DiffTest, NetPolicyKnobsDivergeStrictVsPermissive)
{
  // Handcrafted net programs hitting exactly the KernelPolicy knobs the
  // vnet stack consults: re-listen on a listening socket and re-bind of
  // a bound socket. Strict refuses both with EINVAL; Permissive allows
  // them — each must surface as a distinct deduplicated divergence, and
  // strict-vs-strict must stay silent on the same corpus.
  SpecLibrary lib;
  lib.SetConsts(*consts_);
  lib.Add(drivers::GroundTruthSocketSpec(*Corpus::Instance().FindSocket("tcp")));
  lib.Finalize();

  size_t socket_idx = lib.syscalls().size();
  size_t bind_idx = lib.syscalls().size();
  size_t listen_idx = lib.syscalls().size();
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    const std::string full = lib.syscalls()[i].FullName();
    if (full == "socket$tcp") socket_idx = i;
    if (full == "bind$tcp") bind_idx = i;
    if (full == "listen$tcp") listen_idx = i;
  }
  ASSERT_LT(socket_idx, lib.syscalls().size());
  ASSERT_LT(bind_idx, lib.syscalls().size());
  ASSERT_LT(listen_idx, lib.syscalls().size());

  auto scalar = [](uint64_t v) {
    Arg a;
    a.scalar = v;
    return a;
  };
  auto ref = [](int call) {
    Arg a;
    a.kind = Arg::Kind::kResourceRef;
    a.ref_call = call;
    return a;
  };
  auto addr = [](uint16_t port) {
    Arg a;
    a.kind = Arg::Kind::kBuffer;
    a.bytes = {2, 0, static_cast<uint8_t>(port), 0, 0, 0, 0, 0};
    return a;
  };
  auto len8 = [&scalar]() {
    Arg a = scalar(8);
    a.len_of_param = 1;
    return a;
  };

  Prog relisten;
  relisten.calls = {
      Call{socket_idx, {scalar(2), scalar(1), scalar(6)}},
      Call{bind_idx, {ref(0), addr(3), len8()}},
      Call{listen_idx, {ref(0), scalar(0)}},
      Call{listen_idx, {ref(0), scalar(0)}},
  };
  Prog rebind;
  rebind.calls = {
      Call{socket_idx, {scalar(2), scalar(1), scalar(6)}},
      Call{bind_idx, {ref(0), addr(3), len8()}},
      Call{bind_idx, {ref(0), addr(4), len8()}},
  };
  std::vector<Prog> corpus = {relisten, rebind};

  DiffOptions options;
  options.boot = Boot;
  DiffRunner runner(&lib, options);
  DiffReport report = runner.Run(corpus);

  ASSERT_EQ(report.divergences.size(), 2u) << report.Render();
  EXPECT_EQ(report.divergences[0].syscall, "listen");
  EXPECT_EQ(report.divergences[1].syscall, "bind");
  for (const Divergence& d : report.divergences) {
    EXPECT_EQ(d.kind, Divergence::Kind::kResult) << d.signature;
    EXPECT_TRUE(d.minimized) << d.signature;
    EXPECT_FALSE(d.repro.empty());
  }

  DiffOptions same;
  same.baseline = vkernel::MakeStrictModel;
  same.subject = vkernel::MakeStrictModel;
  same.boot = Boot;
  DiffReport silent = DiffRunner(&lib, same).Run(corpus);
  EXPECT_TRUE(silent.divergences.empty()) << silent.Render();
}

}  // namespace
}  // namespace kernelgpt::fuzzer
