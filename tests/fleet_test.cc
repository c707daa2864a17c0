// Tests for the fuzzer::Fleet supervisor and the fault-injection
// substrate it is built on:
//  - a fault-free fleet reproduces standalone Session runs bit for bit;
//  - an injected worker failure is retried in place and the retried
//    fleet converges bit-identically to the fault-free run;
//  - a simulated crash in the widest kill-mid-save window (tmp durable,
//    rename pending) is recovered by rebuild + Resume, bit-identically;
//  - a transient ENOSPC on a save keeps the round loop alive (degraded
//    report, durability lagging) and heals on the next save, leaving the
//    directory resumable;
//  - a permanently failing tenant is quarantined while its sibling
//    finishes bit-identically to a fault-free run;
//  - the supervisor thread count changes neither the report rendering
//    nor any tenant's final state, with and without an armed plan;
//  - the $KERNELGPT_FAULT_PLAN env path (the CI soak gate) converges to
//    the fault-free result under a bounded mixed fault plan whose disk
//    fault fires on a tenant's autosave.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/fleet.h"
#include "fuzzer/session.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class FleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    consts_ = new syzlang::ConstTable(
        Corpus::Instance().BuildIndex().BuildConstTable());
  }
  static void TearDownTestSuite() {
    delete consts_;
    consts_ = nullptr;
  }

  void TearDown() override { util::FaultInjector::Instance().Disarm(); }

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

  /// Short 2-worker per-round options: big enough to exercise the
  /// barrier protocol, small enough to run many rounds per test.
  static OrchestratorOptions SmallRound() {
    OrchestratorOptions options;
    options.campaign.program_budget = 3000;
    options.num_workers = 2;
    options.sync_interval = 150;
    return options;
  }

  static SessionOptions TenantOptions(uint64_t seed,
                                      const std::string& autosave_dir) {
    SessionOptions options;
    options.WithSeed(seed).WithOrchestrator(SmallRound());
    if (!autosave_dir.empty()) options.WithAutosave(autosave_dir, 1);
    return options;
  }

  /// A deterministic tenant factory: fresh Session, one dm suite.
  static Fleet::SessionFactory MakeTenant(uint64_t seed,
                                          std::string autosave_dir = "") {
    return [seed, autosave_dir]() -> std::unique_ptr<Session> {
      auto session = std::make_unique<Session>(
          TenantOptions(seed, autosave_dir), Boot);
      if (!session->RegisterSuite("suite", DmLibrary()).ok()) return nullptr;
      return session;
    };
  }

  /// Fresh per-test scratch directory under the gtest temp root.
  static std::string ScratchDir(const std::string& leaf) {
    const std::string dir =
        ::testing::TempDir() + "kernelgpt_fleet_test/" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// The detail string the orchestrator.worker fault point reports for a
  /// given campaign seed (any shard) — the handle fault plans scope by.
  static std::string WorkerDetail(uint64_t master_seed, int round) {
    const uint64_t seed =
        round == 0 ? master_seed
                   : util::HashCombine(master_seed, static_cast<uint64_t>(round));
    return util::Format("seed=%016llx", static_cast<unsigned long long>(seed));
  }

  static const SuiteState& StateOf(const Fleet& fleet,
                                   const std::string& tenant) {
    const Session* session = fleet.FindSession(tenant);
    EXPECT_NE(session, nullptr) << tenant;
    const SuiteState* state = session->Find("suite");
    EXPECT_NE(state, nullptr) << tenant;
    return *state;
  }

  static void ExpectSameState(const SuiteState& a, const SuiteState& b,
                              const std::string& label) {
    EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks()) << label;
    EXPECT_EQ(a.crashes, b.crashes) << label;
    EXPECT_EQ(a.programs_executed, b.programs_executed) << label;
    ASSERT_EQ(a.corpus.size(), b.corpus.size()) << label;
    for (size_t i = 0; i < a.corpus.size(); ++i) {
      EXPECT_EQ(HashProg(a.corpus[i]), HashProg(b.corpus[i]))
          << label << " program " << i;
    }
    ASSERT_EQ(a.crash_reproducers.size(), b.crash_reproducers.size()) << label;
    for (const auto& [title, prog] : a.crash_reproducers) {
      auto it = b.crash_reproducers.find(title);
      ASSERT_NE(it, b.crash_reproducers.end()) << label << " " << title;
      EXPECT_EQ(HashProg(prog), HashProg(it->second)) << label << " " << title;
    }
  }

  static constexpr uint64_t kSeedA = 0xA11CE;
  static constexpr uint64_t kSeedB = 0xB0B;

  static syzlang::ConstTable* consts_;
};

syzlang::ConstTable* FleetTest::consts_ = nullptr;

TEST_F(FleetTest, FaultFreeFleetMatchesStandaloneSessions)
{
  Fleet fleet(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(fleet.AddSession("alpha", MakeTenant(kSeedA)).ok());
  ASSERT_TRUE(fleet.AddSession("beta", MakeTenant(kSeedB)).ok());
  FleetReport report = fleet.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.message();
  EXPECT_TRUE(report.AllComplete()) << report.Render();

  for (const auto& [name, seed] :
       {std::pair<std::string, uint64_t>{"alpha", kSeedA},
        std::pair<std::string, uint64_t>{"beta", kSeedB}}) {
    Session standalone(TenantOptions(seed, ""), Boot);
    ASSERT_TRUE(standalone.RegisterSuite("suite", DmLibrary()).ok());
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(standalone.RunRound().ok());
    }
    ExpectSameState(StateOf(fleet, name), *standalone.Find("suite"), name);
  }
}

TEST_F(FleetTest, RegistrationErrorsSurfaceAsStatus)
{
  Fleet fleet(FleetOptions().WithEnvPlan(false));
  EXPECT_FALSE(fleet.AddSession("", MakeTenant(1)).ok());
  EXPECT_FALSE(fleet.AddSession("x", nullptr).ok());
  ASSERT_TRUE(fleet.AddSession("x", MakeTenant(1)).ok());
  EXPECT_FALSE(fleet.AddSession("x", MakeTenant(2)).ok());

  Fleet empty(FleetOptions().WithEnvPlan(false));
  EXPECT_FALSE(empty.Run().status.ok());
}

TEST_F(FleetTest, InjectedWorkerFaultIsRetriedAndConvergesBitIdentically)
{
  // Baseline: no faults.
  Fleet clean(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(clean.AddSession("alpha", MakeTenant(kSeedA)).ok());
  ASSERT_TRUE(clean.AddSession("beta", MakeTenant(kSeedB)).ok());
  ASSERT_TRUE(clean.Run().AllComplete());

  // Fail alpha's round-1 campaign once: the rule is scoped by that
  // round's seed, so it cannot leak onto beta or other rounds.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("site=orchestrator.worker,kind=throw,match=" +
                               WorkerDetail(kSeedA, 1))
                  .ok());
  Fleet faulty(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(faulty.AddSession("alpha", MakeTenant(kSeedA)).ok());
  ASSERT_TRUE(faulty.AddSession("beta", MakeTenant(kSeedB)).ok());
  FleetReport report = faulty.Run();
  EXPECT_TRUE(report.AllComplete()) << report.Render();
  EXPECT_EQ(util::FaultInjector::Instance().FiredCount("orchestrator.worker"),
            1u);
  EXPECT_EQ(report.tenants[0].retries, 1) << report.Render();
  EXPECT_EQ(report.tenants[0].failures, 0) << report.Render();
  EXPECT_GT(report.tenants[0].backoff_ms, 0.0);
  EXPECT_EQ(report.tenants[1].retries, 0) << report.Render();

  // Failure-atomic rounds + deterministic retry => identical end state.
  ExpectSameState(StateOf(faulty, "alpha"), StateOf(clean, "alpha"), "alpha");
  ExpectSameState(StateOf(faulty, "beta"), StateOf(clean, "beta"), "beta");
}

TEST_F(FleetTest, CrashMidSaveRecoversFromSnapshotBitIdentically)
{
  const std::string clean_dir = ScratchDir("crash_clean/alpha");
  const std::string crash_dir = ScratchDir("crash_faulty/alpha");

  Fleet clean(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(clean.AddSession("alpha", MakeTenant(kSeedA, clean_dir)).ok());
  ASSERT_TRUE(clean.Run().AllComplete());

  // Kill the process in the widest mid-save window: round 2's manifest
  // tmp file is durable but the commit rename has not happened. The
  // directory must still be resumable at round 1's commit.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec(
                      "site=fileio.rename,kind=crash,nth=2,"
                      "match=crash_faulty/alpha/session.manifest")
                  .ok());
  Fleet faulty(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(faulty.AddSession("alpha", MakeTenant(kSeedA, crash_dir)).ok());
  FleetReport report = faulty.Run();
  EXPECT_TRUE(report.AllComplete()) << report.Render();
  EXPECT_EQ(report.tenants[0].recoveries, 1) << report.Render();
  EXPECT_NE(report.tenants[0].last_error.find("injected crash"),
            std::string::npos)
      << report.Render();

  ExpectSameState(StateOf(faulty, "alpha"), StateOf(clean, "alpha"), "alpha");

  // The recovered tenant's directory committed all 3 rounds in the end.
  auto probe = MakeTenant(kSeedA, crash_dir)();
  ASSERT_NE(probe, nullptr);
  ASSERT_TRUE(probe->Resume(crash_dir).ok());
  EXPECT_EQ(probe->rounds_completed(), 3);
}

TEST_F(FleetTest, TransientSaveFailureDegradesAndHeals)
{
  const std::string clean_dir = ScratchDir("degrade_clean/alpha");
  const std::string slow_dir = ScratchDir("degrade_faulty/alpha");

  Fleet clean(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(clean.AddSession("alpha", MakeTenant(kSeedA, clean_dir)).ok());
  ASSERT_TRUE(clean.Run().AllComplete());

  // Round 2's autosave hits ENOSPC once. The round loop must keep going
  // with the round not yet durable, the degradation must be reported,
  // and the next autosave must commit everything.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec(
                      "site=fileio.atomic_write,kind=errno,errno=ENOSPC,"
                      "nth=2,match=degrade_faulty/alpha")
                  .ok());
  Fleet faulty(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(faulty.AddSession("alpha", MakeTenant(kSeedA, slow_dir)).ok());
  FleetReport report = faulty.Run();
  EXPECT_TRUE(report.AllComplete()) << report.Render();
  EXPECT_EQ(report.tenants[0].failures, 0) << report.Render();
  ASSERT_EQ(report.tenants[0].degraded.size(), 1u) << report.Render();
  EXPECT_NE(report.tenants[0].degraded[0].find("snapshot:"),
            std::string::npos);
  EXPECT_NE(report.tenants[0].degraded[0].find("ENOSPC"), std::string::npos);

  // Fuzzing state never depended on the disk.
  ExpectSameState(StateOf(faulty, "alpha"), StateOf(clean, "alpha"), "alpha");
  // And durability caught up: every round is durable and resumable.
  EXPECT_EQ(faulty.FindSession("alpha")->pending_rounds(), 0);
  auto probe = MakeTenant(kSeedA, slow_dir)();
  ASSERT_NE(probe, nullptr);
  ASSERT_TRUE(probe->Resume(slow_dir).ok());
  EXPECT_EQ(probe->rounds_completed(), 3);
}

TEST_F(FleetTest, QuarantineIsolatesAFailingTenantFromItsSiblings)
{
  Fleet clean(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(clean.AddSession("alpha", MakeTenant(kSeedA)).ok());
  ASSERT_TRUE(clean.Run().AllComplete());

  // Beta's round 0 fails on every attempt, forever.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec(
                      "site=orchestrator.worker,kind=throw,times=-1,match=" +
                      WorkerDetail(kSeedB, 0))
                  .ok());
  Fleet faulty(FleetOptions()
                   .WithTargetRounds(3)
                   .WithQuarantineAfter(3)
                   .WithRetryPolicy(util::RetryPolicy().WithMaxRetries(1))
                   .WithEnvPlan(false));
  ASSERT_TRUE(faulty.AddSession("alpha", MakeTenant(kSeedA)).ok());
  ASSERT_TRUE(faulty.AddSession("beta", MakeTenant(kSeedB)).ok());
  FleetReport report = faulty.Run();

  EXPECT_FALSE(report.AllComplete());
  const TenantReport& alpha = report.tenants[0];
  const TenantReport& beta = report.tenants[1];
  EXPECT_TRUE(alpha.complete) << report.Render();
  EXPECT_FALSE(alpha.quarantined);
  EXPECT_TRUE(beta.quarantined) << report.Render();
  EXPECT_FALSE(beta.complete);
  EXPECT_EQ(beta.rounds_completed, 0);
  EXPECT_EQ(beta.failures, 3) << report.Render();
  EXPECT_NE(beta.last_error.find("injected throw fault"), std::string::npos);

  // The sibling never noticed.
  ExpectSameState(StateOf(faulty, "alpha"), StateOf(clean, "alpha"), "alpha");
}

TEST_F(FleetTest, SupervisorThreadCountChangesNothing)
{
  const std::string plan =
      "site=orchestrator.worker,kind=throw,match=" + WorkerDetail(kSeedA, 1);
  auto run_fleet = [&](int threads) {
    // Same plan re-armed per run: its counters are consumed by firing.
    EXPECT_TRUE(util::FaultInjector::Instance().ArmFromSpec(plan).ok());
    auto fleet = std::make_unique<Fleet>(FleetOptions()
                                             .WithTargetRounds(2)
                                             .WithSupervisorThreads(threads)
                                             .WithEnvPlan(false));
    EXPECT_TRUE(fleet->AddSession("alpha", MakeTenant(kSeedA)).ok());
    EXPECT_TRUE(fleet->AddSession("beta", MakeTenant(kSeedB)).ok());
    EXPECT_TRUE(fleet->AddSession("gamma", MakeTenant(0xCAFE)).ok());
    return fleet;
  };

  auto serial = run_fleet(1);
  FleetReport serial_report = serial->Run();
  auto threaded = run_fleet(4);
  FleetReport threaded_report = threaded->Run();

  // Byte-identical reports AND byte-identical tenant states.
  EXPECT_EQ(serial_report.Render(), threaded_report.Render());
  for (const char* name : {"alpha", "beta", "gamma"}) {
    ExpectSameState(StateOf(*threaded, name), StateOf(*serial, name), name);
  }
}

TEST_F(FleetTest, EnvPlanSoakConvergesToTheFaultFreeResult)
{
  // Fault-free baseline.
  Fleet clean(FleetOptions().WithTargetRounds(3).WithEnvPlan(false));
  ASSERT_TRUE(clean.AddSession("alpha", MakeTenant(kSeedA)).ok());
  ASSERT_TRUE(clean.AddSession("beta", MakeTenant(kSeedB)).ok());
  ASSERT_TRUE(clean.Run().AllComplete());

  // The CI soak gate exports KERNELGPT_FAULT_PLAN and reruns this test;
  // without one, arm the same bounded mixed plan the gate uses. Bounded
  // windows (nth/times, no p=) guarantee the retries absorb every fault
  // regardless of scheduling, so convergence is a hard invariant. The
  // faulty tenants autosave, so the plan's disk rule has a save to fail.
  const char* env_plan = std::getenv("KERNELGPT_FAULT_PLAN");
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec(env_plan && *env_plan
                                   ? env_plan
                                   : "seed=7;"
                                     "site=orchestrator.worker,kind=throw,"
                                     "nth=1,times=2;"
                                     "site=fileio.atomic_write,kind=errno,"
                                     "errno=ENOSPC,nth=1,times=1")
                  .ok());
  Fleet faulty(FleetOptions().WithTargetRounds(3).WithEnvPlan(true));
  ASSERT_TRUE(faulty
                  .AddSession("alpha",
                              MakeTenant(kSeedA, ScratchDir("soak/alpha")))
                  .ok());
  ASSERT_TRUE(
      faulty.AddSession("beta", MakeTenant(kSeedB, ScratchDir("soak/beta")))
          .ok());
  FleetReport report = faulty.Run();
  EXPECT_TRUE(report.AllComplete()) << report.Render();

  // The disk rule fired once, on one tenant's autosave, and that tenant
  // reported the degradation.
  EXPECT_EQ(util::FaultInjector::Instance().FiredCount("fileio.atomic_write"),
            1u);
  bool reported_enospc = false;
  for (const TenantReport& tenant : report.tenants) {
    for (const std::string& line : tenant.degraded) {
      reported_enospc |= line.find("ENOSPC") != std::string::npos;
    }
  }
  EXPECT_TRUE(reported_enospc) << report.Render();

  ExpectSameState(StateOf(faulty, "alpha"), StateOf(clean, "alpha"), "alpha");
  ExpectSameState(StateOf(faulty, "beta"), StateOf(clean, "beta"), "beta");
}

}  // namespace
}  // namespace kernelgpt::fuzzer
