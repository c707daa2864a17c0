// Persistence demo: a fuzzing session interrupted halfway — including by
// a KILL IN THE MIDDLE OF A SAVE — and resumed in a NEW PROCESS continues
// the exact RNG-deterministic schedule: merged coverage, crash titles,
// and the distilled corpus are identical to an uninterrupted 4-round
// session.
//
// The default invocation drives the whole proof by re-executing itself,
// so every resume really crosses a process boundary:
//   1. <self> run    <dir> 2   — fresh session, 2 rounds, Save(dir)
//   2. <self> crash  <dir> 1   — new process, Resume, 1 more round, then
//                                dies MID-SAVE (after the new session
//                                file's tmp copy is durable, before the
//                                rename commits it) via a kind=exit
//                                fault rule; the directory keeps the
//                                session file of the 2 committed rounds
//   3. <self> resume <dir> 2   — new process, Resume reads the round-2
//                                session file, 2 more rounds, Save
//   4. <self> check  <dir> 4   — new process, Resume(dir), compare
//                                against a straight 4-round session
//
// Build: cmake -B build && cmake --build build
// Run:   ./build/examples/example_resumable_campaign [dir]

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/prog.h"
#include "fuzzer/session.h"
#include "util/fault.h"
#include "vkernel/kernel.h"

using namespace kernelgpt;

namespace {

constexpr uint64_t kSeed = 77;
constexpr int kBudgetPerRound = 8000;
constexpr int kWorkers = 2;

fuzzer::SpecLibrary
MakeLibrary()
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  fuzzer::SpecLibrary lib;
  lib.SetConsts(corpus.BuildIndex().BuildConstTable());
  lib.Add(drivers::GroundTruthDeviceSpec(*corpus.FindDevice("dm")));
  lib.Finalize();
  return lib;
}

fuzzer::Session
MakeSession(int rounds)
{
  fuzzer::OrchestratorOptions orchestrator;
  orchestrator.campaign.program_budget = kBudgetPerRound;
  orchestrator.num_workers = kWorkers;
  orchestrator.sync_interval = 256;
  return fuzzer::Session(fuzzer::SessionOptions()
                             .WithSeed(kSeed)
                             .WithRounds(rounds)
                             .WithOrchestrator(orchestrator),
                         [](vkernel::KernelModel* kernel) {
                           drivers::Corpus::Instance().RegisterAll(kernel);
                         });
}

int
Die(const util::Status& status, const char* what)
{
  std::fprintf(stderr, "%s: %s\n", what, status.message().c_str());
  return 1;
}

void
PrintState(const char* label, const fuzzer::SuiteState& state)
{
  std::printf("%-18s rounds %zu, programs %zu, coverage %zu, "
              "unique crashes %zu, corpus %zu, reproducers %zu\n",
              label, state.rounds.size(), state.programs_executed,
              state.coverage.Count(), state.crashes.size(),
              state.corpus.size(), state.crash_reproducers.size());
}

bool
SameProgs(const std::vector<fuzzer::Prog>& a,
          const std::vector<fuzzer::Prog>& b)
{
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (fuzzer::HashProg(a[i]) != fuzzer::HashProg(b[i])) return false;
  }
  return true;
}

int
RunPhase(const std::string& mode, const std::string& dir, int rounds)
{
  fuzzer::SpecLibrary lib = MakeLibrary();
  fuzzer::Session session = MakeSession(rounds);
  if (util::Status s = session.RegisterSuite("dm", &lib); !s.ok()) {
    return Die(s, "register");
  }
  if (mode != "run") {
    if (util::Status s = session.Resume(dir); !s.ok()) return Die(s, "resume");
  }

  if (mode == "check") {
    // Reference: an uninterrupted session of the same total rounds in
    // THIS process, compared field by field against the resumed state.
    fuzzer::Session straight = MakeSession(rounds);
    if (util::Status s = straight.RegisterSuite("dm", &lib); !s.ok()) {
      return Die(s, "register reference");
    }
    if (util::Status s = straight.Run(); !s.ok()) {
      return Die(s, "run reference");
    }
    const fuzzer::SuiteState& resumed = *session.Find("dm");
    const fuzzer::SuiteState& reference = *straight.Find("dm");
    PrintState("interrupted(2+2):", resumed);
    PrintState("straight(4):", reference);

    bool ok = resumed.coverage.blocks() == reference.coverage.blocks();
    ok = ok && resumed.crashes == reference.crashes;
    ok = ok && resumed.programs_executed == reference.programs_executed;
    ok = ok && SameProgs(resumed.corpus, reference.corpus);
    ok = ok && resumed.crash_reproducers.size() ==
                   reference.crash_reproducers.size();
    for (const auto& [title, prog] : reference.crash_reproducers) {
      auto it = resumed.crash_reproducers.find(title);
      ok = ok && it != resumed.crash_reproducers.end() &&
           fuzzer::HashProg(it->second) == fuzzer::HashProg(prog);
    }
    if (!ok) {
      std::fprintf(stderr, "MISMATCH: resumed state diverged from the "
                           "uninterrupted session\n");
      return 1;
    }
    std::printf("OK: save/resume across processes is bit-identical to the "
                "uninterrupted %d-round session\n",
                rounds);
    return 0;
  }

  if (util::Status s = session.Run(); !s.ok()) return Die(s, "run");
  PrintState(mode == "run" ? "after run:" : "after resume:",
             *session.Find("dm"));
  if (mode == "crash") {
    // Die mid-save: the rule fires once the session file's tmp copy is
    // durable but before the rename commits it — the widest window in
    // which a non-atomic writer would have destroyed the old file.
    if (util::Status s = util::FaultInjector::Instance().ArmFromSpec(
            "site=fileio.rename,kind=exit,match=session.manifest");
        !s.ok()) {
      return Die(s, "arm crash rule");
    }
    util::Status s = session.Save(dir);
    std::fprintf(stderr, "crash phase survived Save (%s)\n",
                 s.ok() ? "ok" : s.message().c_str());
    return 1;  // Unreachable when the rule fires.
  }
  if (util::Status s = session.Save(dir); !s.ok()) return Die(s, "save");
  std::printf("saved %d rounds to %s\n", session.rounds_completed(),
              dir.c_str());
  return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
  if (argc >= 4 && (std::strcmp(argv[1], "run") == 0 ||
                    std::strcmp(argv[1], "crash") == 0 ||
                    std::strcmp(argv[1], "resume") == 0 ||
                    std::strcmp(argv[1], "check") == 0)) {
    return RunPhase(argv[1], argv[2], std::atoi(argv[3]));
  }

  const std::string dir =
      argc > 1 ? argv[1]
               : (std::filesystem::temp_directory_path() /
                  "kernelgpt_resumable_demo")
                     .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // Stale snapshots would resume.

  const std::string self = argv[0];
  struct Phase {
    std::string cmd;
    int expect_exit;
  };
  const Phase phases[] = {
      {self + " run " + dir + " 2", 0},
      {self + " crash " + dir + " 1", 42},  // The exit rule _exits 42.
      {self + " resume " + dir + " 2", 0},
      {self + " check " + dir + " 4", 0},
  };
  for (const Phase& phase : phases) {
    std::printf("== %s\n", phase.cmd.c_str());
    std::fflush(stdout);  // Keep parent/child output ordered.
    const int rc = std::system(phase.cmd.c_str());
    const int exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    if (exit_code != phase.expect_exit) {
      std::fprintf(stderr, "phase failed (exit %d, wanted %d): %s\n",
                   exit_code, phase.expect_exit, phase.cmd.c_str());
      return 1;
    }
    if (phase.expect_exit == 42) {
      std::printf("killed mid-save as planned; the session file's rename "
                  "never landed\n");
    }
  }
  return 0;
}
