// End-to-end campaign over the vnet TCP/UDP stack: a Session fuzzes the
// ground-truth net specs (seeded with canonical establish/datagram
// programs), distills each round's corpus, and prints the minimized
// state-machine-violation reproducers the crash pipeline shrank — the
// new crash class the stateful stack opens beyond bad-argument errnos.
//
// Build: cmake -B build && cmake --build build
// Run:   ./build/examples/example_net_campaign [rounds] [workers]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/prog.h"
#include "fuzzer/session.h"
#include "vkernel/kernel.h"
#include "vnet/inet.h"

using namespace kernelgpt;

namespace {

size_t
FindCall(const fuzzer::SpecLibrary& lib, const char* full_name)
{
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    if (lib.syscalls()[i].FullName() == full_name) return i;
  }
  std::fprintf(stderr, "missing syscall %s\n", full_name);
  std::exit(1);
}

fuzzer::Arg
Scalar(uint64_t v)
{
  fuzzer::Arg a;
  a.scalar = v;
  return a;
}

fuzzer::Arg
Ref(int call)
{
  fuzzer::Arg a;
  a.kind = fuzzer::Arg::Kind::kResourceRef;
  a.ref_call = call;
  return a;
}

fuzzer::Arg
AddrBuf(uint16_t port)
{
  fuzzer::Arg a;
  a.kind = fuzzer::Arg::Kind::kBuffer;
  a.bytes = {2, 0, static_cast<uint8_t>(port & 0xff),
             static_cast<uint8_t>(port >> 8), 0, 0, 0, 0};
  return a;
}

fuzzer::Arg
Len(uint64_t v, int of_param)
{
  fuzzer::Arg a = Scalar(v);
  a.len_of_param = of_param;
  return a;
}

/// The canonical establish + accept program — the seed the mutator
/// perturbs into the surrounding protocol state space.
std::vector<fuzzer::Prog>
NetSeeds(const fuzzer::SpecLibrary& lib)
{
  const size_t sock = FindCall(lib, "socket$tcp");
  const size_t bind = FindCall(lib, "bind$tcp");
  const size_t listen = FindCall(lib, "listen$tcp");
  const size_t connect = FindCall(lib, "connect$tcp");
  const size_t accept = FindCall(lib, "accept$tcp");

  fuzzer::Prog establish;
  establish.calls = {
      fuzzer::Call{sock, {Scalar(2), Scalar(1), Scalar(6)}},
      fuzzer::Call{bind, {Ref(0), AddrBuf(5), Len(8, 1)}},
      fuzzer::Call{listen, {Ref(0), Scalar(0)}},
      fuzzer::Call{sock, {Scalar(2), Scalar(1), Scalar(6)}},
      fuzzer::Call{connect, {Ref(3), AddrBuf(5), Len(8, 1)}},
      fuzzer::Call{accept, {Ref(0), Scalar(0), Scalar(0)}},
  };
  return {establish};
}

}  // namespace

int
main(int argc, char** argv)
{
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 3;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 4;

  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  fuzzer::SpecLibrary lib;
  lib.SetConsts(corpus.BuildIndex().BuildConstTable());
  lib.Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("tcp")));
  lib.Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("udp")));
  lib.Finalize();

  auto boot = [&corpus](vkernel::KernelModel* kernel) {
    corpus.RegisterAll(kernel);
  };

  fuzzer::OrchestratorOptions orchestrator;
  orchestrator.campaign.program_budget = 20000;
  orchestrator.num_workers = workers;
  orchestrator.sync_interval = 256;

  fuzzer::Session session(fuzzer::SessionOptions()
                              .WithSeed(2026)
                              .WithRounds(rounds)
                              .WithOrchestrator(orchestrator),
                          boot);
  if (util::Status status = session.RegisterSuite("net", &lib); !status.ok()) {
    std::fprintf(stderr, "register: %s\n", status.message().c_str());
    return 1;
  }
  session.Find("net")->corpus = NetSeeds(lib);

  std::printf("vnet campaign: %d rounds x %d programs on %d workers over "
              "the tcp/udp ground-truth specs\n\n",
              rounds, orchestrator.campaign.program_budget, workers);

  if (util::Status status = session.Run(); !status.ok()) {
    std::fprintf(stderr, "run: %s\n", status.message().c_str());
    return 1;
  }

  const fuzzer::SuiteState& state = *session.Find("net");
  std::printf("%-6s %12s %12s %10s %8s\n", "round", "merged", "distilled",
              "cum cov", "crashes");
  for (const fuzzer::RoundReport& round : state.rounds) {
    std::printf("%-6d %12zu %12zu %10zu %8zu\n", round.round,
                round.merged_corpus, round.distilled_corpus,
                round.cumulative_coverage, round.cumulative_unique_crashes);
  }

  // Which protocol depths did the campaign reach?
  const drivers::BlockLayout blocks =
      vnet::TcpBlockLayout(*corpus.FindSocket("tcp"));
  const char* depths[] = {"SYN_SENT->ESTABLISHED", "FIN_WAIT2->TIME_WAIT",
                          "CLOSE_WAIT->LAST_ACK"};
  std::printf("\nProtocol depth:\n");
  for (const char* t : depths) {
    std::printf("  %-24s %s\n", t,
                state.coverage.Contains(blocks.IdOf("trans", t, 0))
                    ? "reached"
                    : "not reached");
  }

  std::printf("\nMinimized state-machine-violation reproducers:\n");
  int shown = 0;
  for (const auto& [title, prog] : state.crash_reproducers) {
    if (std::strncmp(title.c_str(), vnet::kViolationPrefix,
                     std::strlen(vnet::kViolationPrefix)) != 0) {
      continue;
    }
    ++shown;
    std::printf("-- %s (%zu calls)\n%s", title.c_str(), prog.size(),
                FormatProg(prog, lib).c_str());
  }
  if (shown == 0) {
    std::printf("  (none found at this budget)\n");
    return 1;
  }
  return 0;
}
