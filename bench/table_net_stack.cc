// Experiments table: coverage and crash yield on the stateful vnet
// TCP/UDP stack vs the driver-only baseline. The net stack's crash
// surface is qualitatively different — state-machine violations rather
// than bad-argument errnos — and seeding the campaign with the
// ground-truth establish program unlocks the deep protocol states
// (ESTABLISHED through TIME_WAIT) that generation alone rarely reaches.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/orchestrator.h"
#include "util/table.h"
#include "vkernel/kernel.h"
#include "vnet/inet.h"

using namespace kernelgpt;

namespace {

constexpr int kBudget = 12000;
constexpr int kWorkers = 4;

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

struct CellResult {
  size_t coverage = 0;
  size_t unique_crashes = 0;
  size_t violations = 0;  ///< Unique state-machine-violation titles.
  bool deep_states = false;
};

CellResult
RunCell(const fuzzer::SpecLibrary& lib, uint64_t seed,
        std::vector<fuzzer::Prog> seeds)
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  fuzzer::OrchestratorOptions options;
  options.campaign.seed = seed;
  options.campaign.program_budget = kBudget;
  options.campaign.seed_corpus = std::move(seeds);
  options.num_workers = kWorkers;
  options.sync_interval = 256;
  fuzzer::OrchestratorResult result = fuzzer::RunShardedCampaign(
      lib, [&corpus](vkernel::KernelModel* k) { corpus.RegisterAll(k); },
      options);

  CellResult cell;
  cell.coverage = result.coverage.Count();
  cell.unique_crashes = result.crashes.size();
  for (const auto& [title, count] : result.crashes) {
    if (std::strncmp(title.c_str(), vnet::kViolationPrefix,
                     std::strlen(vnet::kViolationPrefix)) == 0) {
      ++cell.violations;
    }
  }
  const drivers::BlockLayout blocks =
      vnet::TcpBlockLayout(*corpus.FindSocket("tcp"));
  cell.deep_states =
      result.coverage.Contains(
          blocks.IdOf("trans", "SYN_SENT->ESTABLISHED", 0)) &&
      result.coverage.Contains(blocks.IdOf("trans", "FIN_WAIT2->TIME_WAIT", 0));
  return cell;
}

}  // namespace

int
main()
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  const syzlang::ConstTable consts = corpus.BuildIndex().BuildConstTable();

  // Driver-only baseline: the ground-truth char-device suite.
  fuzzer::SpecLibrary driver_lib;
  driver_lib.SetConsts(consts);
  for (const drivers::DeviceSpec* dev : corpus.LoadedDevices()) {
    driver_lib.Add(drivers::GroundTruthDeviceSpec(*dev));
  }
  driver_lib.Finalize();

  // Net stack: the two vnet-backed ground-truth socket specs.
  fuzzer::SpecLibrary net_lib;
  net_lib.SetConsts(consts);
  net_lib.Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("tcp")));
  net_lib.Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("udp")));
  net_lib.Finalize();

  std::printf("Net-stack vs driver-only fuzzing yield "
              "(%d programs, %d-worker orchestrator per cell)\n\n",
              kBudget, kWorkers);

  util::Table table({"Target", "#Sys", "Coverage", "Uniq crash",
                     "State viol", "Deep TCP states"});
  const CellResult drv = RunCell(driver_lib, 1300, {});
  table.AddRow({"drivers only", std::to_string(driver_lib.syscalls().size()),
                std::to_string(drv.coverage), std::to_string(drv.unique_crashes),
                std::to_string(drv.violations), "n/a"});
  const CellResult net = RunCell(net_lib, 1400, {});
  table.AddRow({"net (generated)", std::to_string(net_lib.syscalls().size()),
                std::to_string(net.coverage), std::to_string(net.unique_crashes),
                std::to_string(net.violations),
                net.deep_states ? "reached" : "not reached"});
  const CellResult seeded = RunCell(net_lib, 1400, NetSeeds(net_lib));
  table.AddRow({"net (seeded)", std::to_string(net_lib.syscalls().size()),
                std::to_string(seeded.coverage),
                std::to_string(seeded.unique_crashes),
                std::to_string(seeded.violations),
                seeded.deep_states ? "reached" : "not reached"});
  std::printf("%s\n", table.Render().c_str());

  std::printf("The state-machine-violation crash class exists only behind "
              "the stateful stack; seeding with the canonical establish "
              "program is what unlocks the deep ESTABLISHED/TIME_WAIT "
              "transitions.\n");
  return 0;
}
