// Engineering micro-benchmarks (google-benchmark): parser, renderer,
// spec generation, and fuzzing throughput. Not a paper table; documents
// that the substrate is fast enough for the experiment budgets.

#include <benchmark/benchmark.h>

#include <memory>

#include "drivers/corpus.h"
#include "drivers/model_render.h"
#include "drivers/model_spec.h"
#include "experiments/context.h"
#include "fuzzer/distiller.h"
#include "fuzzer/executor.h"
#include "fuzzer/fleet.h"
#include "fuzzer/generator.h"
#include "fuzzer/orchestrator.h"
#include "fuzzer/session.h"
#include "fuzzer/snapshot.h"
#include "ksrc/cparser.h"
#include "syzlang/parser.h"
#include "syzlang/printer.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vkernel/kernel.h"

using namespace kernelgpt;

namespace {

const drivers::DeviceSpec&
Dm()
{
  return *drivers::Corpus::Instance().FindDevice("dm");
}

void
BM_RenderDeviceSource(benchmark::State& state)
{
  for (auto _ : state) {
    benchmark::DoNotOptimize(drivers::RenderDeviceSource(Dm()));
  }
}
BENCHMARK(BM_RenderDeviceSource);

void
BM_CParseDriver(benchmark::State& state)
{
  std::string src = drivers::RenderDeviceSource(Dm());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ksrc::CParse(src, "dm.c"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_CParseDriver);

/// The whole kernel-source index: render, lex and parse all 69 corpus
/// files, fill the lookup maps and resolve the macros.
void
BM_BuildIndex(benchmark::State& state)
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(corpus.BuildIndex());
  }
}
BENCHMARK(BM_BuildIndex)->Unit(benchmark::kMillisecond);

void
BM_SyzlangRoundTrip(benchmark::State& state)
{
  std::string text = syzlang::Print(drivers::GroundTruthDeviceSpec(Dm()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(syzlang::Parse(text, "dm"));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_SyzlangRoundTrip);

/// Campaign throughput on one orchestrator worker (kernel boot
/// included); the arg is the program budget.
void
BM_FuzzThroughput(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();
  fuzzer::OrchestratorOptions options;
  options.campaign.seed = 42;
  options.campaign.program_budget = static_cast<int>(state.range(0));
  options.num_workers = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzzer::RunShardedCampaign(
        lib,
        [&context](vkernel::Kernel* kernel) { context.BootKernel(kernel); },
        options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FuzzThroughput)->Arg(2000);

/// Program generation over the full suite at the campaign's program
/// length. Arg(0) keeps one warm Generator; Arg(1) constructs a fresh
/// Generator every 256 programs, as pipebench's per-layer timing does.
/// Items = generated programs.
void
BM_Generate(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();
  const bool fresh = state.range(0) != 0;
  const int max_len = fuzzer::CampaignOptions().max_prog_len;
  util::Rng rng(42);
  auto generator = std::make_unique<fuzzer::Generator>(&lib, &rng);
  int64_t programs = 0;
  for (auto _ : state) {
    if (fresh && programs % 256 == 0) {
      generator = std::make_unique<fuzzer::Generator>(&lib, &rng);
    }
    benchmark::DoNotOptimize(generator->Generate(max_len));
    ++programs;
  }
  state.SetItemsProcessed(programs);
}
BENCHMARK(BM_Generate)->Arg(0)->Arg(1);

/// End-to-end dispatched-call cost: replays a fixed program set (no
/// generation or mutation) through Executor::Run, so each item is one
/// syscall through the opcode switch, kernel, driver-model handler, and
/// coverage accounting — the executor's replay cost per call, not the
/// switch in isolation.
void
BM_ExecutorDispatch(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();
  vkernel::Kernel kernel;
  context.BootKernel(&kernel);

  util::Rng rng(7);
  fuzzer::Generator generator(&lib, &rng);
  std::vector<fuzzer::Prog> progs;
  size_t calls = 0;
  for (int i = 0; i < 64; ++i) {
    fuzzer::Prog prog = generator.Generate(6);
    if (prog.empty()) continue;
    calls += prog.calls.size();
    progs.push_back(std::move(prog));
  }

  fuzzer::Executor executor(&kernel, &lib);
  vkernel::Coverage total;
  for (auto _ : state) {
    for (const fuzzer::Prog& prog : progs) {
      benchmark::DoNotOptimize(executor.Run(prog, &total));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(calls));
}
BENCHMARK(BM_ExecutorDispatch);

/// Per-open cost of the vkernel open path: open + close of a model
/// device in steady state, where the handler pool (PR 4) serves every
/// open from its free list — zero allocations per iteration. Items =
/// open/close pairs.
void
BM_KernelOpenClose(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  vkernel::Kernel kernel;
  context.BootKernel(&kernel);
  vkernel::Coverage cov;
  vkernel::ExecContext ctx(&cov);
  for (auto _ : state) {
    // One program's open/close round trip (the fd table is per-program,
    // so BeginProgram is part of the real per-open cost).
    kernel.BeginProgram();
    long fd = kernel.Openat("/dev/mapper/control", 0, ctx).retval;
    benchmark::DoNotOptimize(fd);
    kernel.Close(fd, ctx);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelOpenClose);

/// Per-kernel boot cost: a fresh strict Kernel plus Corpus::RegisterAll,
/// destruction included — what every orchestrator worker, distill pass,
/// DiffRunner side and fleet recovery pays. The shared driver tables are
/// built by the first boot; every timed boot only allocates the thin
/// per-kernel drivers over them. Items = boots.
void
BM_KernelBoot(benchmark::State& state)
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  for (auto _ : state) {
    vkernel::Kernel kernel;
    corpus.RegisterAll(&kernel);
    benchmark::DoNotOptimize(kernel.devices().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelBoot);

/// Steady-state coverage merge: per-program coverage deltas merged into
/// an accumulated set that already contains them (the common case after
/// warmup); items = merges.
void
BM_CoverageMerge(benchmark::State& state)
{
  const int kBlocks = static_cast<int>(state.range(0));
  vkernel::Coverage delta;
  for (int i = 0; i < kBlocks; ++i) {
    delta.Hit(vkernel::MakeBlockId(0x1234abcd + (i % 13),
                                   static_cast<uint32_t>(i)));
  }
  vkernel::Coverage total;
  total.Merge(delta);
  for (auto _ : state) {
    benchmark::DoNotOptimize(total.Merge(delta));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CoverageMerge)->Arg(256)->Arg(4096);

/// Distiller-invariant cost: CountNotIn between two mostly-overlapping
/// sets (the distilled candidate vs the merged corpus coverage), the
/// comparison CoversAll runs per distillation pass; items = calls.
void
BM_CoverageCountNotIn(benchmark::State& state)
{
  const int kBlocks = static_cast<int>(state.range(0));
  vkernel::Coverage a, b;
  for (int i = 0; i < kBlocks; ++i) {
    const uint64_t id =
        vkernel::MakeBlockId(0x1234abcd + (i % 13), static_cast<uint32_t>(i));
    a.Hit(id);
    if (i % 17 != 0) b.Hit(id);  // b misses ~6% of a: the realistic gap.
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.CountNotIn(b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CoverageCountNotIn)->Arg(256)->Arg(4096);

/// Raw Hit() cost in the executor's access pattern: runs of MakeBlockId
/// neighbours (served by the one-entry last-page cache) over a
/// steady-state set where every bit is already set; items = hits.
void
BM_CoverageHit(benchmark::State& state)
{
  vkernel::Coverage cov;
  constexpr int kBlocks = 4096;
  for (int i = 0; i < kBlocks; ++i) {
    cov.Hit(vkernel::MakeBlockId(0x1234abcd + (i % 13),
                                 static_cast<uint32_t>(i)));
  }
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cov.Hit(
        vkernel::MakeBlockId(0x1234abcd + (i % 13), i)));
    i = (i + 1) % kBlocks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CoverageHit);

/// Between-campaign distillation cost: one pass (dedup + replay
/// for signatures + greedy cover + crash minimization) over the merged
/// corpus of a fixed 4-worker campaign; items = input corpus programs, so
/// items/sec is distillation throughput per merged-corpus program.
void
BM_Distill(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();
  auto boot = [&context](vkernel::Kernel* k) { context.BootKernel(k); };

  fuzzer::OrchestratorOptions options;
  options.campaign.seed = 42;
  options.campaign.program_budget = 8000;
  options.num_workers = 4;
  options.sync_interval = 200;
  std::vector<fuzzer::Prog> merged =
      fuzzer::RunShardedCampaign(lib, boot, options).corpus;

  fuzzer::Distiller distiller(&lib, boot);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distiller.Distill(merged));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(merged.size()));
}
BENCHMARK(BM_Distill);

/// Differential-oracle cost: the same deterministic corpus replayed
/// through a pre-booted single-model Executor batch (Arg 0) vs a full
/// strict-vs-permissive DiffRunner pass with minimization off (Arg 1).
/// The ns ratio between the two args is the oracle's overhead factor
/// per pass: dual execution with per-call trace comparison PLUS booting
/// both model pairs from scratch, which the runner pays once per Run()
/// and which dominates at this corpus size. Items = programs, so
/// items/sec stays comparable to BM_FuzzThroughput.
void
BM_DiffRunnerOverhead(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();

  util::Rng rng(42);
  fuzzer::Generator generator(&lib, &rng);
  std::vector<fuzzer::Prog> corpus;
  corpus.reserve(128);
  for (int i = 0; i < 128; ++i) {
    fuzzer::Prog prog = generator.Generate(6);
    if (!prog.empty()) corpus.push_back(std::move(prog));
  }

  if (state.range(0) != 0) {
    fuzzer::DiffOptions options;
    options.boot = [&context](vkernel::Kernel* k) {
      context.BootKernel(k);
    };
    options.minimize = false;
    fuzzer::DiffRunner runner(&lib, options);
    for (auto _ : state) {
      benchmark::DoNotOptimize(runner.Run(corpus).programs);
    }
  } else {
    auto kernel = vkernel::MakeStrictModel();
    context.BootKernel(kernel.get());
    fuzzer::Executor executor(kernel.get(), &lib);
    for (auto _ : state) {
      vkernel::Coverage coverage;
      benchmark::DoNotOptimize(executor.RunBatch(corpus, &coverage).size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.size()));
}
BENCHMARK(BM_DiffRunnerOverhead)->Arg(0)->Arg(1);

/// Session persistence cost: one full suite-snapshot round trip
/// (serialize coverage + crashes + corpus + reproducers + trend records,
/// then parse it back) for the distilled state of a real campaign;
/// items = corpus programs, so items/sec is snapshot throughput per
/// persisted program. In-memory on purpose — filesystem latency would
/// drown the serialization signal on shared runners.
void
BM_SnapshotSaveLoad(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();

  fuzzer::SessionOptions options;
  options.WithSeed(42).WithRounds(2).WithProgramBudget(8000).WithWorkers(4);
  options.orchestrator.sync_interval = 200;
  fuzzer::Session session = context.MakeSession(options);
  if (!session.RegisterSuite("bench", &lib).ok() || !session.Run().ok()) {
    state.SkipWithError("session setup failed");
    return;
  }
  const fuzzer::SuiteState& st = *session.Find("bench");

  fuzzer::SuiteSnapshot snapshot;
  snapshot.name = st.name;
  snapshot.fingerprint = fuzzer::SuiteFingerprint(lib);
  snapshot.programs_executed = st.programs_executed;
  snapshot.wall_seconds = st.wall_seconds;
  snapshot.coverage = st.coverage.SortedBlocks();
  snapshot.crashes = st.crashes;
  snapshot.corpus = st.corpus;
  snapshot.crash_reproducers = st.crash_reproducers;
  snapshot.rounds = st.rounds;

  for (auto _ : state) {
    std::string data = fuzzer::SerializeSuite(snapshot, lib);
    fuzzer::SuiteSnapshot parsed;
    benchmark::DoNotOptimize(fuzzer::ParseSuite(data, lib, &parsed));
    benchmark::DoNotOptimize(parsed.corpus.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(snapshot.corpus.size()));
}
BENCHMARK(BM_SnapshotSaveLoad);

void
BM_OrchestratorThroughput(benchmark::State& state)
{
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();
  for (auto _ : state) {
    fuzzer::OrchestratorOptions options;
    options.campaign.seed = 42;
    options.campaign.program_budget = 2000;
    options.num_workers = static_cast<int>(state.range(0));
    benchmark::DoNotOptimize(fuzzer::RunShardedCampaign(
        lib, [&context](vkernel::Kernel* k) { context.BootKernel(k); },
        options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_OrchestratorThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_FullGenerationPipeline(benchmark::State& state)
{
  for (auto _ : state) {
    experiments::ContextOptions opts;
    experiments::ExperimentContext context(opts);
    benchmark::DoNotOptimize(context.modules().size());
  }
}
BENCHMARK(BM_FullGenerationPipeline)->Unit(benchmark::kMillisecond);

/// Cost of a disarmed KERNELGPT_FAULT_POINT: one relaxed atomic load and
/// a predicted-untaken branch. The robustness instrumentation threaded
/// through the IO/orchestrator hot paths must be free when no plan is
/// armed — this pins that claim at the nanosecond scale.
void
BM_FaultPointDisarmed(benchmark::State& state)
{
  util::FaultInjector::Instance().Disarm();
  uint64_t x = 0;
  for (auto _ : state) {
    KERNELGPT_FAULT_POINT("bench.disarmed",
                          util::Format("iteration=%llu",
                                       static_cast<unsigned long long>(++x)));
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultPointDisarmed);

/// Fleet-vs-bare-session round cost: the supervisor's retry loop,
/// per-round fault points, and report bookkeeping on top of the same
/// RunRound work. Arg 0 selects bare Session (0) or a 1-tenant Fleet
/// (1); the two timings should be indistinguishable, pinning that the
/// robustness layer costs nothing when nothing goes wrong.
void
BM_FleetRoundOverhead(benchmark::State& state)
{
  util::FaultInjector::Instance().Disarm();
  const auto& context = experiments::ExperimentContext::Default();
  fuzzer::SpecLibrary lib = context.SyzkallerPlusKernelGptSuite();
  auto boot = [&context](vkernel::Kernel* k) { context.BootKernel(k); };
  fuzzer::SessionOptions options;
  options.WithSeed(42).WithProgramBudget(2000).WithWorkers(2);
  const bool fleet_mode = state.range(0) != 0;
  for (auto _ : state) {
    if (fleet_mode) {
      fuzzer::Fleet fleet(fuzzer::FleetOptions()
                              .WithTargetRounds(1)
                              .WithEnvPlan(false));
      (void)fleet.AddSession("bench", [&]() {
        auto session = std::make_unique<fuzzer::Session>(options, boot);
        (void)session->RegisterSuite("suite", &lib);
        return session;
      });
      benchmark::DoNotOptimize(fleet.Run().AllComplete());
    } else {
      fuzzer::Session session(options, boot);
      (void)session.RegisterSuite("suite", &lib);
      benchmark::DoNotOptimize(session.RunRound().ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_FleetRoundOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Campaign throughput over the stateful vnet stack alone (tcp + udp
/// ground-truth specs): each item is one fuzz program through the full
/// TCP/UDP state machines, port namespace, and transition coverage —
/// the net-stack analog of BM_FuzzThroughput.
void
BM_NetStackThroughput(benchmark::State& state)
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  fuzzer::SpecLibrary lib;
  lib.SetConsts(corpus.BuildIndex().BuildConstTable());
  lib.Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("tcp")));
  lib.Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("udp")));
  lib.Finalize();
  fuzzer::OrchestratorOptions options;
  options.campaign.seed = 42;
  options.campaign.program_budget = static_cast<int>(state.range(0));
  options.num_workers = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzzer::RunShardedCampaign(
        lib,
        [&corpus](vkernel::Kernel* kernel) { corpus.RegisterAll(kernel); },
        options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_NetStackThroughput)->Arg(2000);

/// Raw state-transition cost: one full TCP lifecycle per item — create
/// the pair, bind/listen/connect/accept across the loopback, then tear
/// down through FIN_WAIT/TIME_WAIT — all eleven legal transitions with
/// no generator or executor in the loop.
void
BM_NetStateTransition(benchmark::State& state)
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  vkernel::Kernel kernel;
  corpus.RegisterAll(&kernel);
  vkernel::Coverage cov;
  const std::vector<uint8_t> addr = {2, 0, 5, 0, 0, 0, 0, 0};
  const vkernel::Buffer baddr = vkernel::Buffer::View(addr);
  kernel.BeginProgram();
  for (auto _ : state) {
    vkernel::ExecContext ctx(&cov);
    long s = kernel.Socket(2, 1, 6, ctx).retval;
    long c = kernel.Socket(2, 1, 6, ctx).retval;
    (void)kernel.Bind(s, baddr, ctx);
    (void)kernel.Listen(s, ctx);
    (void)kernel.Connect(c, baddr, ctx);
    long a = kernel.Accept(s, ctx).retval;
    (void)kernel.Close(c, ctx);
    (void)kernel.Close(a, ctx);
    (void)kernel.Close(s, ctx);
    kernel.EndProgram(ctx);
    kernel.BeginProgram();
    benchmark::DoNotOptimize(a);
  }
  {
    vkernel::ExecContext ctx(&cov);
    kernel.EndProgram(ctx);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NetStateTransition);

}  // namespace

BENCHMARK_MAIN();
