#include "experiments/context.h"

#include "drivers/model_runtime.h"
#include "extractor/handler_finder.h"
#include "fuzzer/session.h"
#include "llm/registry.h"
#include "util/status.h"
#include "util/strings.h"

namespace kernelgpt::experiments {

ExperimentContext::ExperimentContext(const ContextOptions& options)
    : index_(drivers::Corpus::Instance().BuildIndex())
{
  consts_ = index_.BuildConstTable();
  meter_.SetKeepText(false);  // Counters only; full-corpus runs are large.

  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  // Resolve the analysis backend through the registry; an empty name
  // falls back to gen.profile (a bench wiring a hand-built profile). A
  // non-empty unknown name aborts: silently running a different model
  // under the requested label would mislabel every downstream table.
  std::unique_ptr<llm::Backend> backend;
  if (!options.backend.empty()) {
    backend = llm::BackendRegistry::Default().Create(options.backend,
                                                     &index_, &meter_);
    if (!backend) {
      // A misconfigured backend name is a user error, not a bug:
      // report it through the project's fatal-error convention.
      util::Fatal(util::Format(
          "ExperimentContext: unknown backend '%s' (registered: %s)",
          options.backend.c_str(),
          util::Join(llm::BackendRegistry::Default().Names(), ", ").c_str()));
    }
  }
  spec_gen::KernelGpt kernelgpt =
      backend ? spec_gen::KernelGpt(&index_, options.gen, backend.get())
              : spec_gen::KernelGpt(&index_, options.gen, &meter_);
  baseline::SyzDescribe syzdescribe(&index_);

  auto driver_handlers = extractor::FindDriverHandlers(index_);
  auto socket_handlers = extractor::FindSocketHandlers(index_);

  for (const drivers::DeviceSpec* dev : corpus.LoadedDevices()) {
    ModuleResult module;
    module.id = dev->id;
    module.dev = dev;
    module.existing = drivers::ExistingDeviceSpec(*dev);
    module.existing_syscalls = module.existing.Syscalls().size();
    module.ground_truth_syscalls = drivers::GroundTruthSyscallCount(*dev);

    const std::string path = "drivers/" + dev->id + ".c";
    for (const auto& handler : driver_handlers) {
      if (handler.file_path != path) continue;
      if (handler.reg == extractor::RegKind::kUnreferenced) continue;
      module.kernelgpt = kernelgpt.GenerateForDriver(handler);
      module.syzdescribe = syzdescribe.GenerateForDriver(handler);
      break;
    }
    modules_.push_back(std::move(module));
  }

  for (const drivers::SocketSpec* sock : corpus.LoadedSockets()) {
    ModuleResult module;
    module.id = sock->id;
    module.is_socket = true;
    module.sock = sock;
    module.existing = drivers::ExistingSocketSpec(*sock);
    module.existing_syscalls = module.existing.Syscalls().size();
    module.ground_truth_syscalls = drivers::GroundTruthSyscallCount(*sock);

    const std::string path = "net/" + sock->id + ".c";
    for (const auto& handler : socket_handlers) {
      if (handler.file_path != path) continue;
      module.kernelgpt = kernelgpt.GenerateForSocket(handler);
      break;
    }
    modules_.push_back(std::move(module));
  }
}

util::Status
ExperimentContext::Create(const ContextOptions& options,
                          std::unique_ptr<ExperimentContext>* out)
{
  if (!options.backend.empty() &&
      !llm::BackendRegistry::Default().Find(options.backend)) {
    return util::Status::Error(util::Format(
        "ExperimentContext: unknown backend '%s' (registered: %s)",
        options.backend.c_str(),
        util::Join(llm::BackendRegistry::Default().Names(), ", ").c_str()));
  }
  out->reset(new ExperimentContext(options));
  return util::Status::Ok();
}

const ExperimentContext&
ExperimentContext::Default()
{
  static const ExperimentContext context{ContextOptions{}};
  return context;
}

const ModuleResult*
ExperimentContext::Find(const std::string& id) const
{
  for (const auto& m : modules_) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

std::vector<const ModuleResult*>
ExperimentContext::Devices() const
{
  std::vector<const ModuleResult*> out;
  for (const auto& m : modules_) {
    if (!m.is_socket) out.push_back(&m);
  }
  return out;
}

std::vector<const ModuleResult*>
ExperimentContext::Sockets() const
{
  std::vector<const ModuleResult*> out;
  for (const auto& m : modules_) {
    if (m.is_socket) out.push_back(&m);
  }
  return out;
}

fuzzer::SpecLibrary
ExperimentContext::MakeLibrary(
    const std::vector<const syzlang::SpecFile*>& specs) const
{
  fuzzer::SpecLibrary lib;
  lib.SetConsts(consts_);
  for (const syzlang::SpecFile* spec : specs) {
    if (spec) lib.Add(*spec);
  }
  lib.Finalize();
  return lib;
}

fuzzer::SpecLibrary
ExperimentContext::SyzkallerSuite() const
{
  std::vector<const syzlang::SpecFile*> specs;
  for (const auto& m : modules_) specs.push_back(&m.existing);
  return MakeLibrary(specs);
}

fuzzer::SpecLibrary
ExperimentContext::SyzkallerPlusSyzDescribeSuite() const
{
  std::vector<const syzlang::SpecFile*> specs;
  for (const auto& m : modules_) {
    specs.push_back(&m.existing);
    if (m.syzdescribe.generated) specs.push_back(&m.syzdescribe.spec);
  }
  return MakeLibrary(specs);
}

fuzzer::SpecLibrary
ExperimentContext::SyzkallerPlusKernelGptSuite() const
{
  std::vector<const syzlang::SpecFile*> specs;
  for (const auto& m : modules_) {
    specs.push_back(&m.existing);
    if (m.KernelGptUsable()) specs.push_back(&m.kernelgpt.spec);
  }
  return MakeLibrary(specs);
}

void
ExperimentContext::BootKernel(vkernel::KernelModel* kernel) const
{
  drivers::Corpus::Instance().RegisterAll(kernel);
}

fuzzer::DiffReport
ExperimentContext::DiffCorpus(const fuzzer::SpecLibrary& lib,
                              const std::vector<fuzzer::Prog>& corpus,
                              fuzzer::DiffOptions options) const
{
  options.boot = [this](vkernel::KernelModel* kernel) { BootKernel(kernel); };
  fuzzer::DiffRunner runner(&lib, std::move(options));
  return runner.Run(corpus);
}

namespace {
/// The suite name ExperimentContext sessions register their library
/// under (one anonymous suite per Fuzz/DistillCorpus call).
constexpr char kSessionSuite[] = "experiment";
}  // namespace

fuzzer::Session
ExperimentContext::MakeSession(fuzzer::SessionOptions options) const
{
  return fuzzer::Session(
      std::move(options),
      [this](vkernel::KernelModel* kernel) { BootKernel(kernel); });
}

ExperimentContext::FuzzSummary
ExperimentContext::Fuzz(const fuzzer::SpecLibrary& lib, int program_budget,
                        int reps, uint64_t seed_base, int num_workers) const
{
  FuzzSummary summary;
  // A library with no syscalls cannot be registered as a Session suite;
  // the historical contract for it was an all-zero summary.
  if (reps <= 0 || lib.syscalls().empty()) return summary;

  // Repetitions are the arithmetic seed schedule (seed_base + rep * 7919)
  // with independent rounds: no corpus carry-over, no distillation —
  // exactly the pre-Session per-rep campaign loop, bit for bit.
  fuzzer::SessionOptions options;
  options.WithSeed(seed_base)
      .WithRounds(reps)
      .WithSchedule(fuzzer::SeedSchedule::kArithmetic)
      .WithSeedStride(7919)
      .WithCarryCorpus(false)
      .WithDistill(false)
      .WithProgramBudget(program_budget)
      .WithWorkers(num_workers);
  fuzzer::Session session = MakeSession(options);
  util::Status status = session.RegisterSuite(kSessionSuite, &lib);
  if (status.ok()) status = session.Run();
  if (!status.ok()) util::Fatal("ExperimentContext::Fuzz: " + status.message());

  fuzzer::SuiteState& state = *session.Find(kSessionSuite);
  for (const fuzzer::RoundReport& report : state.rounds) {
    summary.avg_coverage += static_cast<double>(report.round_coverage);
    summary.avg_crashes += static_cast<double>(report.round_unique_crashes);
    summary.wall_seconds += report.wall_seconds;
  }
  summary.merged = std::move(state.coverage);
  summary.crash_titles = std::move(state.crashes);
  summary.corpus = std::move(state.corpus);
  summary.avg_coverage /= reps;
  summary.avg_crashes /= reps;
  return summary;
}

fuzzer::DistillResult
ExperimentContext::DistillCorpus(const fuzzer::SpecLibrary& lib,
                                 const std::vector<fuzzer::Prog>& corpus) const
{
  fuzzer::DistillResult result;
  fuzzer::Session session = MakeSession(fuzzer::SessionOptions{});
  if (!session.RegisterSuite(kSessionSuite, &lib).ok()) {
    // Legacy behavior for an unusable library: an empty result that still
    // reports the input size.
    result.stats.input_programs = corpus.size();
    return result;
  }
  util::Status status = session.DistillInto(kSessionSuite, corpus, &result);
  if (!status.ok()) {
    util::Fatal("ExperimentContext::DistillCorpus: " + status.message());
  }
  return result;
}

}  // namespace kernelgpt::experiments
