// The paper's Figure 2 case study: the device-mapper driver registers its
// node via miscdevice `.nodename` (not `.name`) and dispatches on
// `_IOC_NR(command)`. The rule-based baseline infers a wrong device name
// and wrong command values; KernelGPT gets both right — and its spec is
// the one that reaches the CVE-2024-23851 kmalloc bug.

#include <cstdio>

#include "baseline/syz_describe.h"
#include "drivers/corpus.h"
#include "drivers/model_render.h"
#include "extractor/handler_finder.h"
#include "fuzzer/session.h"
#include "spec_gen/kernelgpt.h"
#include "syzlang/printer.h"
#include "vkernel/kernel.h"

using namespace kernelgpt;

namespace {

/// Fuzzes one spec for one Session round without distillation. A spec
/// with no syscalls fuzzes nothing (RegisterSuite refuses an empty
/// library). Returns false when the round fails.
bool
FuzzWith(const char* label, const syzlang::SpecFile& spec,
         const ksrc::DefinitionIndex& index)
{
  fuzzer::SpecLibrary lib;
  lib.SetConsts(index.BuildConstTable());
  lib.Add(spec);
  lib.Finalize();
  fuzzer::SuiteState result;
  if (!lib.syscalls().empty()) {
    fuzzer::Session session(fuzzer::SessionOptions()
                                .WithSeed(1)
                                .WithRounds(1)
                                .WithDistill(false)
                                .WithProgramBudget(20000),
                            [](vkernel::Kernel* kernel) {
                              drivers::Corpus::Instance().RegisterAll(kernel);
                            });
    util::Status status = session.RegisterSuite(label, &lib);
    if (status.ok()) status = session.Run();
    if (!status.ok()) {
      std::fprintf(stderr, "%s: fuzzing failed: %s\n", label,
                   status.message().c_str());
      return false;
    }
    result = *session.Find(label);
  }
  std::printf("%-12s -> %3zu blocks, %zu unique crashes", label,
              result.coverage.Count(), result.crashes.size());
  for (const auto& [title, count] : result.crashes) {
    std::printf("\n              %s", title.c_str());
  }
  std::printf("\n");
  return true;
}

}  // namespace

int
main()
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  const drivers::DeviceSpec* dm = corpus.FindDevice("dm");
  ksrc::DefinitionIndex index = corpus.BuildIndex();

  // The source fragment at the heart of Figure 2.
  std::printf("=== Registration source (drivers/dm.c) ===\n");
  std::string src = drivers::RenderDeviceSource(*dm);
  size_t misc = src.find("static struct miscdevice");
  if (misc != std::string::npos) {
    std::printf("%s\n", src.substr(misc).c_str());
  }

  // Generate with both tools.
  auto handlers = extractor::FindDriverHandlers(index);
  const extractor::DriverHandler* handler = nullptr;
  for (const auto& h : handlers) {
    if (h.file_path == "drivers/dm.c" &&
        h.reg != extractor::RegKind::kUnreferenced) {
      handler = &h;
    }
  }
  if (!handler) return 1;

  baseline::SyzDescribe syz_describe(&index);
  baseline::SyzDescribeResult sd = syz_describe.GenerateForDriver(*handler);

  llm::TokenMeter meter;
  spec_gen::KernelGpt kernelgpt(&index, spec_gen::Options{}, &meter);
  spec_gen::HandlerGeneration kg = kernelgpt.GenerateForDriver(*handler);

  std::printf("=== SyzDescribe output (Fig. 2c: wrong name, wrong cmd, "
              "unreadable) ===\n%s\n",
              syzlang::Print(sd.spec).c_str());
  std::printf("=== KernelGPT output (Fig. 2d: correct and readable) "
              "===\n%s\n",
              syzlang::Print(kg.spec).c_str());

  std::printf("=== Fuzzing the virtual kernel with each spec ===\n");
  if (!FuzzWith("SyzDescribe", sd.spec, index) ||
      !FuzzWith("KernelGPT", kg.spec, index)) {
    return 1;
  }
  std::printf("\nThe kmalloc bug in ctl_ioctl (CVE-2024-23851) is only "
              "reachable with the correct nodename and _IOWR command "
              "values.\n");
  return 0;
}
