// Quickstart: the 60-second tour of the public API.
//
// 1. Load the synthetic kernel corpus and build the source index.
// 2. Extract the operation handler of one driver.
// 3. Run KernelGPT to generate its syzlang specification.
// 4. Fuzz the virtual kernel with the generated spec.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>

#include "drivers/corpus.h"
#include "extractor/handler_finder.h"
#include "fuzzer/session.h"
#include "spec_gen/kernelgpt.h"
#include "syzlang/printer.h"
#include "vkernel/kernel.h"

using namespace kernelgpt;

int
main()
{
  // 1. The corpus plays the role of the Linux source tree.
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  ksrc::DefinitionIndex index = corpus.BuildIndex();
  std::printf("Corpus: %zu drivers, %zu socket families\n",
              corpus.devices().size(), corpus.sockets().size());

  // 2. Find the UBI driver's operation handler (fops + registration).
  auto handlers = extractor::FindDriverHandlers(index);
  const extractor::DriverHandler* ubi = nullptr;
  for (const auto& h : handlers) {
    if (h.file_path == "drivers/ubi.c" &&
        h.reg != extractor::RegKind::kUnreferenced) {
      ubi = &h;
    }
  }
  if (!ubi) {
    std::printf("ubi handler not found\n");
    return 1;
  }
  std::printf("\nExtracted handler: fops=%s ioctl=%s\n", ubi->fops_var.c_str(),
              ubi->ioctl_fn.c_str());

  // 3. Generate the specification with the default (GPT-4) profile.
  llm::TokenMeter meter;
  spec_gen::KernelGpt generator(&index, spec_gen::Options{}, &meter);
  spec_gen::HandlerGeneration gen = generator.GenerateForDriver(*ubi);
  std::printf("\nGenerated specification (%zu syscalls, %zu types, %s):\n\n%s",
              gen.SyscallCount(), gen.TypeCount(),
              gen.status == spec_gen::GenStatus::kValidDirect
                  ? "valid directly"
                  : (gen.status == spec_gen::GenStatus::kRepaired
                         ? "repaired"
                         : "FAILED"),
              syzlang::Print(gen.spec).c_str());

  // 4. Fuzz the virtual kernel with it: one Session round, no
  // distillation. A spec with no syscalls fuzzes nothing (RegisterSuite
  // refuses an empty library).
  fuzzer::SpecLibrary lib;
  lib.SetConsts(index.BuildConstTable());
  lib.Add(gen.spec);
  lib.Finalize();

  fuzzer::SuiteState result;
  if (!lib.syscalls().empty()) {
    fuzzer::Session session(fuzzer::SessionOptions()
                                .WithSeed(1)
                                .WithRounds(1)
                                .WithDistill(false)
                                .WithProgramBudget(20000),
                            [&corpus](vkernel::Kernel* kernel) {
                              corpus.RegisterAll(kernel);
                            });
    util::Status status = session.RegisterSuite("ubi", &lib);
    if (status.ok()) status = session.Run();
    if (!status.ok()) {
      std::fprintf(stderr, "fuzzing failed: %s\n", status.message().c_str());
      return 1;
    }
    result = *session.Find("ubi");
  }
  std::printf("\nFuzzed %zu programs: %zu blocks covered, %zu unique "
              "crashes\n",
              result.programs_executed, result.coverage.Count(),
              result.crashes.size());
  for (const auto& [title, count] : result.crashes) {
    std::printf("  %5d x %s\n", count, title.c_str());
  }
  std::printf("\nLLM cost: %zu queries, %zu input + %zu output tokens\n",
              meter.query_count(), meter.total_input_tokens(),
              meter.total_output_tokens());
  return 0;
}
