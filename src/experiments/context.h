/// \file
/// Shared experiment harness: runs the full generation pipeline (existing
/// Syzkaller specs, SyzDescribe, KernelGPT) over the whole corpus once and
/// exposes the per-module results that every table/figure bench consumes.

#ifndef KERNELGPT_EXPERIMENTS_CONTEXT_H_
#define KERNELGPT_EXPERIMENTS_CONTEXT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/syz_describe.h"
#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/campaign.h"
#include "fuzzer/distiller.h"
#include "fuzzer/orchestrator.h"
#include "fuzzer/session.h"
#include "spec_gen/kernelgpt.h"

namespace kernelgpt::experiments {

/// Everything known about one corpus module after generation.
struct ModuleResult {
  std::string id;
  bool is_socket = false;
  const drivers::DeviceSpec* dev = nullptr;
  const drivers::SocketSpec* sock = nullptr;

  /// Hand-written partial Syzkaller spec (may be empty).
  syzlang::SpecFile existing;
  size_t existing_syscalls = 0;

  /// Ground truth (the oracle; never fed to the fuzzer benches directly).
  size_t ground_truth_syscalls = 0;

  /// KernelGPT generation outcome.
  spec_gen::HandlerGeneration kernelgpt;

  /// SyzDescribe outcome (devices only; `generated == false` for sockets).
  baseline::SyzDescribeResult syzdescribe;

  bool KernelGptUsable() const {
    return kernelgpt.status != spec_gen::GenStatus::kFailed;
  }
  /// Handler is "incomplete": existing spec misses >= 1 syscall.
  bool Incomplete() const {
    return existing_syscalls < ground_truth_syscalls;
  }
  /// Fraction of ground-truth syscalls missing from the existing spec.
  double MissingFraction() const {
    if (ground_truth_syscalls == 0) return 0.0;
    return 1.0 - static_cast<double>(existing_syscalls) /
                     static_cast<double>(ground_truth_syscalls);
  }
};

/// Options for building a context (mostly for the ablation benches).
struct ContextOptions {
  spec_gen::Options gen;
  /// Registry name of the analysis backend generation runs on. The
  /// default resolves to the same profile as the pre-registry pipeline,
  /// byte-identical in specs and token totals. When empty, `gen.profile`
  /// is used directly through a SimulatedBackend (legacy path, for
  /// benches that hand-tune a profile). Unknown names abort loudly.
  std::string backend = "gpt-4";
};

/// One fully generated corpus. Construction runs every generator over
/// every loaded module (cheap: < 1 s).
class ExperimentContext {
 public:
  explicit ExperimentContext(const ContextOptions& options = {});

  /// Status-returning factory: like the constructor, but a misconfigured
  /// backend name comes back as a util::Status instead of util::Fatal —
  /// a campaign service (e.g. a fuzzer::Fleet tenant factory) treats it
  /// as a failed tenant, not a dead process. The aborting constructor
  /// remains for the benches, where dying loudly is the right call.
  static util::Status Create(const ContextOptions& options,
                             std::unique_ptr<ExperimentContext>* out);

  /// Lazily-built default context with GPT-4, iterative mode.
  static const ExperimentContext& Default();

  const ksrc::DefinitionIndex& index() const { return index_; }
  const syzlang::ConstTable& consts() const { return consts_; }
  const llm::TokenMeter& meter() const { return meter_; }
  const std::vector<ModuleResult>& modules() const { return modules_; }

  const ModuleResult* Find(const std::string& id) const;

  std::vector<const ModuleResult*> Devices() const;
  std::vector<const ModuleResult*> Sockets() const;

  /// Builds a spec library from a list of spec files (consts attached).
  fuzzer::SpecLibrary MakeLibrary(
      const std::vector<const syzlang::SpecFile*>& specs) const;

  /// The three Table 3 suites over all loaded modules.
  fuzzer::SpecLibrary SyzkallerSuite() const;
  fuzzer::SpecLibrary SyzkallerPlusSyzDescribeSuite() const;
  fuzzer::SpecLibrary SyzkallerPlusKernelGptSuite() const;

  /// Registers all loaded corpus modules into a fresh kernel model (any
  /// personality).
  void BootKernel(vkernel::KernelModel* kernel) const;

  /// Runs the differential oracle over `corpus` on one suite: strict
  /// baseline vs. permissive subject (or the personalities `options`
  /// names), booted with this context's modules.
  fuzzer::DiffReport DiffCorpus(const fuzzer::SpecLibrary& lib,
                                const std::vector<fuzzer::Prog>& corpus,
                                fuzzer::DiffOptions options = {}) const;

  /// Builds a fuzzer::Session wired to boot this context's kernels —
  /// the facade Fuzz()/DistillCorpus() run on; benches that want round
  /// trends or Save/Resume persistence can drive it directly.
  fuzzer::Session MakeSession(fuzzer::SessionOptions options) const;

  /// Runs `reps` campaigns with distinct seeds and returns the average
  /// coverage count, average unique-crash count, and merged coverage.
  /// Campaigns run on the sharded orchestrator; `num_workers == 1`
  /// reproduces the historical serial results bit-for-bit. (Since the
  /// Session redesign this runs one arithmetic-schedule fuzzer::Session;
  /// results are unchanged, byte for byte.) A campaign failure (a worker
  /// exception, a session error) is util::Fatal: the benches and tests
  /// that call this keep the die-loudly contract.
  struct FuzzSummary {
    double avg_coverage = 0;
    double avg_crashes = 0;
    vkernel::Coverage merged;
    std::map<std::string, int> crash_titles;
    /// Total campaign wall-clock across reps (for speedup reporting).
    double wall_seconds = 0;
    /// Final merged corpus of the LAST rep — the distillation input for
    /// the tables' corpus-lifecycle reporting.
    std::vector<fuzzer::Prog> corpus;
  };
  FuzzSummary Fuzz(const fuzzer::SpecLibrary& lib, int program_budget,
                   int reps, uint64_t seed_base = 1,
                   int num_workers = 1) const;

  /// Runs the between-campaign distillation pass over a merged corpus
  /// (usually FuzzSummary::corpus) with this context's kernel boot; a
  /// session error is util::Fatal.
  fuzzer::DistillResult DistillCorpus(
      const fuzzer::SpecLibrary& lib,
      const std::vector<fuzzer::Prog>& corpus) const;

 private:
  ksrc::DefinitionIndex index_;
  syzlang::ConstTable consts_;
  llm::TokenMeter meter_;
  std::vector<ModuleResult> modules_;
};

}  // namespace kernelgpt::experiments

#endif  // KERNELGPT_EXPERIMENTS_CONTEXT_H_
