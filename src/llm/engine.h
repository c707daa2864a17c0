/// \file
/// The simulated analysis LLM — the reference llm::Backend. Each query
/// renders a realistic prompt (metered for the §5.1.1 cost analysis),
/// performs a semantic analysis of the extracted source at the fidelity
/// the capability profile allows, and reports both findings and
/// "UNKNOWN" items for the iterative loop to chase — exactly the
/// contract of Figure 6.
///
/// The source analyses themselves are pure, so the backend reads them
/// from the index's cache (ksrc::DefinitionIndex::Facts and
/// FlagGroupsOfStruct) rather than re-deriving them per query: every
/// backend and service thread sharing an index analyses each function
/// once. Only the profile's draws and the rendered answers are computed
/// per query.

#ifndef KERNELGPT_LLM_ENGINE_H_
#define KERNELGPT_LLM_ENGINE_H_

#include <string>
#include <vector>

#include "ksrc/definition_index.h"
#include "llm/backend.h"
#include "llm/token_meter.h"

namespace kernelgpt::llm {

/// The simulated analysis model bound to one kernel index and one
/// capability profile. Every answer is a deterministic function of the
/// extracted source and hash-keyed profile draws.
class SimulatedBackend : public Backend {
 public:
  SimulatedBackend(const ksrc::DefinitionIndex* index, ModelProfile profile,
                   TokenMeter* meter);

  const ModelProfile& profile() const override { return profile_; }

  IdentifierAnalysis AnalyzeIdentifiers(const std::string& fn_name,
                                        const std::string& usage,
                                        const std::string& module,
                                        int depth) override;

  ArgTypeAnalysis AnalyzeArgumentType(const std::string& fn_name,
                                      const std::string& module) override;

  StructRecovery RecoverStruct(
      const std::string& struct_name, const std::string& module,
      const std::vector<FieldConstraint>& constraints,
      const std::vector<std::string>& out_fields) override;

  DependencyAnalysis AnalyzeDependencies(const std::string& fn_name,
                                         const std::string& module) override;

  std::string InferDeviceNode(const extractor::DriverHandler& handler,
                              const std::string& module) override;

  SocketCreateAnalysis AnalyzeSocketCreate(const std::string& fn_name,
                                           const std::string& module) override;

 private:
  /// Meters one exchange, truncating the prompt to the context window.
  /// When `code` is given, the prompt ends with `code->code` after a
  /// prefix; if the prompt fits and the prefix ends in whitespace, the
  /// input tokens come from the prefix's words plus the cached
  /// `code_words`, which equals counting the whole prompt.
  void Meter(const std::string& stage, const std::string& target,
             std::string prompt, std::string response,
             const ksrc::FunctionFacts* code = nullptr);

  /// The code a function prompt quotes: the cached rendering, or, for a
  /// name that is no function, whatever ExtractCode finds.
  std::string CodeOf(const ksrc::FunctionFacts* facts,
                     const std::string& fn_name) const;

  std::string ReverseMapModifiedLabel(const std::string& nr_label) const;

  const ksrc::DefinitionIndex* index_;
  ModelProfile profile_;
  TokenMeter* meter_;
};

}  // namespace kernelgpt::llm

#endif  // KERNELGPT_LLM_ENGINE_H_
