/// \file
/// The analysis-LLM backend interface. Each method corresponds to one
/// query of the paper's pipeline (Figure 6): identifier deduction,
/// argument-type analysis, struct recovery, dependency analysis, device
/// node inference, and socket-create analysis. Implementations render and
/// meter realistic prompts, answer at the fidelity their capability
/// profile allows, and report "UNKNOWN" items for the iterative loop.
///
/// The generation stack (spec_gen::KernelGpt, spec_gen::SpecGenService)
/// is written purely against this interface; concrete backends are
/// obtained through the BackendRegistry, which is how the §5.2.3
/// LLM-choice ablation fans one handler set across many models.

#ifndef KERNELGPT_LLM_BACKEND_H_
#define KERNELGPT_LLM_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "extractor/handler_finder.h"
#include "ksrc/body_analysis.h"
#include "llm/profile.h"
#include "syzlang/ast.h"

namespace kernelgpt::llm {

/// A missing function/type the model asks for (Algorithm 1's `unknown`).
struct Unknown {
  enum class Kind { kFunction, kType };
  Kind kind = Kind::kFunction;
  std::string identifier;
  std::string usage;  ///< Invocation/usage context presented back next step.
};

/// One command discovered during identifier deduction.
struct CommandFinding {
  std::string macro;         ///< Constant to use as the cmd/optname value.
  std::string sub_function;  ///< Function implementing the command.
  bool from_modified_switch = false;  ///< Behind a _IOC_NR-style dispatch.
  bool identifier_mangled = false;    ///< Model emitted the wrong constant.
};

/// Result of one identifier-deduction query.
struct IdentifierAnalysis {
  std::vector<CommandFinding> commands;
  std::vector<Unknown> unknowns;
  /// Sockets: SOL_* guard observed (`if (level != SOL_RDS) ...`).
  std::string guard_level_macro;
};

/// A semantic constraint recovered from validation code in a handler.
struct FieldConstraint {
  enum class Kind { kRange, kEquals, kNonZero, kUpperBound };
  std::string field;
  Kind kind = Kind::kRange;
  int64_t a = 0;  ///< Range low / equals value.
  int64_t b = 0;  ///< Range high / upper bound.
};

/// Result of analyzing one per-command helper for its argument type.
struct ArgTypeAnalysis {
  std::string arg_struct;  ///< "" when the command takes no pointer arg.
  syzlang::Dir dir = syzlang::Dir::kInOut;
  std::vector<FieldConstraint> constraints;
  std::vector<std::string> out_fields;  ///< Fields the kernel writes.
};

/// A flag set the model synthesized from a macro group.
using FlagSetGuess = ksrc::FlagGroup;

/// Result of recovering one struct definition.
struct StructRecovery {
  syzlang::StructDef def;
  std::vector<Unknown> unknowns;  ///< Nested struct types to fetch next.
  std::vector<FlagSetGuess> flag_sets;
};

/// Result of dependency analysis on one helper.
struct DependencyAnalysis {
  struct CreatedResource {
    std::string label;     ///< anon_inode_getfd name, e.g. "kvm-vm".
    std::string fops_var;  ///< Handler table the new fd is bound to.
  };
  std::vector<CreatedResource> created;
};

/// Result of analyzing a socket family's create() function.
struct SocketCreateAnalysis {
  std::string type_macro;      ///< Required SOCK_* macro ("" = any).
  uint64_t protocol = 0;       ///< Required protocol (0 = any).
  bool protocol_checked = false;
};

/// Abstract analysis-model backend: the six Figure-6 query methods.
///
/// Implementations must be deterministic functions of (kernel index,
/// capability profile, query arguments) — the whole experiment harness
/// and every determinism gate rely on byte-identical replays.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Capability/error profile this backend answers with. The profile's
  /// name keys every deterministic error draw, so two backends with the
  /// same profile produce identical analyses.
  virtual const ModelProfile& profile() const = 0;

  /// Stage 1 (one iteration): deduce identifier values from one function.
  /// `depth` is the current delegation depth (capability-bounded).
  virtual IdentifierAnalysis AnalyzeIdentifiers(const std::string& fn_name,
                                                const std::string& usage,
                                                const std::string& module,
                                                int depth) = 0;

  /// Stage 2a: infer the argument struct, direction, validation
  /// constraints, and output fields of one per-command helper.
  virtual ArgTypeAnalysis AnalyzeArgumentType(const std::string& fn_name,
                                              const std::string& module) = 0;

  /// Stage 2b: recover one struct definition as syzlang, enriched with the
  /// constraints/out-fields learned in 2a and (capability permitting)
  /// len-of and flags semantics.
  virtual StructRecovery RecoverStruct(
      const std::string& struct_name, const std::string& module,
      const std::vector<FieldConstraint>& constraints,
      const std::vector<std::string>& out_fields) = 0;

  /// Stage 3: find fd-creating calls (anon_inode_getfd) in a helper.
  virtual DependencyAnalysis AnalyzeDependencies(const std::string& fn_name,
                                                 const std::string& module) = 0;

  /// Infers the device node path from registration usage.
  virtual std::string InferDeviceNode(const extractor::DriverHandler& handler,
                                      const std::string& module) = 0;

  /// Analyzes a socket create() function for type/protocol gating.
  virtual SocketCreateAnalysis AnalyzeSocketCreate(
      const std::string& fn_name, const std::string& module) = 0;
};

}  // namespace kernelgpt::llm

#endif  // KERNELGPT_LLM_BACKEND_H_
