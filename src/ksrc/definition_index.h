/// \file
/// Corpus-wide definition index — the implementation of the paper's
/// ExtractCode step. Given an identifier (function, struct, variable, or
/// macro name) it retrieves the defining source entity and can render it
/// back to text for inclusion in an analysis prompt.
///
/// The index also performs the duties of syz-extract: it resolves macro
/// values (including Linux _IO/_IOR/_IOW/_IOWR ioctl encodings, which need
/// struct sizes) and exports a syzlang::ConstTable.
///
/// Finally it caches the analyses spec generation asks for again and
/// again: the FunctionFacts of each function (rendered code and its word
/// count, call sites, user copies, switch arms, command modifications and
/// dispatch tables) and the flag groups of each file. Both are pure
/// functions of the source, filled on first request.

#ifndef KERNELGPT_KSRC_DEFINITION_INDEX_H_
#define KERNELGPT_KSRC_DEFINITION_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ksrc/body_analysis.h"
#include "ksrc/cast.h"
#include "syzlang/const_table.h"

namespace kernelgpt::ksrc {

/// What kind of entity an identifier resolved to.
enum class EntityKind {
  kFunction,
  kStruct,
  kVariable,
  kMacro,
  kEnumerator,
  kNotFound,
};

/// What the analysis queries read about one function. Every field is a
/// pure function of the function's source (and, for `dispatch_tables`, of
/// the index's variables), computed once.
struct FunctionFacts {
  /// One `case LABEL:` arm of a switch.
  struct Arm {
    std::string label;
    std::string first_callee;  ///< FirstCallee of the arm; "" for none.
  };
  /// One switch of FindSwitches, without the arms' tokens or text.
  struct Switch {
    std::string subject;
    std::vector<Arm> arms;
  };

  std::string code;                                ///< RenderFunction(fn).
  size_t code_words = 0;                           ///< CountWords(code).
  std::vector<CallSite> calls;                     ///< FindCalls(fn).
  std::vector<UserCopy> user_copies;               ///< From `calls`.
  std::vector<Switch> switches;                    ///< FindSwitches(fn).
  std::vector<CmdModification> cmd_modifications;  ///< FindCmdModifications.
  /// Variables with a non-empty initializer that the body names (handler
  /// and dispatch tables), in token order, duplicates kept.
  std::vector<const CVarDef*> dispatch_tables;
};

/// Index over all parsed files of the synthetic kernel.
///
/// Lookups by name are answered from per-kind maps that `AddFile` fills,
/// so they cost one hash probe instead of a scan over every file. The
/// maps hold (file, entity) positions rather than pointers, so a copied
/// or moved index stays valid. A copy shares each file's source text
/// (CFile::source) with the original, and the text lives until the last
/// index or CFile that shares it is gone, so every token of either index
/// stays valid for as long as that index lives.
///
/// `Facts` and `FlagGroupsOfStruct` fill a cache on first request. One
/// mutex guards it, so once the index is built any number of threads may
/// look up and analyse concurrently, and every pointer these two return
/// stays valid for the life of the index. A copy starts with an empty
/// cache; a move takes the cache, and the pointers, along. `AddFile` and
/// `ResolveMacros` belong to the build phase: they clear the cache and
/// must not run concurrently with any other call.
class DefinitionIndex {
 public:
  DefinitionIndex() = default;

  /// Parses `source` and adds the file, which keeps the text, to the index.
  void AddSource(std::string source, const std::string& path);

  /// Adds an already-parsed file. For structs, variables and macros the
  /// first file that defines a name wins, and within it the first entity.
  /// For functions the first file whose first match has a body wins; when
  /// no file has one, the last forward declaration does.
  void AddFile(CFile file);

  /// Resolves macro values that need cross-entity information (_IOC forms
  /// and macro-to-macro references). Call once after all files are added.
  void ResolveMacros();

  // -- Lookup --------------------------------------------------------------

  const CStructDef* FindStruct(const std::string& name) const;
  const CFunction* FindFunction(const std::string& name) const;
  const CVarDef* FindVar(const std::string& name) const;
  const CMacro* FindMacro(const std::string& name) const;
  EntityKind Classify(const std::string& identifier) const;

  /// All variables whose (struct) type name matches, across all files —
  /// used by the handler finder to locate file_operations/proto_ops tables.
  std::vector<const CVarDef*> VarsOfType(const std::string& type_name) const;

  /// All parsed files.
  const std::vector<CFile>& files() const { return files_; }

  // -- Evaluation ----------------------------------------------------------

  /// Numeric value of a macro (after ResolveMacros), a literal, or an
  /// enumerator.
  std::optional<uint64_t> ConstValue(const std::string& name) const;

  /// Resolves a string-valued expression such as
  ///   DM_DIR "/" DM_CONTROL_NODE
  /// into "mapper/control". Returns nullopt when any piece is unknown or
  /// non-string.
  std::optional<std::string> ResolveStringExpr(const std::string& expr) const;

  /// sizeof for the C subset: scalar typedefs (u8..u64, int, long, char,
  /// __u32 etc.), pointers (8), arrays, and nested structs. Returns 0 for
  /// unknown types.
  uint64_t SizeOf(const std::string& type_text) const;

  /// Size of one struct definition in bytes (no padding; the corpus uses
  /// naturally ordered fields so this matches an unpacked layout closely
  /// enough for _IOC size encoding).
  uint64_t StructSize(const CStructDef& def) const;

  // -- Rendering (ExtractCode) ---------------------------------------------

  /// Renders the defining entity of `identifier` back to C text, or "" if
  /// unknown: a function if there is one, else a struct, a variable or a
  /// macro. Structs include member comments; functions include their
  /// signature and body.
  std::string ExtractCode(const std::string& identifier) const;

  /// Renders only an entity of `kind` named `identifier`, or "". C keeps
  /// struct tags apart from function and variable names, so a prompt
  /// about a struct must not show a same-named function.
  std::string ExtractCode(const std::string& identifier,
                          EntityKind kind) const;

  // -- Cached analyses -----------------------------------------------------

  /// Facts about the function FindFunction(fn_name) resolves to, or
  /// nullptr when there is none. Computed on the first request.
  const FunctionFacts* Facts(const std::string& fn_name) const;

  /// FindFlagGroups of the file that defines struct `name` (the first
  /// such file), or nullptr when no file does. Computed once per file.
  const std::vector<FlagGroup>* FlagGroupsOfStruct(
      const std::string& name) const;

  /// Exports all numeric macros and enumerators as a syzlang const table.
  syzlang::ConstTable BuildConstTable() const;

 private:
  /// Position of one entity: files_[file].<kind>[entity].
  struct Slot {
    uint32_t file;
    uint32_t entity;
  };
  using SlotMap = std::unordered_map<std::string, Slot>;

  /// Facts by function slot and flag groups by file. A copy starts
  /// empty, a move transfers the entries; the values sit behind
  /// unique_ptrs so rehashing never moves them.
  struct AnalysisCache {
    AnalysisCache() = default;
    AnalysisCache(const AnalysisCache&) {}
    AnalysisCache(AnalysisCache&& other) noexcept
        : functions(std::move(other.functions)),
          flag_groups(std::move(other.flag_groups)) {}
    AnalysisCache& operator=(const AnalysisCache&) {
      Clear();
      return *this;
    }
    AnalysisCache& operator=(AnalysisCache&& other) noexcept {
      functions = std::move(other.functions);
      flag_groups = std::move(other.flag_groups);
      return *this;
    }
    void Clear() {
      functions.clear();
      flag_groups.clear();
    }

    std::mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<const FunctionFacts>>
        functions;
    std::unordered_map<uint32_t, std::unique_ptr<const std::vector<FlagGroup>>>
        flag_groups;
  };

  std::optional<uint64_t> EvalMacroText(const std::string& text,
                                        int depth) const;

  std::unique_ptr<const FunctionFacts> AnalyzeFunction(
      const CFunction& fn) const;

  std::vector<CFile> files_;
  SlotMap structs_;
  SlotMap functions_;
  SlotMap vars_;
  SlotMap macros_;
  mutable AnalysisCache cache_;
};

/// Renders one struct definition to C text.
std::string RenderStruct(const CStructDef& def);

/// Renders one function (signature + body) to C text.
std::string RenderFunction(const CFunction& fn);

/// Renders one variable definition (with initializer) to C text.
std::string RenderVar(const CVarDef& var);

/// Renders one macro as a #define line.
std::string RenderMacro(const CMacro& macro);

}  // namespace kernelgpt::ksrc

#endif  // KERNELGPT_KSRC_DEFINITION_INDEX_H_
