/// \file
/// Token-level analyses of function bodies, plus the flag-group analysis
/// of a whole file. These are the shared primitives from which both the
/// rule-based baseline (SyzDescribe-like) and the simulated analysis LLM
/// derive their understanding — they differ only in *which* of these
/// facts their capability profile lets them use. Each is a pure function
/// of the parsed source. The baseline and the extractor call them
/// directly; the simulated LLM reads them once per function (and once per
/// file) through DefinitionIndex::Facts and FlagGroupsOfStruct.

#ifndef KERNELGPT_KSRC_BODY_ANALYSIS_H_
#define KERNELGPT_KSRC_BODY_ANALYSIS_H_

#include <optional>
#include <string>
#include <vector>

#include "ksrc/cast.h"

namespace kernelgpt::ksrc {

/// One `case LABEL:` arm of a switch with its statement tokens.
struct SwitchCase {
  std::string label;           ///< Macro/enumerator name or literal text.
  std::vector<CToken> tokens;  ///< Tokens of the arm until break/return.
  std::string text;            ///< Raw-ish rendering of the arm.
};

/// A `switch (expr) { ... }` in a function body.
struct SwitchInfo {
  std::string subject;  ///< The switched expression, e.g. "cmd".
  std::vector<SwitchCase> cases;
  bool has_default = false;
};

/// An assignment that modifies a command variable, e.g.
/// `cmd = _IOC_NR(command);` — the pattern SyzDescribe mishandles.
struct CmdModification {
  std::string dest;  ///< Variable assigned, e.g. "cmd".
  std::string op;    ///< Modifier, e.g. "_IOC_NR".
  std::string src;   ///< Source variable, e.g. "command".
};

/// A call expression `callee(arg0, arg1, ...)`.
struct CallSite {
  std::string callee;
  std::vector<std::string> args;  ///< Raw argument text.
  std::string text;               ///< Full call rendering.
  bool is_return = false;         ///< True for `return callee(...);`.
};

/// A copy_from_user / copy_to_user with a recognizable payload type, e.g.
/// `copy_from_user(&param, argp, sizeof(struct dm_ioctl))`.
struct UserCopy {
  bool from_user = false;
  std::string type_name;  ///< Payload struct name ("dm_ioctl").
  std::string dest_var;   ///< Local variable copied into/out of.
};

/// A group of related bit-flag macros in one file, proposed as one
/// syzlang flags set.
struct FlagGroup {
  std::string set_name;                    ///< e.g. "dm_flag_set".
  std::vector<std::string> member_macros;  ///< In definition order.
};

/// Finds all top-level and nested switches in the body.
std::vector<SwitchInfo> FindSwitches(const CFunction& fn);

/// Finds command-variable modifications (`x = _IOC_NR(y)` and similar).
std::vector<CmdModification> FindCmdModifications(const CFunction& fn);

/// Finds all call sites (excluding C keywords and operators).
std::vector<CallSite> FindCalls(const CFunction& fn);

/// Callee of the first call site FindCalls would report over `tokens`
/// (e.g. one switch arm's), or "" when there is none.
std::string FirstCallee(const std::vector<CToken>& tokens);

/// Finds copy_from_user/copy_to_user sites with sizeof payloads.
std::vector<UserCopy> FindUserCopies(const CFunction& fn);

/// The same, over call sites FindCalls already returned.
std::vector<UserCopy> FindUserCopies(const std::vector<CallSite>& calls);

/// Scans one source file for groups of related bit-flag macros (shared
/// name prefix, power-of-two values, no _IO* command numbers or limits).
/// Used for flags-type recovery.
std::vector<FlagGroup> FindFlagGroups(const CFile& file);

/// True if the body contains the identifier anywhere.
bool BodyMentions(const CFunction& fn, const std::string& identifier);

/// Extracts the struct type name out of `sizeof(struct X)` / `sizeof(X)`
/// argument text; nullopt when the text is not a sizeof expression.
std::optional<std::string> SizeofTypeName(const std::string& text);

}  // namespace kernelgpt::ksrc

#endif  // KERNELGPT_KSRC_BODY_ANALYSIS_H_
