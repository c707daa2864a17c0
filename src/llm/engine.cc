#include "llm/engine.h"

#include <cctype>
#include <unordered_set>

#include "syzlang/printer.h"
#include "util/fault.h"
#include "util/strings.h"

namespace kernelgpt::llm {

namespace {

using ksrc::CFunction;
using ksrc::CTokKind;
using ksrc::FunctionFacts;
using util::Format;

/// True when `fn` has a parameter with the given name.
bool
HasParam(const CFunction& fn, const std::string& name)
{
  for (const auto& p : fn.params) {
    if (p.name == name) return true;
  }
  return false;
}

/// Scans body tokens for `if ( level != MACRO )`.
std::string
FindLevelGuard(const CFunction& fn)
{
  const auto& toks = fn.body_tokens;
  for (size_t i = 0; i + 5 < toks.size(); ++i) {
    if (toks[i].IsIdent("if") && toks[i + 1].Is("(") &&
        toks[i + 2].IsIdent("level") && toks[i + 3].Is("!=") &&
        toks[i + 4].kind == CTokKind::kIdent && toks[i + 5].Is(")")) {
      return std::string(toks[i + 4].text);
    }
  }
  return "";
}

/// Scans a helper body for validation constraints on `var`.`field`.
std::vector<FieldConstraint>
ScanConstraints(const CFunction& fn, const std::string& var)
{
  std::vector<FieldConstraint> out;
  const auto& toks = fn.body_tokens;
  for (size_t i = 0; i + 6 < toks.size(); ++i) {
    if (!toks[i].IsIdent("if") || !toks[i + 1].Is("(")) continue;
    size_t j = i + 2;
    bool negated = false;
    if (toks[j].Is("!")) {
      negated = true;
      ++j;
    }
    if (!(j + 2 < toks.size() && toks[j].kind == CTokKind::kIdent &&
          toks[j].text == var && toks[j + 1].Is("."))) {
      continue;
    }
    std::string field(toks[j + 2].text);
    size_t k = j + 3;
    FieldConstraint c;
    c.field = field;
    if (negated && toks[k].Is(")")) {
      c.kind = FieldConstraint::Kind::kNonZero;
      out.push_back(c);
      continue;
    }
    if (k + 1 >= toks.size()) continue;
    if (toks[k].Is("!=") && toks[k + 1].kind == CTokKind::kNumber) {
      c.kind = FieldConstraint::Kind::kEquals;
      c.a = static_cast<int64_t>(toks[k + 1].number);
      out.push_back(c);
      continue;
    }
    if (toks[k].Is("<") && toks[k + 1].kind == CTokKind::kNumber) {
      // Range form: param.f < A || param.f > B.
      int64_t lo = static_cast<int64_t>(toks[k + 1].number);
      // Look for the matching upper bound.
      for (size_t m = k + 2; m + 4 < toks.size() && m < k + 12; ++m) {
        if (toks[m].Is("||") && toks[m + 1].IsIdent(var) &&
            toks[m + 2].Is(".") && toks[m + 3].text == field &&
            toks[m + 4].Is(">")) {
          if (m + 5 < toks.size() &&
              toks[m + 5].kind == CTokKind::kNumber) {
            c.kind = FieldConstraint::Kind::kRange;
            c.a = lo;
            c.b = static_cast<int64_t>(toks[m + 5].number);
            out.push_back(c);
          }
          break;
        }
      }
      continue;
    }
    if (toks[k].Is(">") && toks[k + 1].kind == CTokKind::kNumber) {
      c.kind = FieldConstraint::Kind::kUpperBound;
      c.b = static_cast<int64_t>(toks[k + 1].number);
      out.push_back(c);
      continue;
    }
  }
  return out;
}

/// Scans a helper body for `var.field = ...` writes (output fields).
std::vector<std::string>
ScanOutWrites(const CFunction& fn, const std::string& var)
{
  std::vector<std::string> out;
  const auto& toks = fn.body_tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind == CTokKind::kIdent && toks[i].text == var &&
        toks[i + 1].Is(".") && toks[i + 2].kind == CTokKind::kIdent &&
        toks[i + 3].Is("=")) {
      // Exclude == comparisons (lexer emits == as one token, so "=" here
      // is a genuine assignment).
      bool seen = false;
      for (const auto& name : out) seen = seen || name == toks[i + 2].text;
      if (!seen) out.emplace_back(toks[i + 2].text);
    }
  }
  return out;
}

/// Integer width of a C scalar type name, or 0 when not scalar.
int
ScalarBits(const std::string& type_text)
{
  const std::string t(util::Trim(type_text));
  if (t == "__u8" || t == "__s8" || t == "u8" || t == "char" || t == "bool") {
    return 8;
  }
  if (t == "__u16" || t == "__s16" || t == "u16" || t == "__le16" ||
      t == "__be16" || t == "short") {
    return 16;
  }
  if (t == "__u32" || t == "__s32" || t == "u32" || t == "__le32" ||
      t == "int" || t == "unsigned" || t == "unsigned int" ||
      t == "uint32_t" || t == "int32_t") {
    return 32;
  }
  if (t == "__u64" || t == "__s64" || t == "u64" || t == "__le64" ||
      t == "long" || t == "unsigned long" || t == "uint64_t" ||
      t == "int64_t" || t == "size_t") {
    return 64;
  }
  return 0;
}

/// Heuristic: is `name` a length/count field?
bool
LooksLikeLenField(const std::string& name)
{
  std::string n = util::ToLower(name);
  if (n == "len" || n == "count" || n == "nent" || n == "nregions") {
    return true;
  }
  if (util::StartsWith(n, "n_") || util::StartsWith(n, "num_")) return true;
  if (util::EndsWith(n, "_len") || util::EndsWith(n, "_alen")) return true;
  return false;
}

}  // namespace

SimulatedBackend::SimulatedBackend(const ksrc::DefinitionIndex* index,
                               ModelProfile profile, TokenMeter* meter)
    : index_(index), profile_(std::move(profile)), meter_(meter) {}

std::string
SimulatedBackend::CodeOf(const FunctionFacts* facts,
                         const std::string& fn_name) const
{
  return facts ? facts->code : index_->ExtractCode(fn_name);
}

void
SimulatedBackend::Meter(const std::string& stage, const std::string& target,
                        std::string prompt, std::string response,
                        const FunctionFacts* code)
{
  // Every query method funnels through here, so one fault point covers
  // the whole backend surface: a rule matching the profile name makes
  // that backend "die" mid-query, which SpecGenService fails over.
  KERNELGPT_FAULT_POINT("llm.query",
                        profile_.name + "/" + stage + ":" + target);
  if (!meter_) return;
  QueryRecord record;
  // Truncate the prompt to the model's context window (approximate 4
  // chars/token); content beyond the window is never seen by the model —
  // the ablation harness relies on this.
  size_t max_chars = profile_.context_tokens * 4;
  if (prompt.size() > max_chars) {
    prompt.resize(max_chars);
  } else if (code) {
    // The prompt is a prefix followed by the function's rendered code.
    // Word counts add up across a join after whitespace, so the cached
    // count of the code stands in for a rescan: the meter's
    // ApproxTokenCount(prompt), computed from the pieces.
    const std::string_view prefix(prompt.data(),
                                  prompt.size() - code->code.size());
    if (!prefix.empty() &&
        std::isspace(static_cast<unsigned char>(prefix.back()))) {
      record.input_tokens = util::ApproxTokenCount(
          util::CountWords(prefix) + code->code_words, prompt.size());
    }
  }
  record.stage = stage;
  record.target = target;
  record.prompt = std::move(prompt);
  record.response = std::move(response);
  meter_->Record(std::move(record));
}

std::string
SimulatedBackend::ReverseMapModifiedLabel(const std::string& nr_label) const
{
  // Find the full-command macro whose _IOC expression references the NR
  // label, e.g. DM_LIST_DEVICES = _IOWR(DM_IOCTL, DM_LIST_DEVICES_NR, ...).
  for (const auto& file : index_->files()) {
    for (const auto& m : file.macros) {
      if (!util::StartsWith(m.value_text, "_IO")) continue;
      if (util::Contains(m.value_text, nr_label)) return m.name;
    }
  }
  return nr_label;
}

IdentifierAnalysis
SimulatedBackend::AnalyzeIdentifiers(const std::string& fn_name,
                                   const std::string& usage,
                                   const std::string& module, int depth)
{
  IdentifierAnalysis result;
  const CFunction* fn = index_->FindFunction(fn_name);
  const FunctionFacts* facts = index_->Facts(fn_name);
  std::string prompt =
      Format("Please generate the Syzkaller specification for the following "
             "handler.\nIf the command is unclear and dependent on another "
             "function, list it in the UNKNOWN section.\n\n## Unknown "
             "IOCTL\n- FUNC: %s\n- USAGE: %s\n\n## Source Code of Relative "
             "Functions\n",
             fn_name.c_str(), usage.c_str()) +
      CodeOf(facts, fn_name);

  if (!fn || fn->body_tokens.empty()) {
    Meter("identifier", module + ":" + fn_name, prompt,
          "- UNKNOWN: (no source available)", facts);
    return result;
  }
  if (depth > profile_.max_delegation_depth) {
    // The model loses the thread on deep indirection (the failure the
    // paper's §5.1.3 attributes to multiply-delegated handlers).
    Meter("identifier", module + ":" + fn_name, prompt,
          "- (unable to determine identifier values)", facts);
    return result;
  }

  std::unordered_set<std::string> claimed_callees;

  for (const auto& sw : facts->switches) {
    bool modified = false;
    for (const auto& mod : facts->cmd_modifications) {
      if (mod.dest == sw.subject && mod.op == "_IOC_NR") modified = true;
    }
    bool command_like = HasParam(*fn, sw.subject) || modified;
    if (!command_like) continue;

    for (const auto& arm : sw.arms) {
      CommandFinding finding;
      finding.from_modified_switch = modified;
      if (modified) {
        bool mangle =
            !profile_.understands_ioc_nr ||
            profile_.Decide("wrongid/v66:" + module + ":" + arm.label,
                            profile_.wrong_identifier_rate);
        if (mangle) {
          finding.macro = arm.label;  // The raw NR constant — wrong value.
          finding.identifier_mangled = true;
        } else {
          finding.macro = ReverseMapModifiedLabel(arm.label);
        }
      } else {
        finding.macro = arm.label;
      }
      if (!arm.first_callee.empty()) {
        finding.sub_function = arm.first_callee;
        claimed_callees.insert(arm.first_callee);
      }
      if (profile_.Decide("miss/v66:" + module + ":" + finding.macro,
                          profile_.miss_command_rate)) {
        continue;  // Silently omitted by the model.
      }
      result.commands.push_back(std::move(finding));
    }
  }

  // Table-dispatch comprehension: a referenced variable with positional
  // {CMD, fn} initializer entries.
  if (profile_.understands_table_lookup) {
    for (const ksrc::CVarDef* var : facts->dispatch_tables) {
      for (const auto& entry : var->init) {
        if (!entry.field.empty()) continue;
        // Entry text looks like "{ DM_VERSION , dm_do_version }".
        auto words = util::SplitWhitespace(
            util::ReplaceAll(util::ReplaceAll(entry.value_text, "{", " "),
                             "}", " "));
        std::vector<std::string> idents;
        for (const auto& w : words) {
          if (w != ",") idents.push_back(w);
        }
        if (idents.size() != 2) continue;
        CommandFinding finding;
        finding.macro = idents[0];
        finding.sub_function = idents[1];
        claimed_callees.insert(idents[1]);
        if (!profile_.Decide("miss/v66:" + module + ":" + finding.macro,
                             profile_.miss_command_rate)) {
          result.commands.push_back(std::move(finding));
        }
      }
    }
  }

  // Delegation: calls forwarding the command parameter to another
  // function we have not seen → UNKNOWN items for the next iteration.
  std::string cmd_param;
  for (const auto& p : fn->params) {
    if (p.name == "command" || p.name == "cmd" || p.name == "optname") {
      cmd_param = p.name;
    }
  }
  if (!cmd_param.empty()) {
    for (const auto& call : facts->calls) {
      if (claimed_callees.count(call.callee)) continue;
      bool passes_cmd = false;
      for (const auto& arg : call.args) {
        for (const auto& word : util::SplitWhitespace(arg)) {
          if (word == cmd_param) passes_cmd = true;
        }
      }
      if (!passes_cmd) continue;
      if (!index_->FindFunction(call.callee)) continue;
      Unknown unknown;
      unknown.kind = Unknown::Kind::kFunction;
      unknown.identifier = call.callee;
      unknown.usage = call.text;
      result.unknowns.push_back(std::move(unknown));
    }
  }

  result.guard_level_macro = FindLevelGuard(*fn);

  // Render the response for metering / transcripts.
  std::string response = "## Syzkaller Specification\n";
  for (const auto& c : result.commands) {
    response += Format("- %s: handled by %s\n", c.macro.c_str(),
                       c.sub_function.c_str());
  }
  for (const auto& u : result.unknowns) {
    response += Format("- UNKNOWN\n  - FUNC: %s\n  - USAGE: %s\n",
                       u.identifier.c_str(), u.usage.c_str());
  }
  Meter("identifier", module + ":" + fn_name, prompt, response, facts);
  return result;
}

ArgTypeAnalysis
SimulatedBackend::AnalyzeArgumentType(const std::string& fn_name,
                                    const std::string& module)
{
  ArgTypeAnalysis result;
  const CFunction* fn = index_->FindFunction(fn_name);
  const FunctionFacts* facts = index_->Facts(fn_name);
  std::string prompt =
      "Please determine the argument type of the following command "
      "handler and any semantic constraints it enforces.\n\n## Source "
      "Code\n" +
      CodeOf(facts, fn_name);
  if (!fn) {
    Meter("type", module + ":" + fn_name, prompt, "- (no source)", facts);
    return result;
  }

  bool reads = false;
  bool writes = false;
  std::string var;
  for (const auto& copy : facts->user_copies) {
    if (copy.from_user) {
      reads = true;
      if (!copy.type_name.empty()) result.arg_struct = copy.type_name;
      var = copy.dest_var;
    } else {
      writes = true;
      if (result.arg_struct.empty()) result.arg_struct = copy.type_name;
      if (var.empty()) var = copy.dest_var;
    }
  }
  if (reads && writes) {
    result.dir = syzlang::Dir::kInOut;
  } else if (writes) {
    result.dir = syzlang::Dir::kOut;
  } else {
    result.dir = syzlang::Dir::kIn;
  }
  if (!var.empty()) {
    result.constraints = ScanConstraints(*fn, var);
    result.out_fields = ScanOutWrites(*fn, var);
  }

  std::string response = Format("- struct: %s\n- dir: %s\n- constraints: %zu",
                                result.arg_struct.c_str(),
                                syzlang::DirName(result.dir),
                                result.constraints.size());
  Meter("type", module + ":" + fn_name, prompt, response, facts);
  return result;
}

StructRecovery
SimulatedBackend::RecoverStruct(const std::string& struct_name,
                              const std::string& module,
                              const std::vector<FieldConstraint>& constraints,
                              const std::vector<std::string>& out_fields)
{
  StructRecovery result;
  const ksrc::CStructDef* def = index_->FindStruct(struct_name);
  std::string prompt =
      "Please translate the following kernel type definition into a "
      "Syzkaller description, capturing semantic relations between "
      "fields.\n\n## Source Code\n" +
      index_->ExtractCode(struct_name, ksrc::EntityKind::kStruct);
  if (!def) {
    Meter("type", module + ":" + struct_name, prompt, "- (no source)");
    return result;
  }

  // Flag groups in the defining file, for flags-typed fields.
  const std::vector<FlagSetGuess>& groups =
      *index_->FlagGroupsOfStruct(struct_name);

  result.def.name = struct_name;
  result.def.is_union = def->is_union;

  auto constraint_for = [&](const std::string& field) -> const FieldConstraint* {
    for (const auto& c : constraints) {
      if (c.field == field) return &c;
    }
    return nullptr;
  };
  auto is_out = [&](const std::string& field) {
    for (const auto& f : out_fields) {
      if (f == field) return true;
    }
    return false;
  };

  for (const auto& cf : def->fields) {
    syzlang::Field field;
    field.name = cf.name;
    int bits = ScalarBits(cf.type_text);

    // Array length (fixed, macro-named, or flexible).
    int64_t array_len = cf.array_len;
    if (array_len < 0 && !cf.array_len_text.empty()) {
      array_len = static_cast<int64_t>(
          index_->ConstValue(cf.array_len_text).value_or(1));
    }
    bool is_array = cf.array_len >= 0 || !cf.array_len_text.empty();

    if (util::StartsWith(cf.type_text, "struct ") ||
        (bits == 0 && !cf.is_pointer && !is_array)) {
      // Nested struct by value.
      std::string nested = cf.type_text;
      if (util::StartsWith(nested, "struct ")) nested = nested.substr(7);
      field.type = syzlang::Type::StructRef(nested);
      Unknown unknown;
      unknown.kind = Unknown::Kind::kType;
      unknown.identifier = nested;
      unknown.usage = "field " + cf.name + " of " + struct_name;
      result.unknowns.push_back(std::move(unknown));
    } else if (is_array) {
      if (bits == 0) bits = 8;
      field.type = array_len > 0
                       ? syzlang::Type::Array(syzlang::Type::Int(bits),
                                              static_cast<uint64_t>(array_len))
                       : syzlang::Type::Array(syzlang::Type::Int(bits));
    } else {
      if (bits == 0) bits = cf.is_pointer ? 64 : 32;
      // Semantic enrichment order: len-of > flags > constraint > plain.
      bool typed = false;
      if (profile_.understands_len_semantics && LooksLikeLenField(cf.name)) {
        // Find the array sibling this counts: name containment first,
        // unique array fallback.
        std::string target;
        int array_siblings = 0;
        for (const auto& other : def->fields) {
          bool other_is_array =
              other.array_len >= 0 || !other.array_len_text.empty();
          if (!other_is_array) continue;
          if (other.type_text != "char") ++array_siblings;
          if (util::Contains(util::ToLower(cf.name),
                             util::ToLower(other.name))) {
            target = other.name;
          }
        }
        if (target.empty() && array_siblings == 1) {
          for (const auto& other : def->fields) {
            if (other.array_len >= 0 || !other.array_len_text.empty()) {
              if (other.type_text != "char") target = other.name;
            }
          }
        }
        if (!target.empty()) {
          field.type = syzlang::Type::Len(target, bits);
          typed = true;
        }
      }
      std::string lower_name = util::ToLower(cf.name);
      bool flags_named =
          lower_name == "flags" || util::EndsWith(lower_name, "_flags");
      if (!flags_named && util::StartsWith(lower_name, "flags")) {
        flags_named = true;
        for (size_t ci = 5; ci < lower_name.size(); ++ci) {
          if (!std::isdigit(static_cast<unsigned char>(lower_name[ci]))) {
            flags_named = false;
          }
        }
      }
      if (!typed && flags_named && !groups.empty()) {
        field.type = syzlang::Type::Flags(groups[0].set_name, bits);
        result.flag_sets.push_back(groups[0]);
        typed = true;
      }
      if (!typed) {
        const FieldConstraint* c = constraint_for(cf.name);
        if (c) {
          switch (c->kind) {
            case FieldConstraint::Kind::kRange:
              field.type = syzlang::Type::IntRange(bits, c->a, c->b);
              break;
            case FieldConstraint::Kind::kEquals:
              field.type = syzlang::Type::ConstValue(
                  static_cast<uint64_t>(c->a), bits);
              break;
            case FieldConstraint::Kind::kNonZero:
              field.type = syzlang::Type::IntRange(
                  bits, 1,
                  bits >= 63 ? (1LL << 62) : (1LL << bits) - 1);
              break;
            case FieldConstraint::Kind::kUpperBound:
              field.type = syzlang::Type::IntRange(bits, 0, c->b);
              break;
          }
          typed = true;
        }
      }
      if (!typed) {
        // Occasional width slip (the §5.1.3 "incorrect types").
        if (profile_.Decide(
                "wrongtype:" + module + ":" + struct_name + ":" + cf.name,
                profile_.wrong_type_rate)) {
          bits = bits == 64 ? 32 : 64;
        }
        field.type = syzlang::Type::Int(bits);
      }
      field.is_out = is_out(cf.name);
    }
    result.def.fields.push_back(std::move(field));
  }

  std::string response =
      "## Specification\n" +
      syzlang::PrintDecl(syzlang::Decl::Make(result.def));
  Meter("type", module + ":" + struct_name, prompt, response);
  return result;
}

DependencyAnalysis
SimulatedBackend::AnalyzeDependencies(const std::string& fn_name,
                                    const std::string& module)
{
  DependencyAnalysis result;
  const CFunction* fn = index_->FindFunction(fn_name);
  const FunctionFacts* facts = index_->Facts(fn_name);
  std::string prompt =
      "Does the return value of this function act as a resource consumed "
      "by other syscalls?\n\n## Source Code\n" +
      CodeOf(facts, fn_name);
  if (!fn || !profile_.follows_dependencies) {
    Meter("dependency", module + ":" + fn_name, prompt, "- no", facts);
    return result;
  }
  for (const auto& call : facts->calls) {
    if (call.callee != "anon_inode_getfd" || call.args.size() < 2) continue;
    DependencyAnalysis::CreatedResource created;
    // args[0] is the "name" literal, args[1] is &fops.
    std::string label(util::Trim(call.args[0]));
    if (label.size() >= 2 && label.front() == '"' && label.back() == '"') {
      label = label.substr(1, label.size() - 2);
    }
    created.label = label;
    std::string fops(util::Trim(call.args[1]));
    if (!fops.empty() && fops.front() == '&') {
      fops = std::string(util::Trim(fops.substr(1)));
    }
    created.fops_var = fops;
    result.created.push_back(std::move(created));
  }
  std::string response = result.created.empty()
                             ? "- no resource creation found"
                             : Format("- creates fd bound to %s",
                                      result.created[0].fops_var.c_str());
  Meter("dependency", module + ":" + fn_name, prompt, response, facts);
  return result;
}

std::string
SimulatedBackend::InferDeviceNode(const extractor::DriverHandler& handler,
                                const std::string& module)
{
  std::string prompt = Format(
      "Determine the device file path for the handler registered as:\n%s",
      handler.misc_var.empty()
          ? (handler.create_fmt.empty() ? handler.proc_path.c_str()
                                        : handler.create_fmt.c_str())
          : index_->ExtractCode(handler.misc_var, ksrc::EntityKind::kVariable)
                .c_str());

  std::string node;
  switch (handler.reg) {
    case extractor::RegKind::kMiscDevice: {
      const std::string& expr =
          (profile_.understands_nodename && !handler.nodename_expr.empty())
              ? handler.nodename_expr
              : handler.name_expr;
      auto resolved = index_->ResolveStringExpr(expr);
      if (resolved) node = "/dev/" + *resolved;
      break;
    }
    case extractor::RegKind::kDeviceCreate: {
      if (profile_.understands_device_create) {
        std::string fmt = handler.create_fmt;
        std::string instantiated;
        for (size_t i = 0; i < fmt.size(); ++i) {
          if (fmt[i] == '%' && i + 1 < fmt.size() && fmt[i + 1] == 'd') {
            instantiated += handler.create_arg;
            ++i;
            continue;
          }
          instantiated.push_back(fmt[i]);
        }
        if (!instantiated.empty()) node = "/dev/" + instantiated;
      } else {
        node = "/dev/" + handler.create_fmt;  // Raw format — wrong.
      }
      break;
    }
    case extractor::RegKind::kProcCreate:
      if (!handler.proc_path.empty()) node = "/proc/" + handler.proc_path;
      break;
    case extractor::RegKind::kUnreferenced:
      break;
  }
  Meter("identifier", module + ":device-node", prompt,
        node.empty() ? "- unknown" : "- " + node);
  return node;
}

SocketCreateAnalysis
SimulatedBackend::AnalyzeSocketCreate(const std::string& fn_name,
                                    const std::string& module)
{
  SocketCreateAnalysis result;
  const CFunction* fn = index_->FindFunction(fn_name);
  const FunctionFacts* facts = index_->Facts(fn_name);
  std::string prompt =
      "Which socket type and protocol does this create function "
      "accept?\n\n## Source Code\n" +
      CodeOf(facts, fn_name);
  if (!fn) {
    Meter("identifier", module + ":" + fn_name, prompt, "- unknown", facts);
    return result;
  }
  const auto& toks = fn->body_tokens;
  for (size_t i = 0; i + 6 < toks.size(); ++i) {
    // if ( sock -> type != SOCK_X )
    if (toks[i].IsIdent("sock") && toks[i + 1].Is("->") &&
        toks[i + 2].IsIdent("type") && toks[i + 3].Is("!=") &&
        toks[i + 4].kind == CTokKind::kIdent) {
      result.type_macro = std::string(toks[i + 4].text);
    }
    // if ( protocol != N )
    if (toks[i].IsIdent("protocol") && toks[i + 1].Is("!=") &&
        toks[i + 2].kind == CTokKind::kNumber) {
      result.protocol = toks[i + 2].number;
      result.protocol_checked = true;
    }
  }
  Meter("identifier", module + ":" + fn_name, prompt,
        Format("- type: %s, protocol: %llu",
               result.type_macro.empty() ? "any" : result.type_macro.c_str(),
               static_cast<unsigned long long>(result.protocol)),
        facts);
  return result;
}

}  // namespace kernelgpt::llm
