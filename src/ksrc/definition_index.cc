#include "ksrc/definition_index.h"

#include <cctype>

#include "ksrc/cparser.h"
#include "util/strings.h"

namespace kernelgpt::ksrc {

namespace {

/// Scalar type sizes of the kernel C subset.
std::optional<uint64_t>
ScalarSize(const std::string& type)
{
  if (type == "__u8" || type == "u8" || type == "__s8" || type == "s8" ||
      type == "char" || type == "unsigned char" || type == "signed char" ||
      type == "bool") {
    return 1;
  }
  if (type == "__u16" || type == "u16" || type == "__s16" || type == "s16" ||
      type == "__le16" || type == "__be16" || type == "short" ||
      type == "unsigned short") {
    return 2;
  }
  if (type == "__u32" || type == "u32" || type == "__s32" || type == "s32" ||
      type == "__le32" || type == "__be32" || type == "int" ||
      type == "unsigned" || type == "unsigned int" || type == "uint" ||
      type == "int32_t" || type == "uint32_t") {
    return 4;
  }
  if (type == "__u64" || type == "u64" || type == "__s64" || type == "s64" ||
      type == "__le64" || type == "__be64" || type == "long" ||
      type == "unsigned long" || type == "long long" ||
      type == "unsigned long long" || type == "int64_t" ||
      type == "uint64_t" || type == "size_t" || type == "loff_t") {
    return 8;
  }
  return std::nullopt;
}

/// Splits "a , b , c" argument text at top-level commas.
std::vector<std::string>
SplitArgs(std::string_view text)
{
  std::vector<std::string> out;
  int depth = 0;
  std::string current;
  for (char c : text) {
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(std::string(util::Trim(current)));
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  if (!util::Trim(current).empty()) {
    out.push_back(std::string(util::Trim(current)));
  }
  return out;
}

/// The entity `map` records for `name` among `files`, or nullptr.
template <typename T, typename Map>
const T*
Lookup(const std::vector<CFile>& files, const Map& map,
       std::vector<T> CFile::*kind, const std::string& name)
{
  auto it = map.find(name);
  if (it == map.end()) return nullptr;
  return &(files[it->second.file].*kind)[it->second.entity];
}

}  // namespace

void
DefinitionIndex::AddSource(std::string source, const std::string& path)
{
  AddFile(CParse(std::move(source), path));
}

void
DefinitionIndex::AddFile(CFile file)
{
  cache_.Clear();
  const auto f = static_cast<uint32_t>(files_.size());
  // emplace keeps an existing entry: the first file wins, and within it
  // the first entity.
  auto add_first = [f](SlotMap& map, const auto& entities) {
    for (size_t i = 0; i < entities.size(); ++i) {
      map.emplace(entities[i].name, Slot{f, static_cast<uint32_t>(i)});
    }
  };
  add_first(structs_, file.structs);
  add_first(vars_, file.vars);
  add_first(macros_, file.macros);
  // Only a file's first match counts. It replaces an earlier file's entry
  // unless that entry has a body: definitions beat forward declarations.
  for (size_t i = 0; i < file.functions.size(); ++i) {
    const Slot slot{f, static_cast<uint32_t>(i)};
    auto [it, inserted] = functions_.emplace(file.functions[i].name, slot);
    if (inserted || it->second.file == f) continue;
    const Slot held = it->second;
    if (files_[held.file].functions[held.entity].body_text.empty()) {
      it->second = slot;
    }
  }
  files_.push_back(std::move(file));
}

const CStructDef*
DefinitionIndex::FindStruct(const std::string& name) const
{
  return Lookup(files_, structs_, &CFile::structs, name);
}

const CFunction*
DefinitionIndex::FindFunction(const std::string& name) const
{
  return Lookup(files_, functions_, &CFile::functions, name);
}

const CVarDef*
DefinitionIndex::FindVar(const std::string& name) const
{
  return Lookup(files_, vars_, &CFile::vars, name);
}

const CMacro*
DefinitionIndex::FindMacro(const std::string& name) const
{
  return Lookup(files_, macros_, &CFile::macros, name);
}

EntityKind
DefinitionIndex::Classify(const std::string& identifier) const
{
  if (FindFunction(identifier)) return EntityKind::kFunction;
  if (FindStruct(identifier)) return EntityKind::kStruct;
  if (FindVar(identifier)) return EntityKind::kVariable;
  if (FindMacro(identifier)) return EntityKind::kMacro;
  for (const auto& f : files_) {
    for (const auto& e : f.enums) {
      for (const auto& en : e.enumerators) {
        if (en.name == identifier) return EntityKind::kEnumerator;
      }
    }
  }
  return EntityKind::kNotFound;
}

std::vector<const CVarDef*>
DefinitionIndex::VarsOfType(const std::string& type_name) const
{
  std::vector<const CVarDef*> out;
  for (const auto& f : files_) {
    for (const auto& v : f.vars) {
      if (v.type_name == type_name) out.push_back(&v);
    }
  }
  return out;
}

std::optional<uint64_t>
DefinitionIndex::ConstValue(const std::string& name) const
{
  if (auto lit = syzlang::ParseIntLiteral(name)) return lit;
  if (const CMacro* m = FindMacro(name)) return m->value;
  for (const auto& f : files_) {
    for (const auto& e : f.enums) {
      for (const auto& en : e.enumerators) {
        if (en.name == name) return en.value;
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string>
DefinitionIndex::ResolveStringExpr(const std::string& expr) const
{
  // The expression is a sequence of string literals ("...") and macro
  // names that themselves resolve to strings; adjacent pieces concatenate
  // (C adjacent-literal concatenation).
  std::string out;
  std::string_view v(expr);
  size_t i = 0;
  bool any = false;
  while (i < v.size()) {
    char c = v[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '"') {
      size_t end = v.find('"', i + 1);
      if (end == std::string_view::npos) return std::nullopt;
      out.append(v.substr(i + 1, end - i - 1));
      i = end + 1;
      any = true;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < v.size() &&
             (std::isalnum(static_cast<unsigned char>(v[i])) || v[i] == '_')) {
        ++i;
      }
      std::string name(v.substr(start, i - start));
      const CMacro* m = FindMacro(name);
      if (!m) return std::nullopt;
      auto nested = ResolveStringExpr(m->value_text);
      if (!nested) return std::nullopt;
      out.append(*nested);
      any = true;
      continue;
    }
    return std::nullopt;
  }
  if (!any) return std::nullopt;
  return out;
}

uint64_t
DefinitionIndex::SizeOf(const std::string& type_text) const
{
  std::string t(util::Trim(type_text));
  if (t.empty()) return 0;
  if (util::EndsWith(t, "*")) return 8;
  if (util::StartsWith(t, "const ")) t = t.substr(6);
  if (util::StartsWith(t, "struct ") || util::StartsWith(t, "union ")) {
    auto words = util::SplitWhitespace(t);
    if (words.size() >= 2) {
      if (const CStructDef* s = FindStruct(words[1])) return StructSize(*s);
    }
    return 0;
  }
  if (auto scalar = ScalarSize(t)) return *scalar;
  if (const CStructDef* s = FindStruct(t)) return StructSize(*s);
  return 0;
}

uint64_t
DefinitionIndex::StructSize(const CStructDef& def) const
{
  uint64_t total = 0;
  uint64_t max_arm = 0;
  for (const CStructField& f : def.fields) {
    uint64_t elem = f.is_pointer ? 8 : SizeOf(f.type_text);
    uint64_t n = 1;
    if (f.array_len == 0) {
      n = 0;  // Flexible array member contributes nothing.
    } else if (f.array_len > 0) {
      n = static_cast<uint64_t>(f.array_len);
    } else if (!f.array_len_text.empty()) {
      n = ConstValue(f.array_len_text).value_or(1);
    }
    uint64_t sz = elem * n;
    total += sz;
    max_arm = std::max(max_arm, sz);
  }
  return def.is_union ? max_arm : total;
}

std::optional<uint64_t>
DefinitionIndex::EvalMacroText(const std::string& text, int depth) const
{
  if (depth > 16) return std::nullopt;
  std::string body(util::Trim(text));
  while (body.size() >= 2 && body.front() == '(' && body.back() == ')') {
    // Only strip if the parens are balanced as a whole.
    int d = 0;
    bool whole = true;
    for (size_t i = 0; i < body.size(); ++i) {
      if (body[i] == '(') ++d;
      if (body[i] == ')') {
        --d;
        if (d == 0 && i + 1 != body.size()) whole = false;
      }
    }
    if (!whole) break;
    body = std::string(util::Trim(std::string_view(body).substr(
        1, body.size() - 2)));
  }
  if (auto lit = syzlang::ParseIntLiteral(body)) return lit;

  // _IO / _IOR / _IOW / _IOWR (type, nr[, argtype])
  for (const char* form : {"_IOWR", "_IOR", "_IOW", "_IO"}) {
    if (util::StartsWith(body, form) &&
        body.size() > std::string(form).size()) {
      std::string rest(
          util::Trim(std::string_view(body).substr(std::string(form).size())));
      if (rest.empty() || rest.front() != '(' || rest.back() != ')') continue;
      auto args = SplitArgs(std::string_view(rest).substr(1, rest.size() - 2));
      if (args.size() < 2) return std::nullopt;
      uint64_t type = 0;
      if (args[0].size() >= 3 && args[0].front() == '\'') {
        type = static_cast<uint64_t>(args[0][1]);
      } else if (auto v = ConstValue(args[0])) {
        type = *v;
      } else if (auto v2 = EvalMacroText(args[0], depth + 1)) {
        type = *v2;
      } else {
        return std::nullopt;
      }
      uint64_t nr = 0;
      if (auto v = ConstValue(args[1])) {
        nr = *v;
      } else {
        return std::nullopt;
      }
      uint64_t size = 0;
      if (args.size() >= 3) size = SizeOf(args[2]);
      std::string f(form);
      char r = (f == "_IOR" || f == "_IOWR") ? 'r' : '-';
      char w = (f == "_IOW" || f == "_IOWR") ? 'w' : '-';
      return IoctlNumber(r, w, type, nr, size);
    }
  }

  // Reference to another macro or enumerator.
  if (const CMacro* m = FindMacro(body)) {
    if (m->value) return m->value;
    return EvalMacroText(m->value_text, depth + 1);
  }
  if (auto v = ConstValue(body)) return v;
  return std::nullopt;
}

void
DefinitionIndex::ResolveMacros()
{
  cache_.Clear();
  // Two passes to settle macro-to-macro references defined out of order.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& f : files_) {
      for (auto& m : f.macros) {
        if (!m.value) m.value = EvalMacroText(m.value_text, 0);
      }
    }
  }
}

std::string
RenderStruct(const CStructDef& def)
{
  std::string out;
  if (!def.comment.empty()) out += "/* " + def.comment + " */\n";
  out += std::string(def.is_union ? "union " : "struct ") + def.name + " {\n";
  for (const CStructField& f : def.fields) {
    out += "\t" + f.type_text + " ";
    if (f.is_pointer) out += "*";
    out += f.name;
    if (f.array_len == 0) {
      out += "[]";
    } else if (f.array_len > 0) {
      out += util::Format("[%lld]", static_cast<long long>(f.array_len));
    } else if (!f.array_len_text.empty()) {
      out += "[" + f.array_len_text + "]";
    }
    out += ";";
    if (!f.comment.empty()) out += " /* " + f.comment + " */";
    out += "\n";
  }
  out += "};\n";
  return out;
}

std::string
RenderFunction(const CFunction& fn)
{
  std::string out;
  if (!fn.comment.empty()) out += "/* " + fn.comment + " */\n";
  if (fn.is_static) out += "static ";
  out += fn.return_type + " " + fn.name + "(";
  for (size_t i = 0; i < fn.params.size(); ++i) {
    if (i) out += ", ";
    out += fn.params[i].type_text + " " + fn.params[i].name;
  }
  out += ")";
  if (fn.body_text.empty()) {
    out += ";\n";
  } else {
    out += "\n{" + fn.body_text + "}\n";
  }
  return out;
}

std::string
RenderVar(const CVarDef& var)
{
  std::string out;
  if (var.is_static) out += "static ";
  out += "struct " + var.type_name + " " + var.name;
  if (!var.init.empty()) {
    out += " = {\n";
    for (const CInitEntry& e : var.init) {
      if (e.field.empty()) {
        out += "\t" + e.value_text + ",\n";
      } else {
        out += "\t." + e.field + " = " + e.value_text + ",\n";
      }
    }
    out += "}";
  }
  out += ";\n";
  return out;
}

std::string
RenderMacro(const CMacro& macro)
{
  return "#define " + macro.name + " " + macro.value_text + "\n";
}

std::string
DefinitionIndex::ExtractCode(const std::string& identifier) const
{
  // Every rendering is non-empty, so the first kind with the name wins.
  for (EntityKind kind : {EntityKind::kFunction, EntityKind::kStruct,
                          EntityKind::kVariable, EntityKind::kMacro}) {
    std::string code = ExtractCode(identifier, kind);
    if (!code.empty()) return code;
  }
  return "";
}

std::string
DefinitionIndex::ExtractCode(const std::string& identifier,
                             EntityKind kind) const
{
  switch (kind) {
    case EntityKind::kFunction:
      if (const CFunction* fn = FindFunction(identifier)) {
        return RenderFunction(*fn);
      }
      break;
    case EntityKind::kStruct:
      if (const CStructDef* s = FindStruct(identifier)) return RenderStruct(*s);
      break;
    case EntityKind::kVariable:
      if (const CVarDef* v = FindVar(identifier)) return RenderVar(*v);
      break;
    case EntityKind::kMacro:
      if (const CMacro* m = FindMacro(identifier)) return RenderMacro(*m);
      break;
    case EntityKind::kEnumerator:
    case EntityKind::kNotFound:
      break;
  }
  return "";
}

std::unique_ptr<const FunctionFacts>
DefinitionIndex::AnalyzeFunction(const CFunction& fn) const
{
  auto facts = std::make_unique<FunctionFacts>();
  facts->code = RenderFunction(fn);
  facts->code_words = util::CountWords(facts->code);
  facts->calls = FindCalls(fn);
  facts->user_copies = FindUserCopies(facts->calls);
  for (SwitchInfo& info : FindSwitches(fn)) {
    FunctionFacts::Switch sw;
    sw.subject = std::move(info.subject);
    for (SwitchCase& arm : info.cases) {
      sw.arms.push_back({std::move(arm.label), FirstCallee(arm.tokens)});
    }
    facts->switches.push_back(std::move(sw));
  }
  facts->cmd_modifications = FindCmdModifications(fn);
  for (const CToken& t : fn.body_tokens) {
    if (t.kind != CTokKind::kIdent) continue;
    const CVarDef* var = FindVar(std::string(t.text));
    if (var && !var->init.empty()) facts->dispatch_tables.push_back(var);
  }
  return facts;
}

const FunctionFacts*
DefinitionIndex::Facts(const std::string& fn_name) const
{
  auto it = functions_.find(fn_name);
  if (it == functions_.end()) return nullptr;
  const Slot slot = it->second;
  const uint64_t key = (uint64_t{slot.file} << 32) | slot.entity;
  std::lock_guard<std::mutex> lock(cache_.mu);
  auto& facts = cache_.functions[key];
  if (!facts) {
    facts = AnalyzeFunction(files_[slot.file].functions[slot.entity]);
  }
  return facts.get();
}

const std::vector<FlagGroup>*
DefinitionIndex::FlagGroupsOfStruct(const std::string& name) const
{
  auto it = structs_.find(name);
  if (it == structs_.end()) return nullptr;
  const uint32_t file = it->second.file;
  std::lock_guard<std::mutex> lock(cache_.mu);
  auto& groups = cache_.flag_groups[file];
  if (!groups) {
    groups = std::make_unique<const std::vector<FlagGroup>>(
        FindFlagGroups(files_[file]));
  }
  return groups.get();
}

syzlang::ConstTable
DefinitionIndex::BuildConstTable() const
{
  syzlang::ConstTable table;
  for (const auto& f : files_) {
    for (const auto& m : f.macros) {
      if (m.value) table.Define(m.name, *m.value);
    }
    for (const auto& e : f.enums) {
      for (const auto& en : e.enumerators) {
        table.Define(en.name, en.value);
      }
    }
  }
  return table;
}

}  // namespace kernelgpt::ksrc
