#include "ksrc/body_analysis.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "util/strings.h"

namespace kernelgpt::ksrc {

namespace {

/// C keywords and kernel helpers that are never "interesting" callees.
const std::unordered_set<std::string_view>&
BoringCallees()
{
  static const std::unordered_set<std::string_view> kSet = {
      "if",     "for",      "while",  "switch", "return", "sizeof",
      "break",  "continue", "case",   "goto",   "do",     "else",
      "memset", "memcpy",   "strlen", "strcmp", "strncpy", "likely",
      "unlikely",
  };
  return kSet;
}

/// The text of tokens [begin, end), space-separated, string literals
/// with their quotes.
std::string
JoinTokens(const std::vector<CToken>& tokens, size_t begin, size_t end)
{
  std::string out;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    if (i > begin) out += ' ';
    if (tokens[i].kind == CTokKind::kString) {
      out += '"';
      out += tokens[i].text;
      out += '"';
    } else {
      out += tokens[i].text;
    }
  }
  return out;
}

/// Returns the index just past the matching closing token.
size_t
SkipBalanced(const std::vector<CToken>& toks, size_t open_idx,
             const char* open, const char* close)
{
  int depth = 0;
  for (size_t i = open_idx; i < toks.size(); ++i) {
    if (toks[i].Is(open)) ++depth;
    if (toks[i].Is(close)) {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return toks.size();
}

/// True when toks[i] names the callee of a call site: an identifier
/// followed by '(' that is no keyword or boring helper. Requires
/// i + 1 < toks.size().
bool
IsCallAt(const std::vector<CToken>& toks, size_t i)
{
  if (toks[i].kind != CTokKind::kIdent) return false;
  if (!toks[i + 1].Is("(")) return false;
  if (BoringCallees().count(toks[i].text)) return false;
  // Exclude declarations/casts heuristically: previous token must not be
  // 'struct' and next-prev must not be a type keyword followed by '*'.
  return !(i > 0 &&
           (toks[i - 1].IsIdent("struct") || toks[i - 1].IsIdent("union")));
}

bool
IsPowerOfTwo(uint64_t v)
{
  return v != 0 && (v & (v - 1)) == 0;
}

/// Longest common prefix of two strings.
size_t
CommonPrefix(const std::string& a, const std::string& b)
{
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

std::vector<SwitchInfo>
FindSwitches(const CFunction& fn)
{
  const auto& toks = fn.body_tokens;
  std::vector<SwitchInfo> out;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].IsIdent("switch")) continue;
    if (i + 1 >= toks.size() || !toks[i + 1].Is("(")) continue;
    size_t subj_end = SkipBalanced(toks, i + 1, "(", ")");
    SwitchInfo info;
    info.subject = JoinTokens(toks, i + 2, subj_end - 1);
    // Body must start with '{'.
    if (subj_end >= toks.size() || !toks[subj_end].Is("{")) continue;
    size_t body_end = SkipBalanced(toks, subj_end, "{", "}");

    // Walk the body for case labels at switch depth.
    size_t j = subj_end + 1;
    int depth = 1;
    while (j < body_end && j < toks.size()) {
      const CToken& t = toks[j];
      if (t.Is("{")) ++depth;
      if (t.Is("}")) --depth;
      if (depth == 1 && t.IsIdent("default")) {
        info.has_default = true;
        ++j;
        continue;
      }
      if (depth == 1 && t.IsIdent("case")) {
        // Label runs until ':'.
        size_t label_begin = j + 1;
        size_t k = label_begin;
        while (k < body_end && !toks[k].Is(":")) ++k;
        SwitchCase arm;
        arm.label = JoinTokens(toks, label_begin, k);
        // Statement tokens until break/return at depth 1 or next case.
        size_t stmt_begin = k + 1;
        size_t m = stmt_begin;
        int inner = 0;
        while (m < body_end) {
          const CToken& s = toks[m];
          if (s.Is("{")) ++inner;
          if (s.Is("}")) {
            if (inner == 0) break;
            --inner;
          }
          if (inner == 0 &&
              (s.IsIdent("case") || s.IsIdent("default"))) {
            break;
          }
          if (inner == 0 && s.IsIdent("break")) {
            ++m;
            break;
          }
          ++m;
        }
        arm.tokens.assign(toks.begin() + static_cast<long>(stmt_begin),
                          toks.begin() + static_cast<long>(m));
        arm.text = JoinTokens(toks, stmt_begin, m);
        info.cases.push_back(std::move(arm));
        j = m;
        continue;
      }
      ++j;
    }
    out.push_back(std::move(info));
    i = subj_end;  // Continue scanning after the subject; nested switches
                   // inside the body are found by the outer loop as well.
  }
  return out;
}

std::vector<CmdModification>
FindCmdModifications(const CFunction& fn)
{
  // Pattern: IDENT '=' MODIFIER '(' IDENT ')' ';'
  static const std::unordered_set<std::string_view> kModifiers = {
      "_IOC_NR", "_IOC_TYPE", "_IOC_SIZE", "DRM_IOCTL_NR",
  };
  const auto& toks = fn.body_tokens;
  std::vector<CmdModification> out;
  for (size_t i = 0; i + 5 < toks.size(); ++i) {
    if (toks[i].kind != CTokKind::kIdent) continue;
    if (!toks[i + 1].Is("=")) continue;
    if (toks[i + 2].kind != CTokKind::kIdent) continue;
    if (!kModifiers.count(toks[i + 2].text)) continue;
    if (!toks[i + 3].Is("(")) continue;
    if (toks[i + 4].kind != CTokKind::kIdent) continue;
    if (!toks[i + 5].Is(")")) continue;
    CmdModification mod;
    mod.dest = std::string(toks[i].text);
    mod.op = std::string(toks[i + 2].text);
    mod.src = std::string(toks[i + 4].text);
    out.push_back(std::move(mod));
  }
  return out;
}

std::vector<CallSite>
FindCalls(const CFunction& fn)
{
  const auto& toks = fn.body_tokens;
  std::vector<CallSite> out;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsCallAt(toks, i)) continue;
    size_t end = SkipBalanced(toks, i + 1, "(", ")");
    CallSite call;
    call.callee = std::string(toks[i].text);
    call.text = JoinTokens(toks, i, end);
    call.is_return = i > 0 && toks[i - 1].IsIdent("return");
    // Split args at top-level commas.
    int depth = 0;
    size_t arg_begin = i + 2;
    for (size_t j = i + 1; j < end; ++j) {
      if (toks[j].Is("(") || toks[j].Is("[")) ++depth;
      if (toks[j].Is(")") || toks[j].Is("]")) {
        --depth;
        if (depth == 0) {
          if (j > arg_begin) {
            call.args.push_back(JoinTokens(toks, arg_begin, j));
          }
          break;
        }
      }
      if (depth == 1 && toks[j].Is(",")) {
        call.args.push_back(JoinTokens(toks, arg_begin, j));
        arg_begin = j + 1;
      }
    }
    out.push_back(std::move(call));
  }
  return out;
}

std::optional<std::string>
SizeofTypeName(const std::string& text)
{
  std::string_view v = util::Trim(text);
  if (!util::StartsWith(v, "sizeof")) return std::nullopt;
  v.remove_prefix(6);
  v = util::Trim(v);
  if (v.empty() || v.front() != '(' || v.back() != ')') return std::nullopt;
  v = util::Trim(v.substr(1, v.size() - 2));
  if (util::StartsWith(v, "struct ")) v = util::Trim(v.substr(7));
  if (util::StartsWith(v, "union ")) v = util::Trim(v.substr(6));
  if (v.empty()) return std::nullopt;
  return std::string(v);
}

std::string
FirstCallee(const std::vector<CToken>& tokens)
{
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (IsCallAt(tokens, i)) return std::string(tokens[i].text);
  }
  return "";
}

std::vector<UserCopy>
FindUserCopies(const CFunction& fn)
{
  return FindUserCopies(FindCalls(fn));
}

std::vector<UserCopy>
FindUserCopies(const std::vector<CallSite>& calls)
{
  std::vector<UserCopy> out;
  for (const CallSite& call : calls) {
    bool from = call.callee == "copy_from_user";
    bool to = call.callee == "copy_to_user";
    if (!from && !to) continue;
    if (call.args.size() < 3) continue;
    UserCopy copy;
    copy.from_user = from;
    if (auto type = SizeofTypeName(call.args[2])) copy.type_name = *type;
    // Local var: "& param" or "& s->field".
    std::string target = from ? call.args[0] : call.args[1];
    auto words = util::SplitWhitespace(target);
    if (!words.empty() && words[0] == "&" && words.size() >= 2) {
      copy.dest_var = words[1];
    } else if (!words.empty()) {
      copy.dest_var = words[0];
    }
    out.push_back(std::move(copy));
  }
  return out;
}

bool
BodyMentions(const CFunction& fn, const std::string& identifier)
{
  for (const CToken& t : fn.body_tokens) {
    if (t.kind == CTokKind::kIdent && t.text == identifier) return true;
  }
  return false;
}

std::vector<FlagGroup>
FindFlagGroups(const CFile& file)
{
  // Group macros with power-of-two values by shared name prefix (>= 4
  // chars up to the last '_'); groups of >= 2 become candidate flag sets.
  std::vector<FlagGroup> groups;
  // Macros used inside _IO* command encodings are sequence numbers, not
  // flag bits; exclude them (and anything *_NR by convention).
  std::unordered_set<std::string> cmd_related;
  for (const auto& m : file.macros) {
    if (!util::StartsWith(m.value_text, "_IO")) continue;
    for (const auto& other : file.macros) {
      if (util::Contains(m.value_text, other.name)) {
        cmd_related.insert(other.name);
      }
    }
  }
  // Candidate bit macros: power-of-two values, not command numbers, and
  // not dimension/limit constants (LEN/MAX/SIZE/...).
  auto looks_like_limit = [](const std::string& name) {
    for (const char* word : {"LEN", "MAX", "SIZE", "MIN", "MAGIC", "COUNT"}) {
      if (util::Contains(name, word)) return true;
    }
    return false;
  };
  std::vector<const CMacro*> bits;
  for (const auto& m : file.macros) {
    if (!m.value || !IsPowerOfTwo(*m.value)) continue;
    if (util::EndsWith(m.name, "_NR")) continue;
    if (cmd_related.count(m.name)) continue;
    if (looks_like_limit(m.name)) continue;
    bits.push_back(&m);
  }
  // Group by module prefix (the first '_'-separated segment); a file has
  // at most a handful of flag families and they share the module prefix.
  std::vector<std::string> prefixes;
  for (const auto* m : bits) {
    std::string prefix = m->name.substr(0, m->name.find('_'));
    bool seen = false;
    for (const auto& p : prefixes) seen = seen || p == prefix;
    if (!seen) prefixes.push_back(prefix);
  }
  for (const auto& prefix : prefixes) {
    FlagGroup group;
    for (const auto* m : bits) {
      if (m->name.substr(0, m->name.find('_')) == prefix) {
        group.member_macros.push_back(m->name);
      }
    }
    if (group.member_macros.size() < 2) continue;
    // Readable set name from the longest shared member prefix.
    std::string shared = group.member_macros[0];
    for (const auto& name : group.member_macros) {
      shared = shared.substr(0, CommonPrefix(shared, name));
    }
    while (!shared.empty() && shared.back() == '_') shared.pop_back();
    group.set_name = util::ToLower(shared) + "_flag_set";
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace kernelgpt::ksrc
