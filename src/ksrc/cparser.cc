#include "ksrc/cparser.h"

#include <cctype>
#include <initializer_list>

#include "ksrc/clexer.h"
#include "util/strings.h"

namespace kernelgpt::ksrc {

namespace {

// Linux ioctl command encoding (asm-generic/ioctl.h).
constexpr uint64_t kIocNrBits = 8;
constexpr uint64_t kIocTypeBits = 8;
constexpr uint64_t kIocSizeBits = 14;
constexpr uint64_t kIocNrShift = 0;
constexpr uint64_t kIocTypeShift = kIocNrShift + kIocNrBits;
constexpr uint64_t kIocSizeShift = kIocTypeShift + kIocTypeBits;
constexpr uint64_t kIocDirShift = kIocSizeShift + kIocSizeBits;
constexpr uint64_t kIocNone = 0;
constexpr uint64_t kIocWrite = 1;
constexpr uint64_t kIocRead = 2;

/// Strips comment markers from a raw comment token.
std::string_view
CleanComment(std::string_view s)
{
  if (util::StartsWith(s, "/*")) s.remove_prefix(2);
  if (util::EndsWith(s, "*/")) s.remove_suffix(2);
  if (util::StartsWith(s, "//")) s.remove_prefix(2);
  return util::Trim(s);
}

/// `parts` joined by single spaces.
std::string
JoinWords(const std::vector<std::string_view>& parts)
{
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += ' ';
    out += parts[i];
  }
  return out;
}

/// Structural parser over a comment-free token stream. Comments are
/// collected separately and re-attached to declarations by line number:
/// the synthetic corpus renders doc comments on the line above a
/// declaration and field comments on the same line as the field.
///
/// The tokens view `out->source`, which the parser's output keeps.
class CParserImpl {
 public:
  explicit CParserImpl(CFile* out)
      : source_(*out->source), tokens_(CLex(source_)), out_(out) {
    // Records each comment's text in the line map and compacts the other
    // tokens in place. The EOF token carries the last line.
    comment_on_line_.resize(static_cast<size_t>(tokens_.back().line) + 1);
    size_t kept = 0;
    for (const CToken& t : tokens_) {
      if (t.kind != CTokKind::kComment) {
        tokens_[kept++] = t;
        continue;
      }
      // The first comment on a line is the one attached to it.
      std::string_view& slot = comment_on_line_[static_cast<size_t>(t.line)];
      if (slot.empty()) slot = t.text;
    }
    tokens_.resize(kept);
  }

  void Run() {
    while (!AtEof()) {
      const CToken& t = Peek();
      if (t.kind == CTokKind::kDirective) {
        int line = t.line;
        ParseDirective(Advance().text, line);
        continue;
      }
      if (t.kind == CTokKind::kIdent) {
        if (!ParseTopLevel()) SkipTopLevel();
        continue;
      }
      Diag(util::Format("line %d: skipping unexpected token '%s'", t.line,
                        std::string(t.text).c_str()));
      Advance();
    }
  }

 private:
  // -- Token plumbing ------------------------------------------------------

  const CToken& Peek(int offset = 0) const {
    size_t idx = pos_ + static_cast<size_t>(offset);
    if (idx >= tokens_.size()) idx = tokens_.size() - 1;
    return tokens_[idx];
  }

  const CToken& Advance() {
    const CToken& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  bool AtEof() const { return tokens_[pos_].kind == CTokKind::kEof; }

  void Diag(std::string message) {
    out_->diagnostics.push_back(std::move(message));
  }

  /// The first comment whose token ends on `line`, cleaned of markers.
  std::string_view CommentOnLine(int line) const {
    if (line < 0 || static_cast<size_t>(line) >= comment_on_line_.size()) {
      return {};
    }
    return CleanComment(comment_on_line_[static_cast<size_t>(line)]);
  }

  /// Doc comment immediately above a declaration at `line` (within two
  /// lines, to allow for multi-line block comments).
  std::string_view DocCommentAbove(int line) const {
    for (int delta = 1; delta <= 3; ++delta) {
      std::string_view c = CommentOnLine(line - delta);
      if (!c.empty()) return c;
    }
    return {};
  }

  void SkipTopLevel() {
    int depth = 0;
    while (!AtEof()) {
      const CToken& t = Advance();
      if (t.Is("{")) ++depth;
      if (t.Is("}")) {
        if (depth > 0) --depth;
        if (depth == 0) {
          if (Peek().Is(";")) Advance();
          return;
        }
      }
      if (t.Is(";") && depth == 0) return;
    }
  }

  // -- Directives ----------------------------------------------------------

  void ParseDirective(std::string_view text, int line) {
    std::string_view body = util::Trim(text);
    if (!util::StartsWith(body, "#")) return;
    body.remove_prefix(1);
    body = util::Trim(body);
    if (!util::StartsWith(body, "define")) return;
    body.remove_prefix(6);
    body = util::Trim(body);
    size_t name_end = 0;
    while (name_end < body.size() &&
           (std::isalnum(static_cast<unsigned char>(body[name_end])) ||
            body[name_end] == '_')) {
      ++name_end;
    }
    if (name_end == 0) return;
    CMacro macro;
    macro.name = std::string(body.substr(0, name_end));
    macro.value_text = std::string(util::Trim(body.substr(name_end)));
    macro.line = line;
    macro.value = EvalSimple(macro.value_text);
    out_->macros.push_back(std::move(macro));
  }

  /// Evaluates trivially-constant macro bodies (literals, parenthesized
  /// literals, references to earlier macros). _IOC forms need struct sizes
  /// and are resolved later by the definition index.
  std::optional<uint64_t> EvalSimple(std::string_view value) {
    std::string_view inner = util::Trim(value);
    while (inner.size() >= 2 && inner.front() == '(' && inner.back() == ')') {
      inner = util::Trim(inner.substr(1, inner.size() - 2));
    }
    if (auto lit = ParseUint(inner)) return lit;
    for (const CMacro& m : out_->macros) {
      if (m.name == inner) return m.value;
    }
    return std::nullopt;
  }

  static std::optional<uint64_t> ParseUint(std::string_view text) {
    if (text.empty()) return std::nullopt;
    uint64_t value = 0;
    bool any = false;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
      for (size_t i = 2; i < text.size(); ++i) {
        char c = text[i];
        if (c == 'u' || c == 'U' || c == 'l' || c == 'L') continue;
        if (!std::isxdigit(static_cast<unsigned char>(c))) return std::nullopt;
        value = value * 16 +
                static_cast<uint64_t>(
                    std::isdigit(static_cast<unsigned char>(c))
                        ? c - '0'
                        : std::tolower(static_cast<unsigned char>(c)) - 'a' +
                              10);
        any = true;
      }
      return any ? std::optional<uint64_t>(value) : std::nullopt;
    }
    for (char c : text) {
      if (c == 'u' || c == 'U' || c == 'l' || c == 'L') continue;
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      value = value * 10 + static_cast<uint64_t>(c - '0');
      any = true;
    }
    return any ? std::optional<uint64_t>(value) : std::nullopt;
  }

  // -- Top-level constructs ------------------------------------------------

  bool ParseTopLevel() {
    size_t save = pos_;
    bool is_static = false;
    while (Peek().IsIdent("static") || Peek().IsIdent("const") ||
           Peek().IsIdent("inline")) {
      if (Peek().IsIdent("static")) is_static = true;
      Advance();
    }

    if (Peek().IsIdent("enum") && Peek(2).Is("{")) return ParseEnum();

    if (Peek().IsIdent("struct") || Peek().IsIdent("union")) {
      bool is_union = Peek().IsIdent("union");
      if (Peek(1).kind == CTokKind::kIdent && Peek(2).Is("{")) {
        int line = Peek().line;
        Advance();  // struct/union keyword
        std::string_view name = Advance().text;
        return ParseStructBody(name, is_union, line);
      }
    }

    // Parse: <type tokens> NAME followed by '(', '=', ';' or '['.
    std::vector<std::string_view> type_tokens;
    std::string name;
    int line = Peek().line;
    while (!AtEof()) {
      const CToken& t = Peek();
      if (t.kind == CTokKind::kIdent || t.Is("*")) {
        const CToken& nxt = Peek(1);
        if (t.kind == CTokKind::kIdent &&
            (nxt.Is("(") || nxt.Is("=") || nxt.Is(";") || nxt.Is("["))) {
          name = std::string(Advance().text);
          break;
        }
        type_tokens.push_back(Advance().text);
        continue;
      }
      pos_ = save;
      return false;
    }
    if (name.empty() || type_tokens.empty()) {
      pos_ = save;
      return false;
    }
    std::string type_text = JoinWords(type_tokens);

    if (Peek().Is("(")) return ParseFunction(type_text, name, is_static, line);
    return ParseVariable(type_text, name, is_static, line);
  }

  bool ParseEnum() {
    int line = Peek().line;
    Advance();  // enum
    CEnum e;
    e.line = line;
    if (Peek().kind == CTokKind::kIdent) e.name = std::string(Advance().text);
    if (!Peek().Is("{")) return false;
    Advance();
    uint64_t next_value = 0;
    while (!AtEof() && !Peek().Is("}")) {
      if (Peek().Is(",")) {
        Advance();
        continue;
      }
      if (Peek().kind != CTokKind::kIdent) return false;
      CEnumerator en;
      en.name = std::string(Advance().text);
      if (Peek().Is("=")) {
        Advance();
        if (Peek().kind == CTokKind::kNumber) {
          next_value = Advance().number;
        } else {
          while (!AtEof() && !Peek().Is(",") && !Peek().Is("}")) Advance();
        }
      }
      en.value = next_value++;
      e.enumerators.push_back(std::move(en));
    }
    if (!Peek().Is("}")) return false;
    Advance();
    if (Peek().Is(";")) Advance();
    out_->enums.push_back(std::move(e));
    return true;
  }

  bool ParseStructBody(std::string_view name, bool is_union, int line) {
    CStructDef def;
    def.name = std::string(name);
    def.is_union = is_union;
    def.comment = std::string(DocCommentAbove(line));
    def.line = line;
    if (!Peek().Is("{")) return false;
    Advance();
    while (!AtEof() && !Peek().Is("}")) {
      CStructField field;
      int field_line = Peek().line;
      if (!ParseStructField(&field)) return false;
      field.comment = std::string(CommentOnLine(field_line));
      def.fields.push_back(std::move(field));
    }
    if (!Peek().Is("}")) return false;
    Advance();
    if (Peek().Is(";")) Advance();
    out_->structs.push_back(std::move(def));
    return true;
  }

  bool ParseStructField(CStructField* out) {
    std::vector<std::string_view> type_tokens;
    for (;;) {
      const CToken& t = Peek();
      if (t.Is("*")) {
        out->is_pointer = true;
        Advance();
        continue;
      }
      if (t.kind != CTokKind::kIdent) return false;
      const CToken& nxt = Peek(1);
      if (nxt.Is(";") || nxt.Is("[")) {
        out->name = std::string(Advance().text);
        break;
      }
      type_tokens.push_back(Advance().text);
    }
    out->type_text = JoinWords(type_tokens);
    if (Peek().Is("[")) {
      Advance();
      if (Peek().Is("]")) {
        out->array_len = 0;  // Flexible array member.
      } else if (Peek().kind == CTokKind::kNumber) {
        out->array_len = static_cast<int64_t>(Advance().number);
      } else if (Peek().kind == CTokKind::kIdent) {
        out->array_len_text = std::string(Advance().text);
        out->array_len = -1;
      } else {
        return false;
      }
      if (!Peek().Is("]")) return false;
      Advance();
    }
    if (!Peek().Is(";")) return false;
    Advance();
    return true;
  }

  bool ParseVariable(const std::string& type_text, const std::string& name,
                     bool is_static, int line) {
    CVarDef var;
    auto words = util::SplitWhitespace(type_text);
    var.type_name = words.empty() ? type_text : words.back();
    var.name = name;
    var.is_static = is_static;
    var.line = line;

    if (Peek().Is(";")) {
      Advance();
      out_->vars.push_back(std::move(var));
      return true;
    }
    if (Peek().Is("[")) {
      while (!AtEof() && !Peek().Is("=") && !Peek().Is(";")) Advance();
      if (Peek().Is(";")) {
        Advance();
        out_->vars.push_back(std::move(var));
        return true;
      }
    }
    if (!Peek().Is("=")) return false;
    Advance();
    if (!Peek().Is("{")) {
      CInitEntry entry;
      entry.field = "";
      entry.value_text = CollectValueText({";"});
      var.init.push_back(std::move(entry));
      if (Peek().Is(";")) Advance();
      out_->vars.push_back(std::move(var));
      return true;
    }
    Advance();  // '{'
    while (!AtEof() && !Peek().Is("}")) {
      if (Peek().Is(",")) {
        Advance();
        continue;
      }
      if (Peek().Is(".")) {
        Advance();
        if (Peek().kind != CTokKind::kIdent) return false;
        CInitEntry entry;
        entry.field = std::string(Advance().text);
        if (!Peek().Is("=")) return false;
        Advance();
        entry.value_text = CollectValueText({",", "}"});
        var.init.push_back(std::move(entry));
        continue;
      }
      CInitEntry entry;
      entry.field = "";
      entry.value_text = CollectValueText({",", "}"});
      var.init.push_back(std::move(entry));
    }
    if (!Peek().Is("}")) return false;
    Advance();
    if (Peek().Is(";")) Advance();
    out_->vars.push_back(std::move(var));
    return true;
  }

  /// Collects raw token text, space-separated, until one of `stops` at
  /// nesting depth 0. String literals get their quotes back.
  std::string CollectValueText(std::initializer_list<std::string_view> stops) {
    std::string out;
    bool first = true;
    int depth = 0;
    while (!AtEof()) {
      const CToken& t = Peek();
      if (depth == 0 && t.kind == CTokKind::kPunct) {
        for (std::string_view s : stops) {
          if (t.text == s) return out;
        }
      }
      if (t.Is("(") || t.Is("{") || t.Is("[")) ++depth;
      if (t.Is(")") || t.Is("}") || t.Is("]")) --depth;
      if (!first) out += ' ';
      first = false;
      if (t.kind == CTokKind::kString) {
        out += '"';
        out += t.text;
        out += '"';
      } else {
        out += t.text;
      }
      Advance();
    }
    return out;
  }

  bool ParseFunction(const std::string& return_type, const std::string& name,
                     bool is_static, int line) {
    CFunction fn;
    fn.return_type = return_type;
    fn.name = name;
    fn.is_static = is_static;
    fn.comment = std::string(DocCommentAbove(line));
    fn.line = line;

    if (!Peek().Is("(")) return false;
    Advance();
    std::vector<std::string_view> current;
    bool current_has_ptr = false;
    auto flush_param = [&]() {
      if (current.empty()) return;
      CParam p;
      p.name = std::string(current.back());
      current.pop_back();
      if (current_has_ptr) current.push_back("*");
      p.type_text = JoinWords(current);
      fn.params.push_back(std::move(p));
      current.clear();
      current_has_ptr = false;
    };
    int depth = 1;
    while (!AtEof() && depth > 0) {
      const CToken& t = Advance();
      if (t.Is("(")) ++depth;
      if (t.Is(")")) {
        --depth;
        if (depth == 0) break;
      }
      if (depth == 1 && t.Is(",")) {
        flush_param();
        continue;
      }
      if (t.Is("*")) {
        current_has_ptr = true;
        continue;
      }
      if (t.kind == CTokKind::kIdent && !t.IsIdent("void")) {
        current.push_back(t.text);
      }
    }
    flush_param();

    if (Peek().Is(";")) {
      Advance();
      out_->functions.push_back(std::move(fn));
      return true;
    }
    if (!Peek().Is("{")) return false;
    size_t body_begin = Peek().end;  // Just after '{'.
    Advance();
    int braces = 1;
    size_t body_end = body_begin;
    size_t body_tok_begin = pos_;
    while (!AtEof() && braces > 0) {
      const CToken& t = Advance();
      if (t.Is("{")) ++braces;
      if (t.Is("}")) {
        --braces;
        if (braces == 0) {
          body_end = t.begin;
          break;
        }
      }
    }
    if (braces > 0) {
      // The source ends inside the body: keep the signature alone.
      Diag(util::Format("line %d: body of function '%s' is unterminated", line,
                        fn.name.c_str()));
    } else {
      // Tokens are views, so this copies no text. The closing brace stays
      // behind.
      fn.body_text = source_.substr(body_begin, body_end - body_begin);
      fn.body_tokens.assign(tokens_.begin() + static_cast<long>(body_tok_begin),
                            tokens_.begin() + static_cast<long>(pos_) - 1);
    }
    out_->functions.push_back(std::move(fn));
    return true;
  }

  const std::string& source_;
  std::vector<CToken> tokens_;
  /// By line: the raw text of the first comment token ending there.
  std::vector<std::string_view> comment_on_line_;
  size_t pos_ = 0;
  CFile* out_;
};

}  // namespace

std::string
CVarDef::InitFor(const std::string& field) const
{
  for (const CInitEntry& e : init) {
    if (e.field == field) return e.value_text;
  }
  return "";
}

const CStructDef*
CFile::FindStruct(const std::string& name) const
{
  for (const auto& s : structs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const CFunction*
CFile::FindFunction(const std::string& name) const
{
  for (const auto& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const CVarDef*
CFile::FindVar(const std::string& name) const
{
  for (const auto& v : vars) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

const CMacro*
CFile::FindMacro(const std::string& name) const
{
  for (const auto& m : macros) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

CFile
CParse(std::string source, const std::string& path)
{
  CFile file;
  file.path = path;
  file.source = std::make_shared<const std::string>(std::move(source));
  CParserImpl(&file).Run();
  return file;
}

uint64_t
IoctlNumber(char dir_read, char dir_write, uint64_t type, uint64_t nr,
            uint64_t size)
{
  uint64_t dir = kIocNone;
  if (dir_read == 'r') dir |= kIocRead;
  if (dir_write == 'w') dir |= kIocWrite;
  return (dir << kIocDirShift) | (type << kIocTypeShift) |
         (nr << kIocNrShift) | (size << kIocSizeShift);
}

uint64_t
IocNr(uint64_t cmd)
{
  return (cmd >> kIocNrShift) & ((1ULL << kIocNrBits) - 1);
}

uint64_t
IocType(uint64_t cmd)
{
  return (cmd >> kIocTypeShift) & ((1ULL << kIocTypeBits) - 1);
}

uint64_t
IocSize(uint64_t cmd)
{
  return (cmd >> kIocSizeShift) & ((1ULL << kIocSizeBits) - 1);
}

}  // namespace kernelgpt::ksrc
