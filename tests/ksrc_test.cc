// Unit tests for the C-subset lexer/parser, definition index (ExtractCode,
// macro evaluation and the cached analyses), and body analyses.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <thread>
#include <type_traits>

#include "drivers/corpus.h"
#include "drivers/model_render.h"
#include "ksrc/body_analysis.h"
#include "ksrc/clexer.h"
#include "ksrc/cparser.h"
#include "ksrc/definition_index.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kernelgpt::ksrc {
namespace {

constexpr char kDmSource[] = R"(
/* Synthetic device mapper */

#define DM_IOCTL 0xfd
#define DM_NAME "device-mapper"
#define DM_DIR "mapper"
#define DM_CONTROL_NODE "control"
#define DM_LIST_DEVICES_NR 3
#define DM_LIST_DEVICES _IOWR(DM_IOCTL, DM_LIST_DEVICES_NR, struct dm_ioctl)

/* control block for dm ioctls */
struct dm_ioctl {
	__u32 version[3]; /* ABI version */
	__u32 data_size; /* total size of data passed in */
	__u64 dev;
	char name[128];
};

static int dm_list_devices(struct file *file, unsigned long u)
{
	struct dm_ioctl param;
	if (copy_from_user(&param, (void *)u, sizeof(struct dm_ioctl)))
		return -EFAULT;
	if (!param.dev)
		return -EINVAL;
	return 0;
}

static int ctl_ioctl(struct file *file, unsigned int command, unsigned long u)
{
	unsigned int cmd;
	cmd = _IOC_NR(command);
	switch (cmd) {
	case DM_LIST_DEVICES_NR:
		return dm_list_devices(file, u);
	default:
		break;
	}
	return -ENOTTY;
}

static long dm_ctl_ioctl(struct file *file, unsigned int command, unsigned long u)
{
	return ctl_ioctl(file, command, u);
}

static const struct file_operations _ctl_fops = {
	.owner = THIS_MODULE,
	.open = dm_open,
	.unlocked_ioctl = dm_ctl_ioctl,
	.compat_ioctl = dm_ctl_ioctl,
};

static struct miscdevice _dm_misc = {
	.minor = 236,
	.name = DM_NAME,
	.nodename = DM_DIR "/" DM_CONTROL_NODE,
	.fops = &_ctl_fops,
};
)";

class DmIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.AddSource(kDmSource, "drivers/md/dm-ioctl.c");
    index_.ResolveMacros();
  }
  DefinitionIndex index_;
};

// CLex accepts a named string and refuses a temporary, whose tokens
// would view freed memory.
template <typename T, typename = void>
struct LexAccepts : std::false_type {};
template <typename T>
struct LexAccepts<T, std::void_t<decltype(CLex(std::declval<T>()))>>
    : std::true_type {};
static_assert(LexAccepts<const std::string&>::value);
static_assert(LexAccepts<std::string&>::value);
static_assert(!LexAccepts<std::string>::value);
static_assert(!LexAccepts<const char*>::value);

/// The texts of `source`'s tokens, EOF excluded.
std::vector<std::string>
LexTexts(const std::string& source)
{
  std::vector<std::string> out;
  for (const CToken& t : CLex(source)) {
    if (t.kind != CTokKind::kEof) out.emplace_back(t.text);
  }
  return out;
}

TEST(CLexerTest, KeepsCommentsAndDirectives)
{
  const std::string source = "#define A 1\n/* hi */ int x;";
  auto toks = CLex(source);
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, CTokKind::kDirective);
  EXPECT_EQ(toks[1].kind, CTokKind::kComment);
  EXPECT_EQ(toks[1].text, "/* hi */");
}

TEST(CLexerTest, MultiCharOperators)
{
  for (const char* op :
       {"<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
        "->", "++", "--", "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%="}) {
    const std::string source = std::string("a") + op + "b";
    auto toks = CLex(source);
    ASSERT_EQ(toks.size(), 4u) << op;
    EXPECT_TRUE(toks[1].Is(op)) << op;
    EXPECT_EQ(toks[1].begin, 1u) << op;
    EXPECT_EQ(toks[2].text, "b") << op;
  }
  // Longest match first, and no operator the list lacks.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {
          {"&&=", {"&&", "="}},      {"||=", {"||", "="}},
          {"..", {".", "."}},        {"....", {"...", "."}},
          {"<<<", {"<<", "<"}},      {">>>=", {">>", ">="}},
          {"<==", {"<=", "="}},      {"===", {"==", "="}},
          {"!==", {"!=", "="}},      {"->>", {"->", ">"}},
          {"+++", {"++", "+"}},      {"---", {"--", "-"}},
          {"-->", {"--", ">"}},      {"=>", {"=", ">"}},
          {"*/", {"*", "/"}},        {"~=", {"~", "="}},
          {"a->b == c;", {"a", "->", "b", "==", "c", ";"}},
          {"x<", {"x", "<"}},        {"x.", {"x", "."}},
          {"x..", {"x", ".", "."}},  {"x-", {"x", "-"}},
      };
  for (const auto& [source, texts] : cases) {
    EXPECT_EQ(LexTexts(source), texts) << source;
  }
}

TEST(CLexerTest, IntegerSuffixesSwallowed)
{
  const std::string source = "x = 10UL; y = 0x1fULL;";
  auto toks = CLex(source);
  std::vector<uint64_t> numbers;
  std::vector<std::string> texts;
  for (const auto& t : toks) {
    if (t.kind == CTokKind::kNumber) {
      numbers.push_back(t.number);
      texts.emplace_back(t.text);
    }
  }
  EXPECT_EQ(numbers, (std::vector<uint64_t>{10, 31}));
  EXPECT_EQ(texts, (std::vector<std::string>{"10UL", "0x1fULL"}));
}

TEST(CLexerTest, OffsetsSliceSource)
{
  std::string src = "int foo;";
  auto toks = CLex(src);
  EXPECT_EQ(src.substr(toks[1].begin, toks[1].end - toks[1].begin), "foo");
  // A char literal cut off after a backslash ends with the source.
  const std::string cut = "c = '\\";
  auto cut_toks = CLex(cut);
  ASSERT_EQ(cut_toks.size(), 4u);
  EXPECT_EQ(cut_toks[2].kind, CTokKind::kCharLit);
  EXPECT_EQ(cut_toks[2].text, "'\\");
  EXPECT_EQ(cut_toks[2].end, cut.size());
  EXPECT_EQ(cut_toks[3].begin, cut.size());
}

TEST_F(DmIndexTest, ParsesStructWithCommentsAndArrays)
{
  const CStructDef* s = index_.FindStruct("dm_ioctl");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->fields.size(), 4u);
  EXPECT_EQ(s->fields[0].array_len, 3);
  EXPECT_EQ(s->fields[1].comment, "total size of data passed in");
  EXPECT_EQ(s->fields[3].array_len, 128);
  EXPECT_EQ(s->comment, "control block for dm ioctls");
}

TEST_F(DmIndexTest, ParsesFunctionsWithBodies)
{
  const CFunction* fn = index_.FindFunction("ctl_ioctl");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->params.size(), 3u);
  EXPECT_EQ(fn->params[1].name, "command");
  EXPECT_FALSE(fn->body_text.empty());
}

TEST_F(DmIndexTest, ParsesVarsWithDesignatedInit)
{
  const CVarDef* misc = index_.FindVar("_dm_misc");
  ASSERT_NE(misc, nullptr);
  EXPECT_EQ(misc->type_name, "miscdevice");
  EXPECT_EQ(misc->InitFor("name"), "DM_NAME");
  EXPECT_EQ(misc->InitFor("nodename"), "DM_DIR \"/\" DM_CONTROL_NODE");
  const CVarDef* fops = index_.FindVar("_ctl_fops");
  ASSERT_NE(fops, nullptr);
  EXPECT_EQ(fops->InitFor("unlocked_ioctl"), "dm_ctl_ioctl");
}

TEST_F(DmIndexTest, MacroEvaluationIncludesIoc)
{
  auto v = index_.ConstValue("DM_LIST_DEVICES");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(IocNr(*v), 3u);
  EXPECT_EQ(IocType(*v), 0xfdu);
  EXPECT_EQ(IocSize(*v), index_.SizeOf("struct dm_ioctl"));
}

TEST_F(DmIndexTest, StructSizeComputation)
{
  // 3*4 + 4 + 8 + 128 = 152.
  EXPECT_EQ(index_.SizeOf("struct dm_ioctl"), 152u);
  EXPECT_EQ(index_.SizeOf("__u32"), 4u);
  EXPECT_EQ(index_.SizeOf("void *"), 8u);
  EXPECT_EQ(index_.SizeOf("unknown_t"), 0u);
}

TEST_F(DmIndexTest, StringExprResolution)
{
  auto s = index_.ResolveStringExpr("DM_DIR \"/\" DM_CONTROL_NODE");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, "mapper/control");
  EXPECT_EQ(index_.ResolveStringExpr("DM_NAME").value_or(""),
            "device-mapper");
  EXPECT_FALSE(index_.ResolveStringExpr("UNKNOWN_MACRO").has_value());
}

TEST_F(DmIndexTest, ExtractCodeRendersEntities)
{
  std::string fn = index_.ExtractCode("ctl_ioctl");
  EXPECT_NE(fn.find("switch"), std::string::npos);
  std::string st = index_.ExtractCode("dm_ioctl");
  EXPECT_NE(st.find("data_size"), std::string::npos);
  EXPECT_NE(st.find("total size of data"), std::string::npos);
  std::string var = index_.ExtractCode("_dm_misc");
  EXPECT_NE(var.find("nodename"), std::string::npos);
  EXPECT_EQ(index_.ExtractCode("no_such_thing"), "");
}

TEST_F(DmIndexTest, ClassifyIdentifiers)
{
  EXPECT_EQ(index_.Classify("ctl_ioctl"), EntityKind::kFunction);
  EXPECT_EQ(index_.Classify("dm_ioctl"), EntityKind::kStruct);
  EXPECT_EQ(index_.Classify("_dm_misc"), EntityKind::kVariable);
  EXPECT_EQ(index_.Classify("DM_IOCTL"), EntityKind::kMacro);
  EXPECT_EQ(index_.Classify("nothing"), EntityKind::kNotFound);
}

TEST_F(DmIndexTest, VarsOfTypeFindsHandlers)
{
  auto fops = index_.VarsOfType("file_operations");
  ASSERT_EQ(fops.size(), 1u);
  EXPECT_EQ(fops[0]->name, "_ctl_fops");
}

TEST_F(DmIndexTest, ConstTableExport)
{
  auto table = index_.BuildConstTable();
  EXPECT_TRUE(table.Has("DM_IOCTL"));
  EXPECT_TRUE(table.Has("DM_LIST_DEVICES"));
}

TEST_F(DmIndexTest, SwitchAnalysisFindsCases)
{
  const CFunction* fn = index_.FindFunction("ctl_ioctl");
  ASSERT_NE(fn, nullptr);
  auto switches = FindSwitches(*fn);
  ASSERT_EQ(switches.size(), 1u);
  EXPECT_EQ(switches[0].subject, "cmd");
  ASSERT_EQ(switches[0].cases.size(), 1u);
  EXPECT_EQ(switches[0].cases[0].label, "DM_LIST_DEVICES_NR");
  EXPECT_TRUE(switches[0].has_default);
  EXPECT_NE(switches[0].cases[0].text.find("dm_list_devices"),
            std::string::npos);
}

TEST_F(DmIndexTest, CmdModificationDetected)
{
  const CFunction* fn = index_.FindFunction("ctl_ioctl");
  auto mods = FindCmdModifications(*fn);
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].dest, "cmd");
  EXPECT_EQ(mods[0].op, "_IOC_NR");
  EXPECT_EQ(mods[0].src, "command");
}

TEST_F(DmIndexTest, DelegationCallDetected)
{
  const CFunction* fn = index_.FindFunction("dm_ctl_ioctl");
  ASSERT_NE(fn, nullptr);
  auto calls = FindCalls(*fn);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].callee, "ctl_ioctl");
  EXPECT_TRUE(calls[0].is_return);
  ASSERT_EQ(calls[0].args.size(), 3u);
  EXPECT_EQ(calls[0].args[1], "command");
}

TEST_F(DmIndexTest, UserCopyDetected)
{
  const CFunction* fn = index_.FindFunction("dm_list_devices");
  ASSERT_NE(fn, nullptr);
  auto copies = FindUserCopies(*fn);
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_TRUE(copies[0].from_user);
  EXPECT_EQ(copies[0].type_name, "dm_ioctl");
  EXPECT_EQ(copies[0].dest_var, "param");
}

// The index's lookup rules as plain scans over its files in order: the
// first file and first entity win, except that a function prefers the
// first file whose first match has a body, else the last declaration.
template <typename T>
const T*
ScanFirst(const DefinitionIndex& index, std::vector<T> CFile::*kind,
          const std::string& name)
{
  for (const CFile& f : index.files()) {
    for (const T& e : f.*kind) {
      if (e.name == name) return &e;
    }
  }
  return nullptr;
}

const CFunction*
ScanFunction(const DefinitionIndex& index, const std::string& name)
{
  const CFunction* fallback = nullptr;
  for (const CFile& f : index.files()) {
    if (const CFunction* fn = f.FindFunction(name)) {
      if (!fn->body_text.empty()) return fn;
      fallback = fn;
    }
  }
  return fallback;
}

TEST(DefinitionIndexTest, CorpusLookupsMatchALinearScan)
{
  const DefinitionIndex index = drivers::Corpus::Instance().BuildIndex();
  size_t functions = 0, structs = 0, vars = 0, macros = 0;
  for (const CFile& f : index.files()) {
    for (const CFunction& fn : f.functions) {
      ++functions;
      EXPECT_EQ(index.FindFunction(fn.name), ScanFunction(index, fn.name))
          << fn.name;
    }
    for (const CStructDef& s : f.structs) {
      ++structs;
      EXPECT_EQ(index.FindStruct(s.name),
                ScanFirst(index, &CFile::structs, s.name))
          << s.name;
    }
    for (const CVarDef& v : f.vars) {
      ++vars;
      EXPECT_EQ(index.FindVar(v.name), ScanFirst(index, &CFile::vars, v.name))
          << v.name;
    }
    for (const CMacro& m : f.macros) {
      ++macros;
      EXPECT_EQ(index.FindMacro(m.name),
                ScanFirst(index, &CFile::macros, m.name))
          << m.name;
    }
  }
  EXPECT_EQ(index.files().size(), 69u);
  EXPECT_EQ(functions, 1044u);
  EXPECT_EQ(structs, 221u);
  EXPECT_EQ(vars, 127u);
  EXPECT_EQ(macros, 1543u);
  EXPECT_EQ(index.FindFunction("no_such_name"), nullptr);
  EXPECT_EQ(index.FindStruct("no_such_name"), nullptr);
  EXPECT_EQ(index.FindVar("no_such_name"), nullptr);
  EXPECT_EQ(index.FindMacro("no_such_name"), nullptr);
}

TEST(DefinitionIndexTest, LookupRulesSurviveCopyAndMove)
{
  DefinitionIndex index;
  index.AddSource(
      "#define M 1\n"
      "struct s { int first; };\n"
      "static struct file_operations v = { .open = a_open, };\n"
      "int foo(int x);\n"
      "int only_decl(int x);\n",
      "a.c");
  index.AddSource(
      "#define M 2\n"
      "struct s { int second; };\n"
      "static struct file_operations v = { .open = b_open, };\n"
      "int foo(int x)\n{\n\treturn x;\n}\n",
      "b.c");
  index.AddSource(
      "int foo(int x);\n"
      "int only_decl(int y);\n"
      "int same_file(void);\n"
      "int same_file(void)\n{\n\treturn 0;\n}\n",
      "c.c");
  index.ResolveMacros();

  auto check = [](const DefinitionIndex& idx) {
    const std::vector<CFile>& files = idx.files();
    ASSERT_EQ(files.size(), 3u);
    // A definition beats forward declarations before and after it.
    EXPECT_EQ(idx.FindFunction("foo"), &files[1].functions[0]);
    // With no definition anywhere, the last declaration wins.
    EXPECT_EQ(idx.FindFunction("only_decl"), &files[2].functions[1]);
    // Only a file's first match counts, even if a later one has a body.
    EXPECT_EQ(idx.FindFunction("same_file"), &files[2].functions[2]);
    // Everything else: the first file that defines the name.
    EXPECT_EQ(idx.FindStruct("s"), &files[0].structs[0]);
    EXPECT_EQ(idx.FindVar("v"), &files[0].vars[0]);
    EXPECT_EQ(idx.FindMacro("M"), &files[0].macros[0]);
    EXPECT_EQ(idx.ConstValue("M"), 1u);
    EXPECT_EQ(idx.Classify("foo"), EntityKind::kFunction);
  };
  check(index);
  const DefinitionIndex copy(index);
  check(copy);
  EXPECT_NE(copy.FindStruct("s"), index.FindStruct("s"));
  const DefinitionIndex moved(std::move(index));
  check(moved);
}

TEST(SizeofTypeNameTest, Variants)
{
  EXPECT_EQ(SizeofTypeName("sizeof ( struct dm_ioctl )").value_or(""),
            "dm_ioctl");
  EXPECT_EQ(SizeofTypeName("sizeof(int)").value_or(""), "int");
  EXPECT_FALSE(SizeofTypeName("param.len").has_value());
}

TEST(IoctlEncodingTest, NrTypeSizeRoundTrip)
{
  uint64_t cmd = IoctlNumber('r', 'w', 0xfd, 3, 152);
  EXPECT_EQ(IocNr(cmd), 3u);
  EXPECT_EQ(IocType(cmd), 0xfdu);
  EXPECT_EQ(IocSize(cmd), 152u);
}

TEST(CParserTest, EnumParsing)
{
  CFile f = CParse("enum dm_mode { MODE_A = 1, MODE_B, MODE_C = 10, };");
  ASSERT_EQ(f.enums.size(), 1u);
  ASSERT_EQ(f.enums[0].enumerators.size(), 3u);
  EXPECT_EQ(f.enums[0].enumerators[1].value, 2u);
  EXPECT_EQ(f.enums[0].enumerators[2].value, 10u);
}

TEST(CParserTest, SkipsUnknownConstructs)
{
  CFile f = CParse("typedef weird thing; struct ok { int x; };");
  EXPECT_NE(f.FindStruct("ok"), nullptr);
}

TEST(CParserTest, FlexibleArrayMember)
{
  CFile f = CParse("struct v { __u32 count; __u32 devices[]; };");
  const CStructDef* s = f.FindStruct("v");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->fields[1].array_len, 0);
}

TEST(CParserTest, MacroArrayLen)
{
  CFile f = CParse("#define LEN 16\nstruct v { char name[LEN]; };");
  const CStructDef* s = f.FindStruct("v");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->fields[0].array_len_text, "LEN");
}

// A source that ends inside a function body keeps the signature with an
// empty body and says so; it used to throw std::length_error when the
// body's opening brace was the last token.
TEST(CParserTest, UnterminatedFunctionBodyIsEmptyWithADiagnostic)
{
  for (const char* source :
       {"long f(int a) {", "long f(int a) { x", "long f(int a) { if (a) { b; }",
        "long f(int a) {\n\treturn g(a);\n"}) {
    CFile f;
    ASSERT_NO_THROW(f = CParse(source)) << source;
    ASSERT_EQ(f.functions.size(), 1u) << source;
    const CFunction& fn = f.functions[0];
    EXPECT_EQ(fn.name, "f");
    ASSERT_EQ(fn.params.size(), 1u);
    EXPECT_EQ(fn.params[0].name, "a");
    EXPECT_TRUE(fn.body_text.empty()) << source;
    EXPECT_TRUE(fn.body_tokens.empty()) << source;
    EXPECT_EQ(f.diagnostics,
              std::vector<std::string>{
                  "line 1: body of function 'f' is unterminated"})
        << source;
  }
  // A terminated body is unaffected, down to its last token.
  CFile f = CParse("long f(int a) { return a; }");
  ASSERT_EQ(f.functions.size(), 1u);
  EXPECT_EQ(f.functions[0].body_text, " return a; ");
  ASSERT_EQ(f.functions[0].body_tokens.size(), 3u);
  EXPECT_TRUE(f.functions[0].body_tokens[2].Is(";"));
  EXPECT_TRUE(f.diagnostics.empty());
}

TEST(CParserTest, PositionalInitializerTable)
{
  CFile f = CParse(
      "static struct entry _tbl[] = {\n"
      "\t{ CMD_A, fn_a },\n"
      "\t{ CMD_B, fn_b },\n"
      "};");
  const CVarDef* v = f.FindVar("_tbl");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->init.size(), 2u);
  EXPECT_NE(v->init[0].value_text.find("CMD_A"), std::string::npos);
  EXPECT_NE(v->init[1].value_text.find("fn_b"), std::string::npos);
}

TEST(FlagGroupTest, ExcludesCommandMacros)
{
  CFile file = CParse(
      "#define X_MAGIC 0x40\n"
      "#define X_CMD1_NR 1\n"
      "#define X_CMD1 _IOWR(X_MAGIC, X_CMD1_NR, struct a)\n"
      "#define X_F_A 1\n"
      "#define X_F_B 2\n"
      "#define X_NAME_LEN 64\n",
      "x.c");
  auto groups = FindFlagGroups(file);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].member_macros.size(), 2u);
  EXPECT_EQ(groups[0].member_macros[0], "X_F_A");
}

// -- Cached analyses ---------------------------------------------------------

std::vector<std::string>
Describe(const std::vector<CallSite>& calls)
{
  std::vector<std::string> out;
  for (const CallSite& c : calls) {
    out.push_back(c.callee + " (" + util::Join(c.args, " | ") + ") " +
                  c.text + (c.is_return ? " [return]" : ""));
  }
  return out;
}

std::vector<std::string>
Describe(const std::vector<UserCopy>& copies)
{
  std::vector<std::string> out;
  for (const UserCopy& c : copies) {
    out.push_back(std::string(c.from_user ? "from " : "to ") + c.type_name +
                  " " + c.dest_var);
  }
  return out;
}

std::vector<std::string>
Describe(const std::vector<CmdModification>& mods)
{
  std::vector<std::string> out;
  for (const CmdModification& m : mods) {
    out.push_back(m.dest + " = " + m.op + "(" + m.src + ")");
  }
  return out;
}

std::vector<std::string>
Describe(const std::vector<FlagGroup>& groups)
{
  std::vector<std::string> out;
  for (const FlagGroup& g : groups) {
    out.push_back(g.set_name + ": " + util::Join(g.member_macros, " "));
  }
  return out;
}

/// Switch subjects and "label -> first callee" per arm, from the facts.
std::vector<std::string>
DescribeArms(const FunctionFacts& facts)
{
  std::vector<std::string> out;
  for (const FunctionFacts::Switch& sw : facts.switches) {
    out.push_back("switch " + sw.subject);
    for (const FunctionFacts::Arm& arm : sw.arms) {
      out.push_back(arm.label + " -> " + arm.first_callee);
    }
  }
  return out;
}

/// The same from FindSwitches, taking each arm's first callee the way
/// the simulated LLM used to: FindCalls over the arm's tokens.
std::vector<std::string>
DescribeArms(const CFunction& fn)
{
  std::vector<std::string> out;
  for (const SwitchInfo& sw : FindSwitches(fn)) {
    out.push_back("switch " + sw.subject);
    for (const SwitchCase& arm : sw.cases) {
      CFunction pseudo;
      pseudo.body_tokens = arm.tokens;
      const std::vector<CallSite> calls = FindCalls(pseudo);
      out.push_back(arm.label + " -> " +
                    (calls.empty() ? "" : calls.front().callee));
    }
  }
  return out;
}

/// Variables with an initializer that the body names, token by token.
std::vector<const CVarDef*>
ScanDispatchTables(const DefinitionIndex& index, const CFunction& fn)
{
  std::vector<const CVarDef*> out;
  for (const CToken& t : fn.body_tokens) {
    if (t.kind != CTokKind::kIdent) continue;
    const CVarDef* var = index.FindVar(std::string(t.text));
    if (var && !var->init.empty()) out.push_back(var);
  }
  return out;
}

/// Checks `facts` against the direct analyses of `fn` in `index`.
void
ExpectFactsOf(const DefinitionIndex& index, const CFunction& fn,
              const FunctionFacts& facts)
{
  SCOPED_TRACE(fn.name);
  EXPECT_EQ(facts.code, RenderFunction(fn));
  EXPECT_EQ(facts.code_words, util::CountWords(facts.code));
  EXPECT_EQ(Describe(facts.calls), Describe(FindCalls(fn)));
  EXPECT_EQ(Describe(facts.user_copies), Describe(FindUserCopies(fn)));
  EXPECT_EQ(DescribeArms(facts), DescribeArms(fn));
  EXPECT_EQ(Describe(facts.cmd_modifications),
            Describe(FindCmdModifications(fn)));
  EXPECT_EQ(facts.dispatch_tables, ScanDispatchTables(index, fn));
}

TEST(AnalysisCacheTest, FactsEqualTheDirectAnalysesForEveryFunction)
{
  const DefinitionIndex index = drivers::Corpus::Instance().BuildIndex();
  size_t functions = 0, switch_arms = 0, tables = 0, copies = 0;
  for (const CFile& f : index.files()) {
    for (const CFunction& fn : f.functions) {
      ++functions;
      // Facts follow the slot FindFunction resolves (a definition beats
      // forward declarations), and a second request returns the same
      // entry.
      const CFunction* resolved = index.FindFunction(fn.name);
      const FunctionFacts* facts = index.Facts(fn.name);
      ASSERT_NE(facts, nullptr) << fn.name;
      EXPECT_EQ(index.Facts(fn.name), facts);
      ExpectFactsOf(index, *resolved, *facts);
      for (const auto& sw : facts->switches) switch_arms += sw.arms.size();
      tables += facts->dispatch_tables.size();
      copies += facts->user_copies.size();
    }
  }
  EXPECT_EQ(functions, 1044u);
  // The corpus exercises every part of the facts.
  EXPECT_GT(switch_arms, 0u);
  EXPECT_GT(tables, 0u);
  EXPECT_GT(copies, 0u);
  EXPECT_EQ(index.Facts("no_such_name"), nullptr);
}

TEST(AnalysisCacheTest, FlagGroupsOfStructReadTheDefiningFile)
{
  const DefinitionIndex index = drivers::Corpus::Instance().BuildIndex();
  size_t structs = 0, with_groups = 0;
  for (const CFile& f : index.files()) {
    for (const CStructDef& s : f.structs) {
      ++structs;
      // The first file that defines the struct, as a linear scan finds it.
      const CFile* defining = nullptr;
      for (const CFile& g : index.files()) {
        if (g.FindStruct(s.name)) {
          defining = &g;
          break;
        }
      }
      const std::vector<FlagGroup>* groups = index.FlagGroupsOfStruct(s.name);
      ASSERT_NE(groups, nullptr) << s.name;
      EXPECT_EQ(Describe(*groups), Describe(FindFlagGroups(*defining)))
          << s.name;
      // One entry per file: structs of the same file share it.
      EXPECT_EQ(index.FlagGroupsOfStruct(defining->structs[0].name), groups);
      with_groups += !groups->empty();
    }
  }
  EXPECT_EQ(structs, 221u);
  EXPECT_GT(with_groups, 0u);
  EXPECT_EQ(index.FlagGroupsOfStruct("no_such_name"), nullptr);
}

TEST(AnalysisCacheTest, CopyStartsEmptyAndMoveKeepsHandedOutPointers)
{
  std::optional<DefinitionIndex> original(
      drivers::Corpus::Instance().BuildIndex());
  // A function that names a dispatch table, so the facts hold pointers
  // into the index's own variables.
  std::string name;
  for (const CFile& f : original->files()) {
    for (const CFunction& fn : f.functions) {
      if (name.empty() && !original->Facts(fn.name)->dispatch_tables.empty()) {
        name = fn.name;
      }
    }
  }
  ASSERT_FALSE(name.empty());
  const FunctionFacts* facts = original->Facts(name);
  const std::vector<FlagGroup>* groups = original->FlagGroupsOfStruct("dm_ioctl");
  ASSERT_NE(groups, nullptr);
  const std::string code = facts->code;

  // A copy computes its own entries against its own files, so it outlives
  // the original.
  DefinitionIndex copy(*original);
  const FunctionFacts* copied = copy.Facts(name);
  ASSERT_NE(copied, nullptr);
  EXPECT_NE(copied, facts);
  EXPECT_NE(copy.FlagGroupsOfStruct("dm_ioctl"), groups);
  ExpectFactsOf(copy, *copy.FindFunction(name), *copied);
  EXPECT_EQ(copied->dispatch_tables[0],
            copy.FindVar(copied->dispatch_tables[0]->name));

  // A move takes the entries along: every pointer handed out before stays
  // valid and is what the new owner hands out.
  DefinitionIndex moved(std::move(*original));
  original.reset();
  EXPECT_EQ(moved.Facts(name), facts);
  EXPECT_EQ(moved.FlagGroupsOfStruct("dm_ioctl"), groups);
  EXPECT_EQ(facts->code, code);
  EXPECT_EQ(facts->dispatch_tables[0],
            moved.FindVar(facts->dispatch_tables[0]->name));
  DefinitionIndex assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Facts(name), facts);
  ExpectFactsOf(assigned, *assigned.FindFunction(name), *facts);
  EXPECT_EQ(Describe(*groups), Describe(*copy.FlagGroupsOfStruct("dm_ioctl")));
}

TEST(AnalysisCacheTest, BuildCallsAndCopyAssignmentDropStaleEntries)
{
  DefinitionIndex index;
  index.AddSource(
      "#define F_A 1\n"
      "#define F_B F_C\n"
      "#define F_C 2\n"
      "struct s { int flags; };\n"
      "int foo(int x);\n",
      "a.c");
  ASSERT_NE(index.Facts("foo"), nullptr);
  EXPECT_EQ(index.Facts("foo")->code, "int foo(int x);\n");
  EXPECT_TRUE(index.Facts("foo")->calls.empty());
  // F_B has no value until ResolveMacros.
  ASSERT_EQ(index.FlagGroupsOfStruct("s")->size(), 1u);
  EXPECT_EQ((*index.FlagGroupsOfStruct("s"))[0].member_macros,
            (std::vector<std::string>{"F_A", "F_C"}));

  // AddFile: the definition now wins over the declaration.
  index.AddSource("int foo(int x)\n{\n\treturn bar(x);\n}\n", "b.c");
  ASSERT_EQ(index.Facts("foo")->calls.size(), 1u);
  EXPECT_EQ(index.Facts("foo")->calls[0].callee, "bar");

  // ResolveMacros: F_B joins the group.
  index.ResolveMacros();
  EXPECT_EQ((*index.FlagGroupsOfStruct("s"))[0].member_macros,
            (std::vector<std::string>{"F_A", "F_B", "F_C"}));

  // Copy assignment replaces the files, so it replaces the entries too.
  DefinitionIndex other;
  other.AddSource("int foo(void)\n{\n\treturn baz();\n}\n", "c.c");
  ASSERT_EQ(other.Facts("foo")->calls[0].callee, "baz");
  other = index;
  ASSERT_EQ(other.Facts("foo")->calls.size(), 1u);
  EXPECT_EQ(other.Facts("foo")->calls[0].callee, "bar");
}

TEST(AnalysisCacheTest, ConcurrentFirstTouchAgreesOnEveryPointer)
{
  const DefinitionIndex index = drivers::Corpus::Instance().BuildIndex();
  std::vector<std::string> functions, structs;
  for (const CFile& f : index.files()) {
    for (const CFunction& fn : f.functions) functions.push_back(fn.name);
    for (const CStructDef& s : f.structs) structs.push_back(s.name);
  }
  constexpr int kThreads = 8;
  std::vector<std::vector<const FunctionFacts*>> facts(
      kThreads, std::vector<const FunctionFacts*>(functions.size()));
  std::vector<std::vector<const std::vector<FlagGroup>*>> groups(
      kThreads,
      std::vector<const std::vector<FlagGroup>*>(structs.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread touches every name, each in its own order, with
      // function and struct requests interleaved.
      const size_t n = functions.size() + structs.size();
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(),
                   std::mt19937(static_cast<unsigned>(t)));
      for (size_t i : order) {
        if (i < functions.size()) {
          facts[t][i] = index.Facts(functions[i]);
        } else {
          const size_t j = i - functions.size();
          groups[t][j] = index.FlagGroupsOfStruct(structs[j]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(facts[t], facts[0]) << "thread " << t;
    EXPECT_EQ(groups[t], groups[0]) << "thread " << t;
  }
  for (size_t i = 0; i < functions.size(); ++i) {
    ASSERT_NE(facts[0][i], nullptr);
    EXPECT_EQ(facts[0][i]->code,
              RenderFunction(*index.FindFunction(functions[i])));
  }
  for (size_t j = 0; j < structs.size(); ++j) {
    ASSERT_NE(groups[0][j], nullptr);
  }
}

// -- Pinned output -----------------------------------------------------------

/// Every rendered corpus file as (path, source), in BuildIndex order.
std::vector<std::pair<std::string, std::string>>
CorpusSources()
{
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  std::vector<std::pair<std::string, std::string>> out;
  for (const drivers::DeviceSpec& d : corpus.devices()) {
    out.emplace_back("drivers/" + d.id + ".c", drivers::RenderDeviceSource(d));
  }
  for (const drivers::SocketSpec& s : corpus.sockets()) {
    out.emplace_back("net/" + s.id + ".c", drivers::RenderSocketSource(s));
  }
  return out;
}

uint64_t
HashText(uint64_t h, std::string_view text)
{
  return util::HashCombine(h, util::StableHash(text.data(), text.size()));
}

uint64_t
HashToken(uint64_t h, const CToken& t)
{
  h = util::HashCombine(h, static_cast<uint64_t>(t.kind));
  h = HashText(h, t.text);
  h = util::HashCombine(h, t.number);
  h = util::HashCombine(h, static_cast<uint64_t>(t.line));
  h = util::HashCombine(h, t.begin);
  return util::HashCombine(h, t.end);
}

uint64_t
HashFile(uint64_t h, const CFile& f)
{
  h = HashText(h, f.path);
  for (const CMacro& m : f.macros) {
    h = HashText(h, m.name);
    h = HashText(h, m.value_text);
    h = util::HashCombine(h, m.value.has_value());
    h = util::HashCombine(h, m.value.value_or(0));
    h = util::HashCombine(h, static_cast<uint64_t>(m.line));
  }
  for (const CEnum& e : f.enums) {
    h = HashText(h, e.name);
    for (const CEnumerator& en : e.enumerators) {
      h = HashText(h, en.name);
      h = util::HashCombine(h, en.value);
    }
    h = util::HashCombine(h, static_cast<uint64_t>(e.line));
  }
  for (const CStructDef& s : f.structs) {
    h = HashText(h, s.name);
    h = util::HashCombine(h, s.is_union);
    for (const CStructField& field : s.fields) {
      h = HashText(h, field.type_text);
      h = HashText(h, field.name);
      h = util::HashCombine(h, static_cast<uint64_t>(field.array_len));
      h = HashText(h, field.array_len_text);
      h = util::HashCombine(h, field.is_pointer);
      h = HashText(h, field.comment);
    }
    h = HashText(h, s.comment);
    h = util::HashCombine(h, static_cast<uint64_t>(s.line));
  }
  for (const CVarDef& v : f.vars) {
    h = HashText(h, v.type_name);
    h = HashText(h, v.name);
    h = util::HashCombine(h, v.is_static);
    for (const CInitEntry& entry : v.init) {
      h = HashText(h, entry.field);
      h = HashText(h, entry.value_text);
    }
    h = util::HashCombine(h, static_cast<uint64_t>(v.line));
  }
  for (const CFunction& fn : f.functions) {
    h = HashText(h, fn.return_type);
    h = HashText(h, fn.name);
    for (const CParam& p : fn.params) {
      h = HashText(h, p.type_text);
      h = HashText(h, p.name);
    }
    h = HashText(h, fn.body_text);
    for (const CToken& t : fn.body_tokens) h = HashToken(h, t);
    h = util::HashCombine(h, fn.body_tokens.size());
    h = HashText(h, fn.comment);
    h = util::HashCombine(h, fn.is_static);
    h = util::HashCombine(h, static_cast<uint64_t>(fn.line));
  }
  for (const std::string& d : f.diagnostics) h = HashText(h, d);
  return h;
}

// Every token CLex returns and every entity CParse returns over the 69
// rendered corpus files, hashed. The constant was recorded before tokens
// became views into their file's source; the lexer and the parser must
// keep producing exactly this output.
TEST(KsrcTest, CorpusIndexIsPinned)
{
  const auto sources = CorpusSources();
  uint64_t h = 0;
  size_t tokens = 0, bytes = 0;
  for (const auto& [path, source] : sources) {
    for (const CToken& t : CLex(source)) {
      h = HashToken(h, t);
      ++tokens;
    }
    h = HashFile(h, CParse(source, path));
    bytes += source.size();
  }
  EXPECT_EQ(sources.size(), 69u);
  EXPECT_EQ(tokens, 87039u);
  EXPECT_EQ(bytes, 495376u);
  EXPECT_EQ(h, 14592266321747583542ULL);
}

// -- Self-fuzz ---------------------------------------------------------------

/// Checks that `tokens` lie in `source` in order and that each token's
/// text is its own slice of `source`: [begin, end), or what lies between
/// the quotes for a string literal.
void
ExpectTokensSliceSource(const std::vector<CToken>& tokens,
                        const std::string& source)
{
  size_t last_end = 0;
  for (const CToken& t : tokens) {
    ASSERT_LE(t.begin, t.end);
    ASSERT_LE(t.end, source.size());
    ASSERT_GE(t.begin, last_end);
    last_end = t.end;
    size_t first = t.begin;
    size_t size = t.end - t.begin;
    if (t.kind == CTokKind::kString) {
      // The closing quote is missing when the source ends inside.
      const bool closed = size >= 2 && t.text.size() == size - 2;
      ++first;
      size = closed ? size - 2 : size - 1;
    }
    ASSERT_EQ(t.text.data(), source.data() + first);
    ASSERT_EQ(t.text.size(), size);
  }
}

// Seeded truncations and byte edits of the corpus sources: the lexer's
// tokens slice the source, and the parser never throws and returns tokens
// that slice the text the file keeps.
TEST(KsrcTest, SelfFuzzLexAndParseOfEditedCorpus)
{
  const auto sources = CorpusSources();
  // Bytes the grammar reacts to, plus any byte at all.
  constexpr char kSyntax[] = "{}()[];,.=<>&|+-*/!^%#\\\"'\n_0xX";
  util::Rng rng(23);
  size_t truncated = 0, unterminated = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string source = sources[rng.Below(sources.size())].second;
    const uint64_t how = rng.Below(3);  // Truncate, edit, or both.
    if (how != 1) {
      source.resize(rng.Below(source.size() + 1));
      ++truncated;
    }
    if (how != 0 && !source.empty()) {
      for (uint64_t edits = 1 + rng.Below(4); edits > 0; --edits) {
        char& c = source[rng.Below(source.size())];
        // sizeof counts the terminating NUL, which is drawn too.
        c = rng.Chance(0.5) ? kSyntax[rng.Below(sizeof(kSyntax))]
                            : static_cast<char>(rng.Below(256));
      }
    }
    SCOPED_TRACE(::testing::Message() << "round " << round);
    ExpectTokensSliceSource(CLex(source), source);
    CFile file;
    ASSERT_NO_THROW(file = CParse(source, "fuzz.c"));
    ASSERT_NE(file.source, nullptr);
    ASSERT_EQ(*file.source, source);
    for (const CFunction& fn : file.functions) {
      ExpectTokensSliceSource(fn.body_tokens, *file.source);
    }
    for (const std::string& d : file.diagnostics) {
      unterminated += d.find("is unterminated") != std::string::npos;
    }
  }
  // The run reaches the cases it is for.
  EXPECT_GT(truncated, 1000u);
  EXPECT_GT(unterminated, 0u);
}

}  // namespace
}  // namespace kernelgpt::ksrc
