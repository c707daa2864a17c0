// Unit tests for the C-subset lexer/parser, definition index (ExtractCode
// and macro evaluation), and body analyses.

#include <gtest/gtest.h>

#include "drivers/corpus.h"
#include "ksrc/body_analysis.h"
#include "ksrc/clexer.h"
#include "ksrc/cparser.h"
#include "ksrc/definition_index.h"

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

TEST(CLexerTest, KeepsCommentsAndDirectives)
{
  auto toks = CLex("#define A 1\n/* hi */ int x;");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, CTokKind::kDirective);
  EXPECT_EQ(toks[1].kind, CTokKind::kComment);
}

TEST(CLexerTest, NoCommentsVariantDropsComments)
{
  auto toks = CLexNoComments("/* hi */ int x;");
  for (const auto& t : toks) EXPECT_NE(t.kind, CTokKind::kComment);
}

TEST(CLexerTest, MultiCharOperators)
{
  auto toks = CLexNoComments("a->b == c;");
  EXPECT_TRUE(toks[1].Is("->"));
  EXPECT_TRUE(toks[3].Is("=="));
}

TEST(CLexerTest, IntegerSuffixesSwallowed)
{
  auto toks = CLexNoComments("x = 10UL;");
  bool found = false;
  for (const auto& t : toks) {
    if (t.kind == CTokKind::kNumber) {
      EXPECT_EQ(t.number, 10u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CLexerTest, OffsetsSliceSource)
{
  std::string src = "int foo;";
  auto toks = CLex(src);
  EXPECT_EQ(src.substr(toks[1].begin, toks[1].end - toks[1].begin), "foo");
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

}  // namespace
}  // namespace kernelgpt::ksrc
