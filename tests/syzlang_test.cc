// Unit tests for the syzlang DSL: lexer, parser, printer round-trips, and
// validator diagnostics.

#include <gtest/gtest.h>

#include <tuple>

#include "syzlang/const_table.h"
#include "syzlang/lexer.h"
#include "syzlang/parser.h"
#include "syzlang/printer.h"
#include "syzlang/validator.h"

namespace kernelgpt::syzlang {
namespace {

constexpr char kDmSpec[] = R"(
# Device mapper control interface.
resource fd_dm[fd]
dm_ioctl_flags = DM_READONLY_FLAG, DM_SUSPEND_FLAG
define DM_MAX 4096

dm_ioctl {
	version array[int32, 3]
	data_size int32
	flags flags[dm_ioctl_flags, int32]
	event_nr int32 (out)
	name array[int8, 128]
}

openat$dm(fd const[0], file ptr[in, string["/dev/mapper/control"]], flags const[2], mode const[0]) fd_dm
ioctl$DM_LIST_DEVICES(fd fd_dm, cmd const[DM_LIST_DEVICES], arg ptr[inout, dm_ioctl])
)";

ConstTable
DmConsts()
{
  ConstTable t;
  t.Define("DM_LIST_DEVICES", 3241737475ULL);
  t.Define("DM_READONLY_FLAG", 1);
  t.Define("DM_SUSPEND_FLAG", 2);
  return t;
}

TEST(LexerTest, TokenizesPunctuationAndStrings)
{
  LexResult r = Lex("ioctl$X(fd fd_dm) # comment\n");
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r.tokens.size(), 8u);
  EXPECT_EQ(r.tokens[0].kind, TokKind::kIdent);
  EXPECT_EQ(r.tokens[1].kind, TokKind::kDollar);
}

TEST(LexerTest, HexNumbers)
{
  LexResult r = Lex("x = 0xfd\n");
  bool found = false;
  for (const Token& t : r.tokens) {
    if (t.kind == TokKind::kNumber) {
      EXPECT_EQ(t.number, 0xfdu);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, UnterminatedStringReported)
{
  LexResult r = Lex("f(a ptr[in, string[\"oops]])\n");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, ParsesFullSpec)
{
  ParseResult r = Parse(kDmSpec, "dm");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.spec.Syscalls().size(), 2u);
  EXPECT_EQ(r.spec.Structs().size(), 1u);
  EXPECT_EQ(r.spec.Resources().size(), 1u);
  EXPECT_EQ(r.spec.FlagSets().size(), 1u);
  EXPECT_EQ(r.spec.Defines().size(), 1u);
}

TEST(ParserTest, SyscallShape)
{
  ParseResult r = Parse(kDmSpec);
  const SyscallDef* call = r.spec.FindSyscall("ioctl$DM_LIST_DEVICES");
  ASSERT_NE(call, nullptr);
  ASSERT_EQ(call->params.size(), 3u);
  EXPECT_EQ(call->params[0].type.kind, TypeKind::kStructRef);  // Pre-resolve.
  EXPECT_EQ(call->params[1].type.kind, TypeKind::kConst);
  EXPECT_EQ(call->params[2].type.kind, TypeKind::kPtr);
  EXPECT_EQ(call->params[2].type.dir, Dir::kInOut);
}

TEST(ParserTest, OpenatReturnsResource)
{
  ParseResult r = Parse(kDmSpec);
  const SyscallDef* open = r.spec.FindSyscall("openat$dm");
  ASSERT_NE(open, nullptr);
  ASSERT_TRUE(open->returns_resource.has_value());
  EXPECT_EQ(*open->returns_resource, "fd_dm");
  // The path literal survives parsing.
  const Type& file = open->params[1].type;
  ASSERT_EQ(file.kind, TypeKind::kPtr);
  EXPECT_EQ(file.elems[0].str_literal, "/dev/mapper/control");
}

TEST(ParserTest, StructFieldsAndOutAttr)
{
  ParseResult r = Parse(kDmSpec);
  const StructDef* s = r.spec.FindStruct("dm_ioctl");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->fields.size(), 5u);
  EXPECT_EQ(s->fields[0].type.kind, TypeKind::kArray);
  EXPECT_EQ(s->fields[0].type.array_len, 3u);
  EXPECT_TRUE(s->fields[3].is_out);
  EXPECT_EQ(s->fields[2].type.kind, TypeKind::kFlags);
}

TEST(ParserTest, IntRange)
{
  ParseResult r = Parse("f$x(a int32[0:3])\n");
  ASSERT_TRUE(r.ok());
  const SyscallDef* call = r.spec.FindSyscall("f$x");
  ASSERT_NE(call, nullptr);
  EXPECT_TRUE(call->params[0].type.has_range);
  EXPECT_EQ(call->params[0].type.range_lo, 0);
  EXPECT_EQ(call->params[0].type.range_hi, 3);
}

TEST(ParserTest, UnionParses)
{
  ParseResult r = Parse("u [\n\ta int32\n\tb array[int8, 4]\n]\n");
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  const StructDef* u = r.spec.FindStruct("u");
  ASSERT_NE(u, nullptr);
  EXPECT_TRUE(u->is_union);
  EXPECT_EQ(u->fields.size(), 2u);
}

TEST(ParserTest, ErrorRecoveryKeepsLaterDecls)
{
  ParseResult r = Parse("bogus ???\nresource fd_x[fd]\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.spec.Resources().size(), 1u);
}

TEST(PrinterTest, RoundTripsFullSpec)
{
  ParseResult first = Parse(kDmSpec, "dm");
  ASSERT_TRUE(first.ok());
  std::string printed = Print(first.spec);
  ParseResult second = Parse(printed, "dm");
  ASSERT_TRUE(second.ok()) << (second.errors.empty() ? "" : second.errors[0]);
  ASSERT_EQ(second.spec.decls.size(), first.spec.decls.size());
  for (size_t i = 0; i < first.spec.decls.size(); ++i) {
    EXPECT_EQ(PrintDecl(second.spec.decls[i]), PrintDecl(first.spec.decls[i]))
        << "decl " << i;
  }
}

TEST(PrinterTest, TypeRendering)
{
  EXPECT_EQ(PrintType(Type::Int(32)), "int32");
  EXPECT_EQ(PrintType(Type::IntRange(32, 0, 3)), "int32[0:3]");
  EXPECT_EQ(PrintType(Type::Const("DM_X")), "const[DM_X]");
  EXPECT_EQ(PrintType(Type::Ptr(Dir::kInOut, Type::StructRef("dm_ioctl"))),
            "ptr[inout, dm_ioctl]");
  EXPECT_EQ(PrintType(Type::Array(Type::Int(8))), "array[int8]");
  EXPECT_EQ(PrintType(Type::Len("devices", 32)), "len[devices]");
  EXPECT_EQ(PrintType(Type::String("/dev/msm")), "string[\"/dev/msm\"]");
}

TEST(ConstTableTest, ResolvesLiteralsAndNames)
{
  ConstTable t;
  t.Define("A", 7);
  EXPECT_EQ(t.Resolve("A"), 7u);
  EXPECT_EQ(t.Resolve("12"), 12u);
  EXPECT_EQ(t.Resolve("0x10"), 16u);
  EXPECT_FALSE(t.Resolve("MISSING").has_value());
}

TEST(ConstTableTest, DefineOverwrites)
{
  ConstTable t;
  t.Define("X", 1);
  t.Define("X", 2);
  EXPECT_EQ(t.Resolve("X"), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(ValidatorTest, LocalDefinesShadowTheCallerTableWithoutWritingIt)
{
  // The caller's table is read in place: a spec-local define of the same
  // name shadows it, a define only the spec has still resolves, and
  // neither leaks into the table.
  ConstTable base;
  base.Define("SHARED", 1);
  base.Define("BASE_ONLY", 3);
  ParseResult r = Parse(
      "define SHARED 2\n"
      "define LOCAL_ONLY 4\n"
      "bits = SHARED, LOCAL_ONLY, BASE_ONLY\n"
      "resource fd_x[fd]\n"
      "ioctl$A(fd fd_x, cmd const[SHARED], arg flags[bits, int32])\n"
      "ioctl$B(fd fd_x, cmd const[LOCAL_ONLY], arg const[BASE_ONLY])\n"
      "ioctl$C(fd fd_x, cmd const[NOT_DEFINED], arg const[0x10])\n");
  ASSERT_TRUE(r.ok());
  ValidationResult v = Validate(r.spec, base);
  ASSERT_EQ(v.errors.size(), 1u)
      << (v.errors.empty() ? "" : v.errors[0].message);
  EXPECT_EQ(v.errors[0].kind, ErrorKind::kUnknownConst);
  EXPECT_EQ(v.errors[0].decl, "ioctl$C");
  EXPECT_EQ(v.errors[0].subject, "NOT_DEFINED");

  EXPECT_EQ(base.size(), 2u);
  EXPECT_EQ(base.Resolve("SHARED"), 1u);
  EXPECT_EQ(base.Resolve("BASE_ONLY"), 3u);
  EXPECT_FALSE(base.Has("LOCAL_ONLY"));
}

TEST(ValidatorTest, CleanSpecValidates)
{
  ParseResult r = Parse(kDmSpec);
  ASSERT_TRUE(r.ok());
  ValidationResult v = Validate(r.spec, DmConsts());
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors[0].message);
}

TEST(ValidatorTest, UnknownConstReported)
{
  ParseResult r = Parse(
      "resource fd_x[fd]\nioctl$Y(fd fd_x, cmd const[NOT_DEFINED], arg "
      "const[0])\n");
  ASSERT_TRUE(r.ok());
  ValidationResult v = Validate(r.spec, ConstTable());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.errors[0].kind, ErrorKind::kUnknownConst);
  EXPECT_EQ(v.errors[0].subject, "NOT_DEFINED");
  EXPECT_EQ(v.errors[0].decl, "ioctl$Y");
}

TEST(ValidatorTest, UnknownTypeReported)
{
  ParseResult r = Parse(
      "resource fd_x[fd]\nioctl$Y(fd fd_x, cmd const[0], arg ptr[in, "
      "missing_struct])\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.errors[0].kind, ErrorKind::kUnknownType);
  EXPECT_EQ(v.errors[0].subject, "missing_struct");
}

TEST(ValidatorTest, BadLenTargetReported)
{
  ParseResult r = Parse("s {\n\tcount len[nothere, int32]\n\tdata int32\n}\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.errors[0].kind, ErrorKind::kBadLenTarget);
}

TEST(ValidatorTest, LenParentAllowed)
{
  ParseResult r = Parse("s {\n\tcount len[parent, int32]\n}\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  EXPECT_TRUE(v.ok());
}

TEST(ValidatorTest, MissingFdParamReported)
{
  ParseResult r = Parse("ioctl$Z(cmd const[0], arg const[0])\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  ASSERT_FALSE(v.ok());
  bool found = false;
  for (const auto& e : v.errors) {
    if (e.kind == ErrorKind::kMissingFdParam) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ValidatorTest, DuplicateDeclReported)
{
  ParseResult r = Parse("resource fd_x[fd]\nresource fd_x[fd]\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.errors[0].kind, ErrorKind::kDuplicateDecl);
}

TEST(ValidatorTest, RecursiveStructReported)
{
  ParseResult r = Parse("a {\n\tnext a\n}\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  bool found = false;
  for (const auto& e : v.errors) {
    if (e.kind == ErrorKind::kRecursiveStruct) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ValidatorTest, PtrIndirectionBreaksRecursion)
{
  ParseResult r = Parse("a {\n\tnext ptr[in, a]\n\tv int32\n}\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  for (const auto& e : v.errors) {
    EXPECT_NE(e.kind, ErrorKind::kRecursiveStruct) << e.message;
  }
}

// A by-value cycle split across two files: each file alone only names
// the other's struct, so the recursion walk must follow the externals.
TEST(ValidatorTest, RecursionThroughExternalStructsReported)
{
  ParseResult a = Parse(
      "a_t {\n\tv int8\n\tkids array[b_t]\n}\n"
      "ioctl$a(fd fd, cmd const[1], p ptr[in, a_t])\n");
  ParseResult b = Parse(
      "b_t {\n\tw int8\n\tkids array[a_t]\n}\n"
      "ioctl$b(fd fd, cmd const[2], p ptr[in, b_t])\n");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const auto& [spec, other, name] :
       {std::make_tuple(&a.spec, &b.spec, "a_t"),
        std::make_tuple(&b.spec, &a.spec, "b_t")}) {
    ValidationResult v = Validate(*spec, ConstTable(), other);
    ASSERT_EQ(v.errors.size(), 1u) << name;
    EXPECT_EQ(v.errors[0].kind, ErrorKind::kRecursiveStruct) << name;
    EXPECT_EQ(v.errors[0].decl, name);
  }

  // An acyclic reference into the externals stays valid.
  ParseResult leaf = Parse("c_t {\n\tx int8\n}\n");
  ParseResult user = Parse(
      "d_t {\n\tc array[c_t, 2]\n}\n"
      "ioctl$d(fd fd, cmd const[3], p ptr[in, d_t])\n");
  EXPECT_TRUE(Validate(user.spec, ConstTable(), &leaf.spec).ok());
}

TEST(ValidatorTest, UnknownSyscallReported)
{
  ParseResult r = Parse("frobnicate$x(a const[0])\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.errors[0].kind, ErrorKind::kUnknownSyscall);

  // Every base name the executor dispatches is known.
  for (const char* name :
       {"open", "openat", "close", "dup", "ioctl", "read", "write", "poll",
        "mmap", "socket", "setsockopt", "getsockopt", "bind", "connect",
        "sendto", "sendmsg", "recvfrom", "recvmsg", "listen", "accept"}) {
    ParseResult known = Parse(std::string(name) + "$x(fd fd)\n");
    ASSERT_TRUE(known.ok()) << name;
    for (const ValidationError& e : Validate(known.spec, ConstTable()).errors) {
      EXPECT_NE(e.kind, ErrorKind::kUnknownSyscall) << name;
    }
  }
}

TEST(ValidatorTest, ExternalDeclsResolve)
{
  ParseResult base = Parse("resource fd_dm[fd]\ns {\n\tv int32\n}\n");
  ParseResult uses = Parse(
      "ioctl$U(fd fd_dm, cmd const[1], arg ptr[in, s])\n");
  ValidationResult v = Validate(uses.spec, ConstTable(), &base.spec);
  EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors[0].message);
}

TEST(ValidatorTest, ErroredDeclsDeduplicates)
{
  ParseResult r = Parse(
      "resource fd_x[fd]\n"
      "ioctl$Y(fd fd_x, cmd const[A], arg ptr[in, m1])\n");
  ValidationResult v = Validate(r.spec, ConstTable());
  auto decls = v.ErroredDecls();
  EXPECT_EQ(decls.size(), 1u);
  EXPECT_EQ(decls[0], "ioctl$Y");
  EXPECT_GE(v.ForDecl("ioctl$Y").size(), 2u);
}

}  // namespace
}  // namespace kernelgpt::syzlang
