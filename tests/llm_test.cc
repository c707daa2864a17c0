// Tests for the simulated analysis LLM: capability-profile behaviour,
// per-stage analyses, determinism, token metering (including the counts
// built from cached pieces), and the backend registry (profiles as data,
// pricing, wrapper backends).

#include <gtest/gtest.h>

#include <functional>

#include "drivers/corpus.h"
#include "extractor/handler_finder.h"
#include "llm/engine.h"
#include "llm/flaky_backend.h"
#include "llm/registry.h"
#include "spec_gen/kernelgpt.h"
#include "util/strings.h"

namespace kernelgpt::llm {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ksrc::DefinitionIndex(
        drivers::Corpus::Instance().BuildIndex());
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
  }
  static ksrc::DefinitionIndex* index_;
};

ksrc::DefinitionIndex* EngineTest::index_ = nullptr;

TEST(ProfileTest, DecideIsDeterministic)
{
  ModelProfile p = Gpt4();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.Decide("some-key", 0.5), p.Decide("some-key", 0.5));
  }
  EXPECT_FALSE(p.Decide("anything", 0.0));
  EXPECT_TRUE(p.Decide("anything", 1.0));
}

TEST(ProfileTest, DecideApproximatesRate)
{
  ModelProfile p = Gpt4();
  int hits = 0;
  for (int i = 0; i < 2000; ++i) {
    if (p.Decide("key-" + std::to_string(i), 0.25)) ++hits;
  }
  EXPECT_NEAR(hits, 500, 120);
}

TEST(ProfileTest, ProfilesDifferInDraws)
{
  ModelProfile a = Gpt4();
  ModelProfile b = Gpt35();
  int differ = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Decide("k" + std::to_string(i), 0.5) !=
        b.Decide("k" + std::to_string(i), 0.5)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 10);
}

TEST_F(EngineTest, DelegationReportedAsUnknown)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  IdentifierAnalysis step1 =
      engine.AnalyzeIdentifiers("dm_ctl_ioctl", "usage", "dm", 1);
  EXPECT_TRUE(step1.commands.empty());
  ASSERT_EQ(step1.unknowns.size(), 1u);
  EXPECT_EQ(step1.unknowns[0].identifier, "dm_ctl_do_ioctl");
}

TEST_F(EngineTest, ModifiedSwitchReverseMapped)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  IdentifierAnalysis analysis =
      engine.AnalyzeIdentifiers("dm_ctl_do_ioctl", "usage", "dm", 2);
  ASSERT_FALSE(analysis.commands.empty());
  // Labels are *_NR macros but the model reports the full command macros.
  bool found_list = false;
  for (const auto& cmd : analysis.commands) {
    EXPECT_TRUE(cmd.from_modified_switch);
    if (cmd.macro == "DM_LIST_DEVICES") found_list = true;
  }
  EXPECT_TRUE(found_list);
}

TEST_F(EngineTest, Gpt35UsesRawNrLabels)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt35(), &meter);
  IdentifierAnalysis analysis =
      engine.AnalyzeIdentifiers("dm_ctl_do_ioctl", "usage", "dm", 2);
  for (const auto& cmd : analysis.commands) {
    EXPECT_TRUE(cmd.identifier_mangled) << cmd.macro;
  }
}

TEST_F(EngineTest, DepthLimitStopsAnalysis)
{
  TokenMeter meter;
  ModelProfile shallow = Gpt4();
  shallow.max_delegation_depth = 1;
  SimulatedBackend engine(index_, shallow, &meter);
  IdentifierAnalysis analysis =
      engine.AnalyzeIdentifiers("dm_ctl_do_ioctl", "usage", "dm", 2);
  EXPECT_TRUE(analysis.commands.empty());
  EXPECT_TRUE(analysis.unknowns.empty());
}

TEST_F(EngineTest, TableLookupComprehension)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  // ubi's dispatcher calls ubi_lookup_ioctl; the lookup function's table
  // yields the commands.
  IdentifierAnalysis top =
      engine.AnalyzeIdentifiers("ubi_ctl_ioctl", "usage", "ubi", 1);
  ASSERT_FALSE(top.unknowns.empty());
  IdentifierAnalysis table = engine.AnalyzeIdentifiers(
      top.unknowns[0].identifier, top.unknowns[0].usage, "ubi", 2);
  EXPECT_GE(table.commands.size(), 5u);

  // GPT-3.5 does not model dispatch tables.
  SimulatedBackend weak(index_, Gpt35(), &meter);
  IdentifierAnalysis none = weak.AnalyzeIdentifiers(
      top.unknowns[0].identifier, top.unknowns[0].usage, "ubi", 2);
  EXPECT_TRUE(none.commands.empty());
}

TEST_F(EngineTest, ArgTypeAnalysisRecoversStructAndConstraints)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  ArgTypeAnalysis analysis =
      engine.AnalyzeArgumentType("kvm_vm_kvm_set_user_memory_region", "kvm");
  EXPECT_EQ(analysis.arg_struct, "kvm_userspace_memory_region");
  EXPECT_EQ(analysis.dir, syzlang::Dir::kIn);
  bool slot_range = false;
  bool size_nonzero = false;
  for (const auto& c : analysis.constraints) {
    if (c.field == "slot" && c.kind == FieldConstraint::Kind::kRange &&
        c.a == 0 && c.b == 31) {
      slot_range = true;
    }
    if (c.field == "memory_size" &&
        c.kind == FieldConstraint::Kind::kNonZero) {
      size_nonzero = true;
    }
  }
  EXPECT_TRUE(slot_range);
  EXPECT_TRUE(size_nonzero);
}

TEST_F(EngineTest, OutDirectionFromCopyToUser)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  ArgTypeAnalysis analysis =
      engine.AnalyzeArgumentType("kvm_vcpu_kvm_get_regs", "kvm");
  EXPECT_EQ(analysis.dir, syzlang::Dir::kOut);
}

TEST_F(EngineTest, StructRecoveryLenSemantics)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  StructRecovery rec = engine.RecoverStruct("cec_msg", "cec", {}, {});
  const syzlang::Field* len = nullptr;
  for (const auto& f : rec.def.fields) {
    if (f.name == "len") len = &f;
  }
  ASSERT_NE(len, nullptr);
  EXPECT_EQ(len->type.kind, syzlang::TypeKind::kLen);
  EXPECT_EQ(len->type.len_target, "msg");
}

TEST_F(EngineTest, StructRecoveryNestedUnknown)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  // Craft a synthetic nested case via the corpus: any struct referencing
  // another struct by value reports a kType unknown. dm has none, so use
  // an inline source.
  ksrc::DefinitionIndex local;
  local.AddSource("struct inner { __u32 x; };\n"
                  "struct outer { struct inner i; __u64 y; };\n",
                  "t.c");
  local.ResolveMacros();
  SimulatedBackend nested(&local, Gpt4(), &meter);
  StructRecovery rec = nested.RecoverStruct("outer", "t", {}, {});
  ASSERT_EQ(rec.unknowns.size(), 1u);
  EXPECT_EQ(rec.unknowns[0].identifier, "inner");
  EXPECT_EQ(rec.unknowns[0].kind, Unknown::Kind::kType);
}

TEST_F(EngineTest, DependencyAnalysisFindsAnonInode)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  DependencyAnalysis dep =
      engine.AnalyzeDependencies("kvm_dev_kvm_create_vm", "kvm");
  ASSERT_EQ(dep.created.size(), 1u);
  EXPECT_EQ(dep.created[0].label, "kvm-vm");
  EXPECT_EQ(dep.created[0].fops_var, "_kvm_vm_fops");
}

TEST_F(EngineTest, DeviceNodeInferenceNodename)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  auto handlers = extractor::FindDriverHandlers(*index_);
  for (const auto& h : handlers) {
    if (h.file_path != "drivers/dm.c" ||
        h.reg == extractor::RegKind::kUnreferenced) {
      continue;
    }
    EXPECT_EQ(engine.InferDeviceNode(h, "dm"), "/dev/mapper/control");
    // A nodename-blind model falls back to .name (the SyzDescribe error).
    ModelProfile blind = Gpt4();
    blind.understands_nodename = false;
    SimulatedBackend weak(index_, blind, &meter);
    EXPECT_EQ(weak.InferDeviceNode(h, "dm"), "/dev/device-mapper");
  }
}

TEST_F(EngineTest, SocketCreateAnalysis)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  SocketCreateAnalysis create =
      engine.AnalyzeSocketCreate("rds_create", "rds");
  EXPECT_EQ(create.type_macro, "SOCK_SEQPACKET");
  EXPECT_FALSE(create.protocol_checked);  // rds accepts any protocol.

  SocketCreateAnalysis l2tp =
      engine.AnalyzeSocketCreate("l2tp_ip6_create", "l2tp_ip6");
  EXPECT_TRUE(l2tp.protocol_checked);
  EXPECT_EQ(l2tp.protocol, 115u);
}

TEST_F(EngineTest, MeterCountsTokens)
{
  TokenMeter meter;
  SimulatedBackend engine(index_, Gpt4(), &meter);
  engine.AnalyzeIdentifiers("dm_ctl_ioctl", "usage", "dm", 1);
  EXPECT_EQ(meter.query_count(), 1u);
  EXPECT_GT(meter.total_input_tokens(), 20u);
  EXPECT_GT(meter.total_output_tokens(), 0u);
  EXPECT_GT(meter.CostUsd(), 0.0);
}

TEST(ProfileTest, DecideIsPlatformStable)
{
  // Decide must be a pure function of (profile name, key, rate) with the
  // documented FNV-1a + hash-combine + 53-bit-mantissa formula — the
  // same handlers must fail on every machine, or recorded experiment
  // tables stop reproducing. Re-derive the expectation from first
  // principles so a drive-by change to StableHash/HashCombine/Decide
  // arithmetic fails here instead of silently reshuffling history.
  auto fnv1a = [](const std::string& s) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  auto combine = [](uint64_t a, uint64_t b) {
    return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  };
  for (const char* name : {"gpt-4", "gpt-3.5", "gpt-4-mini"}) {
    ModelProfile p;
    p.name = name;
    for (const char* key : {"miss/v66:dm:DM_VERSION", "flaw:kvm:ioctl",
                            "repairable/v39|cec", "wrongtype:ubi:x:y"}) {
      uint64_t h = combine(fnv1a(name), fnv1a(key));
      double unit =
          static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
      for (double rate : {0.015, 0.25, 0.5, 0.86}) {
        EXPECT_EQ(p.Decide(key, rate), unit < rate)
            << name << " / " << key << " @ " << rate;
      }
    }
  }
}

TEST(TokenMeterTest, PresetCountsAreNotReestimated)
{
  TokenMeter meter;
  QueryRecord preset;
  preset.stage = "retry";
  preset.input_tokens = 1234;
  preset.output_tokens = 7;
  meter.Record(std::move(preset));
  EXPECT_EQ(meter.total_input_tokens(), 1234u);
  EXPECT_EQ(meter.total_output_tokens(), 7u);
}

TEST(TokenMeterTest, EmptyExchangeCountsZero)
{
  TokenMeter meter;
  meter.Record(QueryRecord{});
  EXPECT_EQ(meter.query_count(), 1u);
  EXPECT_EQ(meter.total_input_tokens(), 0u);
  EXPECT_EQ(meter.AvgInputTokens(), 0.0);
  EXPECT_EQ(meter.CostUsd(), 0.0);
}

TEST(TokenMeterTest, KeepTextFalseDropsTextKeepsCounts)
{
  TokenMeter meter;
  meter.SetKeepText(false);
  QueryRecord record;
  record.prompt = "some prompt text that is long enough to count";
  record.response = "short answer";
  meter.Record(std::move(record));
  EXPECT_TRUE(meter.records()[0].prompt.empty());
  EXPECT_TRUE(meter.records()[0].response.empty());
  EXPECT_GT(meter.total_input_tokens(), 0u);
  EXPECT_GT(meter.total_output_tokens(), 0u);
}

TEST_F(EngineTest, PromptTruncatedToContextWindow)
{
  // A backend with a tiny window never meters (or "sees") more prompt
  // than fits: the stored prompt is cut at context_tokens * 4 chars and
  // the metered input cost is bounded accordingly. At every window, the
  // metered count is the meter's estimate of the stored text, whether it
  // was counted from the text (cut) or from the cached code (not cut).
  using Query = std::function<void(SimulatedBackend&)>;
  const std::vector<std::pair<const char*, Query>> queries = {
      {"identifier",
       [](SimulatedBackend& b) {
         b.AnalyzeIdentifiers("dm_ctl_do_ioctl", "usage", "dm", 2);
       }},
      {"type",
       [](SimulatedBackend& b) {
         b.AnalyzeArgumentType("kvm_vm_kvm_set_user_memory_region", "kvm");
       }},
      {"dependency",
       [](SimulatedBackend& b) {
         b.AnalyzeDependencies("kvm_dev_kvm_create_vm", "kvm");
       }},
      {"socket-create",
       [](SimulatedBackend& b) { b.AnalyzeSocketCreate("rds_create", "rds"); }},
  };
  for (const auto& [name, query] : queries) {
    SCOPED_TRACE(name);
    TokenMeter full_meter;
    SimulatedBackend full(index_, Gpt4(), &full_meter);
    query(full);
    ASSERT_EQ(full_meter.query_count(), 1u);
    const QueryRecord& full_record = full_meter.records().back();
    const size_t full_prompt = full_record.prompt.size();
    EXPECT_EQ(full_record.input_tokens,
              util::ApproxTokenCount(full_record.prompt));

    ModelProfile tiny = Gpt4();
    tiny.context_tokens = 20;  // 80 chars.
    TokenMeter meter;
    SimulatedBackend backend(index_, tiny, &meter);
    query(backend);
    ASSERT_EQ(meter.query_count(), 1u);
    const QueryRecord& record = meter.records().back();
    ASSERT_GT(full_prompt, 80u);  // The untruncated prompt is bigger.
    EXPECT_EQ(record.prompt.size(), 80u);
    EXPECT_LE(record.input_tokens, 80u);
    EXPECT_EQ(record.input_tokens, util::ApproxTokenCount(record.prompt));

    // Exactly-fitting prompts are not cut: a window as large as the full
    // prompt keeps every byte.
    ModelProfile fitted = Gpt4();
    fitted.context_tokens = (full_prompt + 3) / 4;
    TokenMeter fit_meter;
    SimulatedBackend fit(index_, fitted, &fit_meter);
    query(fit);
    const QueryRecord& fit_record = fit_meter.records().back();
    EXPECT_EQ(fit_record.prompt.size(), full_prompt);
    EXPECT_EQ(fit_record.input_tokens,
              util::ApproxTokenCount(fit_record.prompt));
  }
}

/// Counts the records of `meter`, retries aside, whose metered tokens
/// differ from the meter's estimate of their text; `first` describes the
/// first one.
size_t
MiscountedRecords(const TokenMeter& meter, size_t* checked,
                  std::string* first)
{
  size_t wrong = 0;
  for (const QueryRecord& record : meter.records()) {
    // Retry records re-bill an earlier prompt without its text.
    if (util::StartsWith(record.stage, "retry/")) continue;
    ++*checked;
    const size_t in = util::ApproxTokenCount(record.prompt);
    const size_t out = util::ApproxTokenCount(record.response);
    if (record.input_tokens == in && record.output_tokens == out) continue;
    if (wrong++ == 0) {
      *first = util::Format("%s %s: metered %zu/%zu, text counts %zu/%zu",
                            record.stage.c_str(), record.target.c_str(),
                            record.input_tokens, record.output_tokens, in,
                            out);
    }
  }
  return wrong;
}

TEST_F(EngineTest, EveryMeteredCountIsTheEstimateOfItsText)
{
  // Function prompts are metered from their pieces (the prefix's words
  // plus the cached word count of the code). Over every registered
  // backend and every extracted handler, each count must still equal the
  // meter's estimate of the text it stands for.
  std::vector<extractor::DriverHandler> drivers;
  for (auto& handler : extractor::FindDriverHandlers(*index_)) {
    if (handler.reg != extractor::RegKind::kUnreferenced) {
      drivers.push_back(std::move(handler));
    }
  }
  const std::vector<extractor::SocketHandler> sockets =
      extractor::FindSocketHandlers(*index_);
  const BackendRegistry& registry = BackendRegistry::Default();
  for (const std::string& name : registry.Names()) {
    TokenMeter meter;  // Keeps the text.
    std::unique_ptr<Backend> backend = registry.Create(name, index_, &meter);
    ASSERT_NE(backend, nullptr) << name;
    spec_gen::KernelGpt kernelgpt(index_, spec_gen::Options{}, backend.get());
    for (const auto& handler : drivers) kernelgpt.GenerateForDriver(handler);
    for (const auto& handler : sockets) kernelgpt.GenerateForSocket(handler);
    size_t checked = 0;
    std::string first;
    EXPECT_EQ(MiscountedRecords(meter, &checked, &first), 0u)
        << name << ", first: " << first;
    EXPECT_GT(checked, 100u) << name;
  }

  // Every corpus prompt is code-heavy enough that its chars / 4 outweigh
  // its words, which hides a wrong word count. Code written one short
  // token at a time turns that around, so the four function-code queries
  // over it are metered by their words.
  std::string filler;
  for (int i = 0; i < 40; ++i) filler += "\ta = b + c ;\n";
  ksrc::DefinitionIndex dense;
  dense.AddSource(
      "#define W_A_NR 1\n"
      "struct w_arg { __u32 a; };\n"
      "static int w_a(struct file *f, unsigned long u)\n{\n" + filler +
          "\tif (copy_from_user(&p, (void *)u, sizeof(struct w_arg)))\n"
          "\t\treturn -EFAULT;\n"
          "\treturn anon_inode_getfd(\"w\", &w_fops, 0, 0);\n}\n"
          "static long w_ioctl(struct file *f, unsigned int cmd, "
          "unsigned long u)\n{\n" + filler +
          "\tswitch (cmd) {\n\tcase W_A_NR:\n\t\treturn w_a(f, u);\n\t}\n"
          "\treturn 0;\n}\n"
          "static int w_create(struct net *net, struct socket *sock, "
          "int protocol, int kern)\n{\n" + filler +
          "\tif (sock->type != SOCK_DGRAM)\n\t\treturn -EINVAL;\n"
          "\treturn 0;\n}\n",
      "w.c");
  dense.ResolveMacros();
  TokenMeter meter;
  SimulatedBackend engine(&dense, Gpt4(), &meter);
  engine.AnalyzeIdentifiers("w_ioctl", "usage", "w", 1);
  engine.AnalyzeArgumentType("w_a", "w");
  engine.AnalyzeDependencies("w_a", "w");
  engine.AnalyzeSocketCreate("w_create", "w");
  ASSERT_EQ(meter.query_count(), 4u);
  for (const QueryRecord& record : meter.records()) {
    EXPECT_GT(util::CountWords(record.prompt), record.prompt.size() / 4)
        << record.stage;
  }
  size_t checked = 0;
  std::string first;
  EXPECT_EQ(MiscountedRecords(meter, &checked, &first), 0u)
      << "first: " << first;
}

TEST(EngineEntityTest, PromptsShowTheEntityAskedForNotASameNamedFunction)
{
  // C keeps struct tags apart from function names, and a static variable
  // may share its name with a function in another file. A struct prompt
  // must show (and bill for) the struct, a device-node prompt the
  // variable.
  ksrc::DefinitionIndex index;
  index.AddSource(
      "struct foo {\n"
      "\t__u32 flags;\n"
      "\t__u32 len;\n"
      "};\n"
      "\n"
      "static int foo(struct file *file, unsigned long arg)\n"
      "{\n"
      "\treturn foo_helper(file, arg);\n"
      "}\n"
      "\n"
      "static struct miscdevice foo_dev = {\n"
      "\t.name = \"foo\",\n"
      "};\n",
      "a.c");
  index.AddSource(
      "static int foo_dev(void)\n"
      "{\n"
      "\treturn 0;\n"
      "}\n",
      "b.c");
  index.ResolveMacros();
  TokenMeter meter;
  SimulatedBackend engine(&index, Gpt4(), &meter);

  StructRecovery rec = engine.RecoverStruct("foo", "foo", {}, {});
  EXPECT_EQ(rec.def.fields.size(), 2u);
  const QueryRecord& struct_query = meter.records().back();
  EXPECT_NE(struct_query.prompt.find("struct foo {"), std::string::npos);
  EXPECT_EQ(struct_query.prompt.find("foo_helper"), std::string::npos);

  extractor::DriverHandler handler;
  handler.reg = extractor::RegKind::kMiscDevice;
  handler.misc_var = "foo_dev";
  handler.name_expr = "\"foo\"";
  EXPECT_EQ(engine.InferDeviceNode(handler, "foo"), "/dev/foo");
  const QueryRecord& node_query = meter.records().back();
  EXPECT_NE(node_query.prompt.find("struct miscdevice foo_dev"),
            std::string::npos);
  EXPECT_EQ(node_query.prompt.find("return 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Backend registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, BuiltInsExposeProfilesAsData)
{
  const BackendRegistry& registry = BackendRegistry::Default();
  std::vector<std::string> names = registry.Names();
  ASSERT_GE(names.size(), 6u);
  EXPECT_EQ(names[0], "gpt-4");  // Report ordering is registration order.

  const BackendInfo* gpt4 = registry.Find("gpt-4");
  ASSERT_NE(gpt4, nullptr);
  ModelProfile legacy = Gpt4();
  EXPECT_EQ(gpt4->profile.name, legacy.name);
  EXPECT_EQ(gpt4->profile.miss_command_rate, legacy.miss_command_rate);
  EXPECT_EQ(gpt4->profile.repair_success_rate, legacy.repair_success_rate);
  EXPECT_EQ(gpt4->profile.context_tokens, legacy.context_tokens);

  EXPECT_NE(registry.Find("gpt-4-mini"), nullptr);
  EXPECT_GT(registry.Find("gpt-4-long")->profile.context_tokens,
            gpt4->profile.context_tokens);
  EXPECT_EQ(registry.Find("nonexistent"), nullptr);
}

TEST(RegistryTest, CreateUnknownReturnsNull)
{
  TokenMeter meter;
  EXPECT_EQ(BackendRegistry::Default().Create("no-such-model", nullptr,
                                              &meter),
            nullptr);
}

TEST(RegistryTest, RegisterReplacesInPlace)
{
  BackendRegistry registry = BackendRegistry::BuiltIns();
  size_t before = registry.Names().size();
  ModelProfile p = Gpt4();
  p.miss_command_rate = 0.99;
  registry.Register({"gpt-4", p, {1.0, 2.0}, "patched"});
  EXPECT_EQ(registry.Names().size(), before);
  EXPECT_EQ(registry.Names()[0], "gpt-4");  // Kept its position.
  EXPECT_EQ(registry.Find("gpt-4")->profile.miss_command_rate, 0.99);
}

TEST(RegistryTest, PricingDrivesCostEstimate)
{
  const BackendRegistry& registry = BackendRegistry::Default();
  TokenMeter meter;
  QueryRecord record;
  record.input_tokens = 1000000;  // $ == usd_per_m_input at 1M/1M tokens.
  record.output_tokens = 1000000;
  meter.Record(std::move(record));
  double gpt4 = registry.CostUsd("gpt-4", meter);
  double gpt35 = registry.CostUsd("gpt-3.5", meter);
  EXPECT_DOUBLE_EQ(gpt4, 40.0);  // $10/M in + $30/M out.
  EXPECT_LT(gpt35, gpt4);        // The weak tier is the cheap tier.
  // Unknown names fall back to default pricing instead of crashing.
  EXPECT_DOUBLE_EQ(registry.CostUsd("no-such-model", meter), 40.0);
}

TEST_F(EngineTest, RegistryBackendMatchesDirectConstruction)
{
  TokenMeter meter_a;
  std::unique_ptr<Backend> from_registry =
      BackendRegistry::Default().Create("gpt-4", index_, &meter_a);
  ASSERT_NE(from_registry, nullptr);
  TokenMeter meter_b;
  SimulatedBackend direct(index_, Gpt4(), &meter_b);

  IdentifierAnalysis a =
      from_registry->AnalyzeIdentifiers("dm_ctl_do_ioctl", "usage", "dm", 2);
  IdentifierAnalysis b =
      direct.AnalyzeIdentifiers("dm_ctl_do_ioctl", "usage", "dm", 2);
  ASSERT_EQ(a.commands.size(), b.commands.size());
  for (size_t i = 0; i < a.commands.size(); ++i) {
    EXPECT_EQ(a.commands[i].macro, b.commands[i].macro);
    EXPECT_EQ(a.commands[i].sub_function, b.commands[i].sub_function);
  }
  EXPECT_EQ(meter_a.total_input_tokens(), meter_b.total_input_tokens());
  EXPECT_EQ(meter_a.total_output_tokens(), meter_b.total_output_tokens());
}

TEST_F(EngineTest, FlakyBackendSameAnswersHigherCost)
{
  TokenMeter flaky_meter;
  std::unique_ptr<Backend> flaky =
      BackendRegistry::Default().Create("gpt-4-flaky", index_, &flaky_meter);
  ASSERT_NE(flaky, nullptr);
  TokenMeter base_meter;
  std::unique_ptr<Backend> base =
      BackendRegistry::Default().Create("gpt-4", index_, &base_meter);

  // Run a handful of queries; answers must match gpt-4 exactly while the
  // metered cost picks up the injected retries.
  for (const char* fn : {"dm_ctl_ioctl", "dm_ctl_do_ioctl", "ubi_ctl_ioctl",
                         "kvm_dev_ioctl"}) {
    IdentifierAnalysis a = flaky->AnalyzeIdentifiers(fn, "usage", "dm", 2);
    IdentifierAnalysis b = base->AnalyzeIdentifiers(fn, "usage", "dm", 2);
    ASSERT_EQ(a.commands.size(), b.commands.size()) << fn;
    for (size_t i = 0; i < a.commands.size(); ++i) {
      EXPECT_EQ(a.commands[i].macro, b.commands[i].macro);
    }
  }
  EXPECT_GT(flaky_meter.query_count(), base_meter.query_count());
  EXPECT_GT(flaky_meter.total_input_tokens(),
            base_meter.total_input_tokens());

  // Retries are deterministic: a second flaky pass reproduces the totals.
  TokenMeter repeat_meter;
  std::unique_ptr<Backend> repeat =
      BackendRegistry::Default().Create("gpt-4-flaky", index_, &repeat_meter);
  for (const char* fn : {"dm_ctl_ioctl", "dm_ctl_do_ioctl", "ubi_ctl_ioctl",
                         "kvm_dev_ioctl"}) {
    repeat->AnalyzeIdentifiers(fn, "usage", "dm", 2);
  }
  EXPECT_EQ(repeat_meter.query_count(), flaky_meter.query_count());
  EXPECT_EQ(repeat_meter.total_input_tokens(),
            flaky_meter.total_input_tokens());
}

}  // namespace
}  // namespace kernelgpt::llm
