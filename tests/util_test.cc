// Unit tests for the util module: RNG determinism, string helpers, table
// rendering, histograms, fault injection, and retry/backoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "drivers/corpus.h"
#include "drivers/model_render.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/histogram.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace kernelgpt::util {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowRespectsBound)
{
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RngTest, BelowZeroReturnsZero)
{
  Rng rng(7);
  EXPECT_EQ(rng.Below(0), 0u);
}

TEST(RngTest, RangeInclusive)
{
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // All three values occur.
}

TEST(RngTest, ChanceExtremes)
{
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability)
{
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits, 2500, 250);
}

TEST(RngTest, WeightedPickHonorsWeights)
{
  Rng rng(17);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.WeightedPick(weights), 1u);
  }
}

TEST(RngTest, WeightedPickEmptyReturnsZero)
{
  Rng rng(17);
  EXPECT_EQ(rng.WeightedPick({}), 0u);
}

TEST(RngTest, ForkDecorrelates)
{
  Rng parent(21);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(StableHashTest, StableAcrossCalls)
{
  EXPECT_EQ(StableHash(std::string("dm")), StableHash(std::string("dm")));
  EXPECT_NE(StableHash(std::string("dm")), StableHash(std::string("cec")));
}

TEST(StringsTest, SplitPreservesEmptyFields)
{
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty)
{
  auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, TrimBothEnds)
{
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, StartsEndsContains)
{
  EXPECT_TRUE(StartsWith("openat$dm", "openat"));
  EXPECT_FALSE(StartsWith("op", "openat"));
  EXPECT_TRUE(EndsWith("_ctl_fops", "fops"));
  EXPECT_TRUE(Contains("unlocked_ioctl = dm_ctl_ioctl", "dm_ctl_ioctl"));
}

TEST(StringsTest, ReplaceAll)
{
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringsTest, FormatBasics)
{
  EXPECT_EQ(Format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(Format("%%"), "%");
}

TEST(StringsTest, IndentMultiline)
{
  EXPECT_EQ(Indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(Indent("a\n\nb", 2), "  a\n\n  b");  // Blank lines unpadded.
}

TEST(StringsTest, ApproxTokenCountScalesWithLength)
{
  size_t small = ApproxTokenCount("int x;");
  size_t large = ApproxTokenCount(std::string(4000, 'a'));
  EXPECT_LT(small, 10u);
  EXPECT_GE(large, 900u);
}

TEST(StringsTest, ApproxTokenCountMatchesSplitWhitespace)
{
  // The one-pass count must equal the definition it replaced, byte for
  // byte, on every kernel source the prompts quote and on the edges.
  auto reference = [](const std::string& s) {
    return std::max(SplitWhitespace(s).size(), s.size() / 4);
  };
  std::vector<std::string> inputs = {
      "",
      " \t\n\v\f\r  \n\n",
      "a\tb", "a\nb", "a\vb", "a\fb", "a\rb",
      "struct dm_ioctl { __u32 data_size; }",
      "  leading and trailing  ",
      "\x80\x81 caf\xc3\xa9 \xff\xfe\xa0word \x85next",
      std::string(37, 'x') + "\t" + std::string(3, 'y'),
  };
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  for (const auto& dev : corpus.devices()) {
    inputs.push_back(drivers::RenderDeviceSource(dev));
  }
  for (const auto& sock : corpus.sockets()) {
    inputs.push_back(drivers::RenderSocketSource(sock));
  }
  for (const std::string& s : inputs) {
    EXPECT_EQ(ApproxTokenCount(s), reference(s)) << s.substr(0, 40);
  }
}

TEST(StringsTest, CountWordsMatchesSplitWhitespace)
{
  std::vector<std::string> inputs = {
      "", " \t\n\v\f\r  \n\n", "a\tb", "a\vb", "  leading and trailing  ",
      "\x80\x81 caf\xc3\xa9 \xff\xfe\xa0word \x85next",
  };
  const drivers::Corpus& corpus = drivers::Corpus::Instance();
  for (const auto& dev : corpus.devices()) {
    inputs.push_back(drivers::RenderDeviceSource(dev));
  }
  for (const auto& sock : corpus.sockets()) {
    inputs.push_back(drivers::RenderSocketSource(sock));
  }
  for (const std::string& s : inputs) {
    EXPECT_EQ(CountWords(s), SplitWhitespace(s).size()) << s.substr(0, 40);
  }
}

TEST(StringsTest, CountWordsAddsUpAcrossAJoinAfterWhitespace)
{
  // What lets a prompt be metered from its pieces: a prefix that ends in
  // whitespace cannot merge its last word with the text that follows.
  const std::vector<std::string> prefixes = {
      "", "\n", "## Source Code\n", "FUNC: x\t", "a b  ", "\r\n\v"};
  const std::vector<std::string> rests = {
      "", "int", " int x;", "static int foo(void)\n{\n}\n", "\n\n", "a"};
  for (const std::string& a : prefixes) {
    for (const std::string& b : rests) {
      EXPECT_EQ(CountWords(a) + CountWords(b), CountWords(a + b))
          << "[" << a << "] + [" << b << "]";
    }
  }
  // Without the whitespace the last word of the prefix and the first of
  // the code are one word.
  EXPECT_EQ(CountWords("## Source Code") + CountWords("static int"), 5u);
  EXPECT_EQ(CountWords("## Source Codestatic int"), 4u);
}

TEST(TableTest, RendersAlignedColumns)
{
  Table t({"Name", "Cov"});
  t.AddRow({"dm", "123"});
  t.AddRow({"longer-name", "4"});
  std::string out = t.Render();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_EQ(t.RowCount(), 2u);
}

TEST(TableTest, SeparatorNotCountedAsRow)
{
  Table t({"A"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  EXPECT_EQ(t.RowCount(), 2u);
}

TEST(TableTest, WithCommas)
{
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(204923), "204,923");
  EXPECT_EQ(WithCommas(-1234567), "-1,234,567");
}

TEST(TableTest, FixedDigits)
{
  EXPECT_EQ(Fixed(16.049, 1), "16.0");
  EXPECT_EQ(Fixed(2.5, 2), "2.50");
}

TEST(HistogramTest, BucketsAndClamping)
{
  Histogram h(0, 100, 4);
  h.Add(10);   // Bucket 0.
  h.Add(30);   // Bucket 1.
  h.Add(99);   // Bucket 3.
  h.Add(150);  // Clamped to bucket 3.
  h.Add(-5);   // Clamped to bucket 0.
  EXPECT_EQ(h.BucketCount(size_t{0}), 2u);
  EXPECT_EQ(h.BucketCount(size_t{1}), 1u);
  EXPECT_EQ(h.BucketCount(size_t{2}), 0u);
  EXPECT_EQ(h.BucketCount(size_t{3}), 2u);
  EXPECT_EQ(h.TotalCount(), 5u);
}

TEST(HistogramTest, AsciiRenderHasOneLinePerBucket)
{
  Histogram h(0, 10, 5);
  h.Add(1);
  std::string out = h.RenderAscii();
  int lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5);
}

/// Disarms the process-wide injector when a test scope ends, so an armed
/// plan can never leak into a later test.
struct ScopedDisarm {
  ~ScopedDisarm() { FaultInjector::Instance().Disarm(); }
};

TEST(FaultTest, ParsesFullGrammar)
{
  FaultPlan plan;
  ASSERT_TRUE(FaultInjector::ParsePlan(
                  "seed=42;"
                  "site=fileio.atomic_write,kind=errno,errno=ENOSPC,nth=2,"
                  "times=3,match=tenant_a,msg=disk full;"
                  "site=orchestrator.worker,kind=crash,p=0.25",
                  &plan)
                  .ok());
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.rules.size(), 2u);
  EXPECT_EQ(plan.rules[0].site, "fileio.atomic_write");
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kErrno);
  EXPECT_EQ(plan.rules[0].error_number, ENOSPC);
  EXPECT_EQ(plan.rules[0].nth, 2);
  EXPECT_EQ(plan.rules[0].times, 3);
  EXPECT_EQ(plan.rules[0].match, "tenant_a");
  EXPECT_EQ(plan.rules[0].message, "disk full");
  EXPECT_EQ(plan.rules[1].kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 0.25);
  // Numeric errno round-trips too.
  ASSERT_TRUE(FaultInjector::ParsePlan("site=x,kind=errno,errno=28", &plan)
                  .ok());
  EXPECT_EQ(plan.rules[0].error_number, 28);
}

TEST(FaultTest, RejectsMalformedPlans)
{
  FaultPlan plan;
  EXPECT_FALSE(FaultInjector::ParsePlan("kind=throw", &plan).ok());
  EXPECT_FALSE(FaultInjector::ParsePlan("site=x,kind=meteor", &plan).ok());
  EXPECT_FALSE(FaultInjector::ParsePlan("site=x,errno=EWHAT", &plan).ok());
  EXPECT_FALSE(FaultInjector::ParsePlan("site=x,nth=0", &plan).ok());
  EXPECT_FALSE(FaultInjector::ParsePlan("site=x,volume=11", &plan).ok());
  EXPECT_FALSE(FaultInjector::ParsePlan("site=x,kindthrow", &plan).ok());
}

TEST(FaultTest, NthTimesWindowFiresDeterministically)
{
  ScopedDisarm guard;
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(injector.ArmFromSpec("site=test.site,nth=2,times=2").ok());
  int thrown = 0;
  for (int call = 1; call <= 5; ++call) {
    try {
      injector.Hit("test.site");
    } catch (const InjectedFault&) {
      ++thrown;
      EXPECT_TRUE(call == 2 || call == 3) << "fired on call " << call;
    }
  }
  EXPECT_EQ(thrown, 2);
  EXPECT_EQ(injector.FiredCount("test.site"), 2u);
  EXPECT_EQ(injector.TotalFired(), 2u);
}

TEST(FaultTest, MatchScopesTheCallStream)
{
  ScopedDisarm guard;
  FaultInjector& injector = FaultInjector::Instance();
  // nth=2 counts only calls whose detail contains "tenant_a": unrelated
  // call streams (other tenants, other threads) never advance the rule.
  ASSERT_TRUE(
      injector.ArmFromSpec("site=test.site,match=tenant_a,nth=2").ok());
  EXPECT_NO_THROW(injector.Hit("test.site", "tenant_b/save"));
  EXPECT_NO_THROW(injector.Hit("test.site", "tenant_a/save"));  // match #1
  EXPECT_NO_THROW(injector.Hit("test.site", "tenant_b/save"));
  EXPECT_THROW(injector.Hit("test.site", "tenant_a/save"),  // match #2
               InjectedFault);
}

TEST(FaultTest, CrashIsNotAFault)
{
  ScopedDisarm guard;
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(injector.ArmFromSpec("site=test.site,kind=crash,times=-1").ok());
  // A supervisor must be able to distinguish "the worker failed" (retry
  // in place) from "the process died" (rebuild + resume): InjectedCrash
  // is deliberately not an InjectedFault.
  try {
    injector.Hit("test.site");
    FAIL() << "expected InjectedCrash";
  } catch (const InjectedFault&) {
    FAIL() << "InjectedCrash must not be catchable as InjectedFault";
  } catch (const InjectedCrash& crash) {
    EXPECT_NE(std::string(crash.what()).find("test.site"), std::string::npos);
  }
}

TEST(FaultTest, HitStatusCarriesInjectedErrno)
{
  ScopedDisarm guard;
  FaultInjector& injector = FaultInjector::Instance();
  ASSERT_TRUE(
      injector.ArmFromSpec("site=io.site,kind=errno,errno=ENOSPC").ok());
  int fired_errno = 0;
  Status status = injector.HitStatus("io.site", "some/path", &fired_errno);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(fired_errno, ENOSPC);
  EXPECT_NE(status.message().find("ENOSPC"), std::string::npos);
  // Second call: the rule's nth=1,times=1 window is spent.
  EXPECT_TRUE(injector.HitStatus("io.site", "some/path").ok());
}

TEST(FaultTest, DisarmedHitIsANoop)
{
  FaultInjector::Instance().Disarm();
  EXPECT_FALSE(FaultInjector::Armed());
  EXPECT_NO_THROW(FaultInjector::Instance().Hit("any.site", "detail"));
  EXPECT_TRUE(FaultInjector::Instance().HitStatus("any.site").ok());
}

TEST(FaultTest, ArmsFromEnvironmentSpec)
{
  ScopedDisarm guard;
  ::setenv("KERNELGPT_FAULT_PLAN", "site=env.site,kind=status", 1);
  EXPECT_TRUE(FaultInjector::Instance().ArmFromEnvIfPresent());
  EXPECT_TRUE(FaultInjector::Armed());
  Status status = FaultInjector::Instance().HitStatus("env.site");
  EXPECT_FALSE(status.ok());
  ::unsetenv("KERNELGPT_FAULT_PLAN");
}

TEST(FaultTest, ErrnoNamesCoverTheIoClasses)
{
  EXPECT_STREQ(ErrnoName(ENOSPC), "ENOSPC");
  EXPECT_STREQ(ErrnoName(EIO), "EIO");
  EXPECT_STREQ(ErrnoName(EACCES), "EACCES");
  EXPECT_STREQ(ErrnoName(12345), "");
}

TEST(FaultTest, InjectedErrnoReadsLikeARealSyscallFailure)
{
  ScopedDisarm guard;
  ASSERT_TRUE(FaultInjector::Instance()
                  .ArmFromSpec(
                      "site=fileio.atomic_write,kind=errno,errno=ENOSPC")
                  .ok());
  const std::string path =
      (std::filesystem::temp_directory_path() / "kernelgpt_fault_probe.log")
          .string();
  Status status = AtomicWriteFile(path, "x");
  ASSERT_FALSE(status.ok());
  // Routed through the same ErrnoStatus mapping as a real failure: the
  // message names the errno class, the path, and the strerror text.
  EXPECT_NE(status.message().find("ENOSPC"), std::string::npos);
  EXPECT_NE(status.message().find(path), std::string::npos);
  EXPECT_NE(status.message().find("No space left"), std::string::npos);
  // Distinguishable classes: EACCES reads differently from ENOSPC.
  ASSERT_TRUE(FaultInjector::Instance()
                  .ArmFromSpec("site=fileio.read,kind=errno,errno=EACCES")
                  .ok());
  std::string text;
  status = ReadFileToString(path, &text);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("EACCES"), std::string::npos);
  EXPECT_EQ(status.message().find("ENOSPC"), std::string::npos);
}

TEST(FaultTest, AnExitRuleAtTheRenameDiesWithTheTmpFileDurable)
{
  // The cross-process kill-mid-save: a kind=exit rule at "fileio.rename"
  // really _exits 42 after the tmp file is durable and before the rename,
  // so the old file survives and the tmp file holds the new bytes.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "kernelgpt_exit_rule";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "session.manifest").string();
  ASSERT_TRUE(AtomicWriteFile(path, "old bytes").ok());

  EXPECT_EXIT(
      {
        ScopedDisarm guard;
        if (!FaultInjector::Instance()
                 .ArmFromSpec(
                     "site=fileio.rename,kind=exit,match=session.manifest")
                 .ok()) {
          std::_Exit(1);
        }
        (void)AtomicWriteFile(path, "new bytes");
        std::_Exit(0);  // Reached only if the rule did not fire.
      },
      ::testing::ExitedWithCode(42), "");

  std::string text;
  ASSERT_TRUE(ReadFileToString(path, &text).ok());
  EXPECT_EQ(text, "old bytes");
  ASSERT_TRUE(ReadFileToString(path + ".tmp", &text).ok());
  EXPECT_EQ(text, "new bytes");
  std::filesystem::remove_all(dir);
}

TEST(RetryTest, DelayDoublesAndClamps)
{
  RetryPolicy policy;
  policy.base_delay_ms = 10;
  policy.max_delay_ms = 50;
  EXPECT_DOUBLE_EQ(policy.DelayMs(0, "k"), 10);
  EXPECT_DOUBLE_EQ(policy.DelayMs(1, "k"), 20);
  EXPECT_DOUBLE_EQ(policy.DelayMs(2, "k"), 40);
  EXPECT_DOUBLE_EQ(policy.DelayMs(3, "k"), 50);  // clamped
  EXPECT_DOUBLE_EQ(policy.DelayMs(30, "k"), 50);
}

TEST(RetryTest, JitterIsSeededAndBounded)
{
  RetryPolicy policy;
  policy.base_delay_ms = 100;
  policy.max_delay_ms = 100;
  policy.jitter = 0.5;
  policy.seed = 7;
  const double a = policy.DelayMs(0, "alpha");
  const double b = policy.DelayMs(0, "beta");
  // Deterministic: same (policy, retry, key) -> same delay.
  EXPECT_DOUBLE_EQ(a, policy.DelayMs(0, "alpha"));
  // Jitter scales into [1 - jitter, 1] of the nominal delay.
  EXPECT_GE(a, 50.0);
  EXPECT_LE(a, 100.0);
  EXPECT_GE(b, 50.0);
  EXPECT_LE(b, 100.0);
  // Distinct keys decorrelate.
  EXPECT_NE(a, b);
}

TEST(RetryTest, RunWithRetryCountsAttemptsAndBackoff)
{
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_delay_ms = 1;
  int calls = 0;
  RetryResult r = RunWithRetry(policy, "k", [&](int attempt) {
    EXPECT_EQ(attempt, calls);
    ++calls;
    return calls < 3 ? Status::Error("transient") : Status::Ok();
  });
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(r.retries, 2);
  EXPECT_DOUBLE_EQ(r.backoff_ms, 1 + 2);  // retries 0 and 1

  calls = 0;
  r = RunWithRetry(policy, "k", [&](int) {
    ++calls;
    return Status::Error("permanent");
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(calls, 4);  // 1 + max_retries, no attempt after the last
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(r.retries, 3);
}

}  // namespace
}  // namespace kernelgpt::util
