// Tests for the benchmark's own arithmetic and output checks: quartiles
// as Python's statistics.quantiles computes them, span self time, the
// failure ratio with its base, and the equality checks a run applies.

#include <gtest/gtest.h>

#include "checks.h"
#include "measure.h"
#include "spans.h"

namespace pipebench {
namespace {

TEST(MeasureTest, MedianOddEvenAndEmpty)
{
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(MeasureTest, QuartilesMatchPythonExclusiveMethod)
{
  // Reference values from statistics.quantiles(data, n=4).
  std::array<double, 3> q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);

  q = Quartiles({10, 1, 7, 3, 5});  // Unsorted input: [1, 3, 5, 7, 10].
  EXPECT_DOUBLE_EQ(q[0], 2);
  EXPECT_DOUBLE_EQ(q[1], 5);
  EXPECT_DOUBLE_EQ(q[2], 8.5);

  q = Quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q[0], 0.75);
  EXPECT_DOUBLE_EQ(q[1], 1.5);
  EXPECT_DOUBLE_EQ(q[2], 2.25);

  q = Quartiles({4});
  EXPECT_DOUBLE_EQ(q[0], 4);
  EXPECT_DOUBLE_EQ(q[2], 4);
}

TEST(MeasureTest, SelfTimeSubtractsCoveredChildInterval)
{
  EXPECT_DOUBLE_EQ(SelfTime(0, 10, {}), 10);
  EXPECT_DOUBLE_EQ(SelfTime(0, 10, {{2, 4}}), 8);
  // Overlapping children (parallel workers) count their union once.
  EXPECT_DOUBLE_EQ(SelfTime(0, 10, {{2, 6}, {4, 8}}), 4);
  // Nested child inside another child adds nothing.
  EXPECT_DOUBLE_EQ(SelfTime(0, 10, {{1, 9}, {3, 4}}), 2);
  // Children sticking out of the parent are clipped to it.
  EXPECT_DOUBLE_EQ(SelfTime(2, 6, {{0, 3}, {5, 9}}), 2);
  // Fully covered parent, and a degenerate parent.
  EXPECT_DOUBLE_EQ(SelfTime(0, 4, {{0, 4}}), 0);
  EXPECT_DOUBLE_EQ(SelfTime(5, 5, {{0, 9}}), 0);
}

TEST(MeasureTest, FailRatioKeepsItsBase)
{
  OpCount ops;
  EXPECT_DOUBLE_EQ(ops.FailRatio(), 0);
  EXPECT_DOUBLE_EQ(ops.OkRatio(), 0);
  for (int i = 0; i < 7; ++i) ops.Add(true);
  ops.Add(false);
  EXPECT_EQ(ops.attempted, 8);
  EXPECT_EQ(ops.failed, 1);
  EXPECT_DOUBLE_EQ(ops.FailRatio(), 0.125);
  EXPECT_DOUBLE_EQ(ops.OkRatio(), 0.875);
}

TEST(SpansTest, ParentsAndSelection)
{
  SpanRecorder rec;
  {
    ScopedSpan round(&rec, "round", 3);
    {
      ScopedSpan stage(&rec, "stage");
      rec.Record("boot", rec.Now(), rec.Now());
    }
    rec.Record("boot", rec.Now(), rec.Now());
  }
  const std::vector<Span> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].round, 3);  // Inherited from the enclosing round.
  EXPECT_EQ(Select(spans, "boot").size(), 2u);
  EXPECT_EQ(Select(spans, "boot", "stage").size(), 1u);
  EXPECT_EQ(Select(spans, "boot", "round").size(), 1u);
  EXPECT_GE(spans[0].end, spans[1].end);
}

TEST(ChecksTest, OutcomeDiffNamesTheField)
{
  SuiteOutcome a;
  a.coverage_blocks = 10;
  a.crash_titles = {"x"};
  a.corpus_hashes = {1, 2};
  a.programs_executed = 5;
  SuiteOutcome b = a;
  EXPECT_EQ(Diff(a, b), "");
  b.corpus_hashes = {2, 1};
  EXPECT_NE(Diff(a, b).find("corpus"), std::string::npos);
  b = a;
  b.crash_titles = {"y"};
  EXPECT_NE(Diff(a, b).find("crash"), std::string::npos);
  b = a;
  b.divergences = 1;
  EXPECT_NE(Diff(a, b).find("divergences"), std::string::npos);
}

TEST(ChecksTest, StatesCompareBlocksNotJustCounts)
{
  kernelgpt::fuzzer::SuiteState live;
  live.coverage.Hit(1);
  live.coverage.Hit(2);
  live.crashes["title"] = 3;
  kernelgpt::fuzzer::SuiteState resumed = live;
  EXPECT_EQ(DiffStates(live, resumed), "");
  resumed.coverage.Clear();
  resumed.coverage.Hit(1);
  resumed.coverage.Hit(3);
  EXPECT_NE(DiffStates(live, resumed), "");
  resumed = live;
  resumed.programs_executed = 1;
  EXPECT_NE(DiffStates(live, resumed), "");
}

TEST(ChecksTest, OutcomesMustRepeatExactly)
{
  Outcomes a = {{"coverage_blocks", 3859}, {"unique_crashes", 32}};
  Outcomes b = a;
  EXPECT_EQ(DiffOutcomes(a, b), "");
  b["unique_crashes"] = 31;
  EXPECT_NE(DiffOutcomes(a, b).find("unique_crashes"), std::string::npos);
  b = a;
  b.erase("coverage_blocks");
  EXPECT_NE(DiffOutcomes(a, b), "");
  b = a;
  b["extra"] = 1;
  EXPECT_NE(DiffOutcomes(a, b), "");
}

}  // namespace
}  // namespace pipebench
