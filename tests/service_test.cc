// Tests for the parallel spec-generation service: byte-parity with the
// serial pipeline, thread-count independence (the scripts/ci.sh spec_gen
// determinism gate runs this suite), multi-backend fan-out, and the
// per-backend cost/quality report.

#include <gtest/gtest.h>

#include "drivers/corpus.h"
#include "extractor/handler_finder.h"
#include "llm/registry.h"
#include "spec_gen/service.h"
#include "syzlang/printer.h"
#include "util/fault.h"
#include "util/rng.h"

namespace kernelgpt::spec_gen {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    index_ = new ksrc::DefinitionIndex(
        drivers::Corpus::Instance().BuildIndex());
    drivers_ = new std::vector<extractor::DriverHandler>();
    for (auto& handler : extractor::FindDriverHandlers(*index_)) {
      if (handler.reg == extractor::RegKind::kUnreferenced) continue;
      drivers_->push_back(std::move(handler));
    }
    sockets_ = new std::vector<extractor::SocketHandler>(
        extractor::FindSocketHandlers(*index_));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete drivers_;
    delete sockets_;
    index_ = nullptr;
    drivers_ = nullptr;
    sockets_ = nullptr;
  }

  static ServiceResult Run(ServiceOptions options) {
    SpecGenService service(index_, std::move(options));
    return service.Generate(*drivers_, *sockets_);
  }

  static std::vector<std::string> PrintAll(const BackendRun& run) {
    std::vector<std::string> out;
    for (const HandlerGeneration& gen : run.generations) {
      out.push_back(syzlang::Print(gen.spec));
    }
    return out;
  }

  void TearDown() override { util::FaultInjector::Instance().Disarm(); }

  static ksrc::DefinitionIndex* index_;
  static std::vector<extractor::DriverHandler>* drivers_;
  static std::vector<extractor::SocketHandler>* sockets_;
};

ksrc::DefinitionIndex* ServiceTest::index_ = nullptr;
std::vector<extractor::DriverHandler>* ServiceTest::drivers_ = nullptr;
std::vector<extractor::SocketHandler>* ServiceTest::sockets_ = nullptr;

TEST_F(ServiceTest, SingleThreadMatchesSerialPipeline)
{
  // Default service path (registry "gpt-4", one thread) == one KernelGpt
  // instance walking the handlers in order with one shared meter: same
  // specs byte-for-byte, same token totals.
  ServiceOptions options;  // {"gpt-4"}, 1 thread.
  ServiceResult result = Run(options);
  ASSERT_EQ(result.runs.size(), 1u);
  const BackendRun& run = result.runs[0];
  ASSERT_EQ(run.generations.size(), drivers_->size() + sockets_->size());

  llm::TokenMeter meter;
  meter.SetKeepText(false);
  KernelGpt serial(index_, Options{}, &meter);
  size_t slot = 0;
  for (const auto& handler : *drivers_) {
    HandlerGeneration gen = serial.GenerateForDriver(handler);
    EXPECT_EQ(gen.status, run.generations[slot].status);
    EXPECT_EQ(syzlang::Print(gen.spec),
              syzlang::Print(run.generations[slot].spec));
    ++slot;
  }
  for (const auto& handler : *sockets_) {
    HandlerGeneration gen = serial.GenerateForSocket(handler);
    EXPECT_EQ(syzlang::Print(gen.spec),
              syzlang::Print(run.generations[slot].spec));
    ++slot;
  }
  EXPECT_EQ(run.report.queries, meter.query_count());
  EXPECT_EQ(run.report.input_tokens, meter.total_input_tokens());
  EXPECT_EQ(run.report.output_tokens, meter.total_output_tokens());
}

TEST_F(ServiceTest, OutputIndependentOfThreadCount)
{
  ServiceOptions one;
  one.backends = {"gpt-4", "gpt-3.5"};
  one.num_threads = 1;
  ServiceOptions four = one;
  four.num_threads = 4;
  ServiceResult a = Run(one);
  ServiceResult b = Run(four);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(PrintAll(a.runs[r]), PrintAll(b.runs[r])) << a.runs[r].backend;
    EXPECT_EQ(a.runs[r].report.queries, b.runs[r].report.queries);
    EXPECT_EQ(a.runs[r].report.input_tokens, b.runs[r].report.input_tokens);
    EXPECT_EQ(a.runs[r].report.output_tokens,
              b.runs[r].report.output_tokens);
    EXPECT_EQ(a.runs[r].report.syscalls, b.runs[r].report.syscalls);
    EXPECT_EQ(a.runs[r].report.failed, b.runs[r].report.failed);
  }
}

TEST_F(ServiceTest, FansOutAcrossAllRegisteredBackends)
{
  ServiceOptions options;
  options.backends = llm::BackendRegistry::Default().Names();
  options.num_threads = 4;
  ServiceResult result = Run(options);
  ASSERT_GE(result.runs.size(), 4u);
  const size_t handlers = drivers_->size() + sockets_->size();
  for (const BackendRun& run : result.runs) {
    EXPECT_TRUE(run.report.known) << run.backend;
    EXPECT_EQ(run.report.handlers, handlers) << run.backend;
    EXPECT_EQ(run.report.valid + run.report.repaired + run.report.failed,
              handlers)
        << run.backend;
    EXPECT_GT(run.report.queries, 0u) << run.backend;
    EXPECT_GT(run.report.cost_usd, 0.0) << run.backend;
  }

  // Quality ordering the §5.2.3 ablation documents: the weak tier
  // describes far fewer syscalls than the default.
  const BackendRun* strong = result.Find("gpt-4");
  const BackendRun* weak = result.Find("gpt-3.5");
  ASSERT_NE(strong, nullptr);
  ASSERT_NE(weak, nullptr);
  EXPECT_LT(weak->report.syscalls, strong->report.syscalls);

  // The flaky wrapper is gpt-4 plus retries: identical quality columns,
  // strictly higher metered cost.
  const BackendRun* flaky = result.Find("gpt-4-flaky");
  ASSERT_NE(flaky, nullptr);
  EXPECT_EQ(flaky->report.syscalls, strong->report.syscalls);
  EXPECT_EQ(flaky->report.failed, strong->report.failed);
  for (size_t i = 0; i < flaky->generations.size(); ++i) {
    EXPECT_EQ(syzlang::Print(flaky->generations[i].spec),
              syzlang::Print(strong->generations[i].spec));
  }
  EXPECT_GT(flaky->report.queries, strong->report.queries);
  EXPECT_GT(flaky->report.input_tokens, strong->report.input_tokens);
}

TEST_F(ServiceTest, AllBackendsOutputIsPinned)
{
  // Every registered backend over every extracted handler at one thread:
  // backend names, rendered specs, statuses and token totals hash to a
  // recorded constant, so a speed change to the generation path cannot
  // move a single byte of its output unnoticed.
  ServiceOptions options;
  options.backends = llm::BackendRegistry::Default().Names();
  ServiceResult result = Run(options);
  uint64_t h = 0;
  size_t spec_bytes = 0;
  for (const BackendRun& run : result.runs) {
    h = util::HashCombine(h, util::StableHash(run.backend));
    for (const HandlerGeneration& gen : run.generations) {
      const std::string text = syzlang::Print(gen.spec);
      spec_bytes += text.size();
      h = util::HashCombine(h, util::StableHash(text));
      h = util::HashCombine(h, static_cast<uint64_t>(gen.status));
    }
    h = util::HashCombine(h, run.report.input_tokens);
    h = util::HashCombine(h, run.report.output_tokens);
  }
  EXPECT_EQ(result.runs.size(), 6u);
  EXPECT_EQ(spec_bytes, 655131u);
  EXPECT_EQ(h, 16891162494850828956ULL);
}

TEST_F(ServiceTest, UnknownBackendIsReportedNotGenerated)
{
  ServiceOptions options;
  options.backends = {"gpt-4", "no-such-model"};
  ServiceResult result = Run(options);
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_TRUE(result.runs[0].report.known);
  const BackendRun& missing = result.runs[1];
  EXPECT_FALSE(missing.report.known);
  EXPECT_EQ(missing.report.handlers, 0u);
  EXPECT_TRUE(missing.generations.empty());
}

TEST_F(ServiceTest, DyingBackendFailsOverToTheNextRegisteredOne)
{
  // Every task gpt-3.5 tries to serve dies (the spec_gen.task detail is
  // "<serving backend>:<handler key>", so the match scopes the rule to
  // gpt-3.5's attempts only — deterministically, even at 4 threads,
  // because times=-1 leaves no firing-order race).
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec(
                      "site=spec_gen.task,kind=throw,times=-1,match=gpt-3.5:")
                  .ok());
  ServiceOptions options;
  options.backends = {"gpt-4", "gpt-3.5"};
  options.num_threads = 4;
  ServiceResult result = Run(options);

  const size_t handlers = drivers_->size() + sockets_->size();
  const BackendRun& strong = result.runs[0];
  const BackendRun& dying = result.runs[1];
  EXPECT_EQ(dying.report.failed_over, handlers);
  EXPECT_EQ(dying.report.adopted, 0u);
  EXPECT_EQ(dying.report.unserved, 0u);
  EXPECT_EQ(dying.report.queries, 0u);  // It never served anything.
  EXPECT_NE(dying.report.last_error.find("injected throw fault"),
            std::string::npos);
  EXPECT_EQ(strong.report.adopted, handlers);
  EXPECT_EQ(strong.report.failed_over, 0u);

  // Failover is reported, not silent — but it is also real: every one of
  // the dying run's slots holds the adopting backend's generation.
  ASSERT_EQ(dying.generations.size(), handlers);
  for (size_t i = 0; i < handlers; ++i) {
    EXPECT_EQ(syzlang::Print(dying.generations[i].spec),
              syzlang::Print(strong.generations[i].spec));
  }
}

TEST_F(ServiceTest, TransientTaskFaultFailsOverOneTask)
{
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("site=spec_gen.task,kind=throw,match=gpt-4:")
                  .ok());
  ServiceOptions options;
  options.backends = {"gpt-4", "gpt-3.5"};
  options.num_threads = 1;  // Keep the nth=1 window deterministic.
  ServiceResult result = Run(options);
  EXPECT_EQ(result.runs[0].report.failed_over, 1u);
  EXPECT_EQ(result.runs[1].report.adopted, 1u);
  EXPECT_EQ(result.runs[0].report.unserved, 0u);
  const size_t handlers = drivers_->size() + sockets_->size();
  EXPECT_EQ(result.runs[0].generations.size(), handlers);
}

TEST_F(ServiceTest, NoSurvivingBackendLeavesTasksUnservedNotCrashed)
{
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("site=spec_gen.task,kind=throw,times=-1")
                  .ok());
  ServiceOptions options;
  options.backends = {"gpt-4"};
  options.num_threads = 2;
  ServiceResult result = Run(options);
  const size_t handlers = drivers_->size() + sockets_->size();
  const BackendRun& run = result.runs[0];
  EXPECT_EQ(run.report.unserved, handlers);
  EXPECT_EQ(run.report.failed, handlers);
  ASSERT_EQ(run.generations.size(), handlers);
  for (const HandlerGeneration& gen : run.generations) {
    EXPECT_EQ(gen.status, GenStatus::kFailed);
  }
}

TEST_F(ServiceTest, InjectedCrashPropagatesAfterWorkersDrain)
{
  // A simulated process death is NOT a task failure: the service drains
  // its workers and rethrows so a supervisor sees the crash, never a
  // silently half-generated result.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("site=spec_gen.task,kind=crash")
                  .ok());
  ServiceOptions options;
  options.num_threads = 4;
  EXPECT_THROW(Run(options), util::InjectedCrash);
}

}  // namespace
}  // namespace kernelgpt::spec_gen
