// Unit tests for the virtual kernel: fd table, syscall dispatch, coverage
// and crash plumbing.

#include <gtest/gtest.h>

#include <type_traits>

#include "vkernel/kernel.h"

namespace kernelgpt::vkernel {
namespace {

/// Minimal test driver: one device with a single ioctl that covers blocks
/// and can crash on command 0xdead.
class TestHandler : public FileHandler {
 public:
  long Ioctl(uint64_t cmd, Buffer* arg, KernelModel& kernel) override {
    ExecContext& ctx = kernel.context();
    ctx.Cover(100 + cmd);
    if (cmd == 0xdead) ctx.Crash("test crash in handler");
    if (arg && !arg->bytes.empty()) ctx.Cover(500);
    return 0;
  }
  long Read(Buffer* out, KernelModel& kernel) override {
    kernel.context().Cover(600);
    out->bytes.assign(4, 0xaa);
    return 4;
  }
  void Release(KernelModel& kernel) override {
    kernel.context().Cover(700);
    ++release_count;
  }
  static int release_count;
};
int TestHandler::release_count = 0;

class TestDriver : public DeviceDriver {
 public:
  std::string Name() const override { return "testdev"; }
  std::string NodePath() const override { return "/dev/testdev"; }
  std::shared_ptr<FileHandler> Open(KernelModel& kernel, long* err) override {
    (void)err;
    kernel.context().Cover(1);
    return std::make_shared<TestHandler>();
  }
};

class TestSocket : public SocketHandler {
 public:
  long SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                  KernelModel& kernel) override {
    (void)val;
    if (level != 99) return -kENOPROTOOPT;
    kernel.context().Cover(900 + optname);
    return 0;
  }
};

class TestFamily : public SocketFamily {
 public:
  std::string Name() const override { return "testsock"; }
  uint64_t Domain() const override { return 42; }
  std::shared_ptr<SocketHandler> Create(uint64_t type, uint64_t protocol,
                                        KernelModel& kernel,
                                        long* err) override {
    (void)protocol;
    if (type != 1) {
      *err = -kEINVAL;
      return nullptr;
    }
    kernel.context().Cover(800);
    return std::make_shared<TestSocket>();
  }
};

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_.RegisterDevice(std::make_unique<TestDriver>());
    kernel_.RegisterSocketFamily(std::make_unique<TestFamily>());
    kernel_.BeginProgram();
  }
  Kernel kernel_;
  Coverage cov_;
};

TEST_F(KernelTest, OpenUnknownPathFails)
{
  ExecContext ctx(&cov_);
  EXPECT_EQ(kernel_.Openat("/dev/nope", 0, ctx).raw(), -kENOENT);
}

TEST_F(KernelTest, OpenIoctlCloseFlow)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/testdev", 0, ctx).retval;
  ASSERT_GE(fd, 3);
  EXPECT_TRUE(cov_.Contains(1));
  EXPECT_EQ(kernel_.Ioctl(fd, 7, nullptr, ctx).raw(), 0);
  EXPECT_TRUE(cov_.Contains(107));
  EXPECT_EQ(kernel_.Close(fd, ctx).raw(), 0);
  EXPECT_TRUE(cov_.Contains(700));
  EXPECT_EQ(kernel_.Ioctl(fd, 7, nullptr, ctx).raw(), -kEBADF);
}

TEST_F(KernelTest, CrashSetsContextState)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/testdev", 0, ctx).retval;
  kernel_.Ioctl(fd, 0xdead, nullptr, ctx);
  EXPECT_TRUE(ctx.crashed());
  EXPECT_EQ(ctx.crash_title(), "test crash in handler");
}

TEST_F(KernelTest, CrashTitleKeepsFirst)
{
  ExecContext ctx(&cov_);
  ctx.Crash("first");
  ctx.Crash("second");
  EXPECT_EQ(ctx.crash_title(), "first");
}

TEST_F(KernelTest, BufferArgsReachHandler)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/testdev", 0, ctx).retval;
  Buffer buf;
  buf.bytes = {1, 2, 3};
  kernel_.Ioctl(fd, 0, &buf, ctx);
  EXPECT_TRUE(cov_.Contains(500));
}

TEST_F(KernelTest, ReadWritesBuffer)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/testdev", 0, ctx).retval;
  Buffer out;
  EXPECT_EQ(kernel_.Read(fd, &out, ctx).retval, 4);
  EXPECT_EQ(out.bytes.size(), 4u);
}

TEST_F(KernelTest, DupSharesHandlerAndReleaseOnce)
{
  TestHandler::release_count = 0;
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/testdev", 0, ctx).retval;
  long fd2 = kernel_.Dup(fd, ctx).retval;
  ASSERT_GT(fd2, fd);
  EXPECT_EQ(kernel_.Close(fd, ctx).raw(), 0);
  EXPECT_EQ(TestHandler::release_count, 0);  // Still referenced by fd2.
  EXPECT_EQ(kernel_.Close(fd2, ctx).raw(), 0);
  EXPECT_EQ(TestHandler::release_count, 1);
}

TEST_F(KernelTest, SocketCreationChecksDomainAndType)
{
  ExecContext ctx(&cov_);
  EXPECT_EQ(kernel_.Socket(41, 1, 0, ctx).raw(), -kEAFNOSUPPORT);
  EXPECT_EQ(kernel_.Socket(42, 2, 0, ctx).raw(), -kEINVAL);
  long fd = kernel_.Socket(42, 1, 0, ctx).retval;
  EXPECT_GE(fd, 3);
  EXPECT_TRUE(cov_.Contains(800));
}

TEST_F(KernelTest, SetSockOptDispatch)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Socket(42, 1, 0, ctx).retval;
  Buffer val;
  EXPECT_EQ(kernel_.SetSockOpt(fd, 99, 5, val, ctx).raw(), 0);
  EXPECT_TRUE(cov_.Contains(905));
  EXPECT_EQ(kernel_.SetSockOpt(fd, 98, 5, val, ctx).raw(), -kENOPROTOOPT);
}

TEST_F(KernelTest, SocketSyscallsRejectDeviceFds)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/testdev", 0, ctx).retval;
  Buffer val;
  EXPECT_EQ(kernel_.SetSockOpt(fd, 99, 5, val, ctx).raw(), -kEBADF);
  EXPECT_EQ(kernel_.Bind(fd, val, ctx).raw(), -kEBADF);
}

TEST_F(KernelTest, BeginProgramResetsFdTable)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/testdev", 0, ctx).retval;
  kernel_.BeginProgram();
  EXPECT_EQ(kernel_.Ioctl(fd, 1, nullptr, ctx).raw(), -kEBADF);
}

/// A pool that counts hand-backs, for the recycling-contract tests.
class CountingPool : public HandlerRecycler {
 public:
  void Recycle(std::shared_ptr<FileHandler> handler) override {
    ++recycled;
    last = std::move(handler);
  }
  int recycled = 0;
  std::shared_ptr<FileHandler> last;
};

/// Driver issuing pool-tagged handlers (the model-runtime pattern).
class PooledDriver : public DeviceDriver {
 public:
  explicit PooledDriver(CountingPool* pool) : pool_(pool) {}
  std::string Name() const override { return "pooled"; }
  std::string NodePath() const override { return "/dev/pooled"; }
  std::shared_ptr<FileHandler> Open(KernelModel& kernel, long* err) override {
    (void)kernel;
    (void)err;
    std::shared_ptr<FileHandler> handler;
    if (pool_->last) {
      handler = std::move(pool_->last);
    } else {
      handler = std::make_shared<TestHandler>();
      handler->set_recycler(pool_);
    }
    return handler;
  }

 private:
  CountingPool* pool_;
};

class RecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_.RegisterDevice(std::make_unique<PooledDriver>(&pool_));
    kernel_.BeginProgram();
  }
  CountingPool pool_;
  Kernel kernel_;
  Coverage cov_;
};

TEST_F(RecycleTest, CloseHandsHandlerBackAfterRelease)
{
  TestHandler::release_count = 0;
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/pooled", 0, ctx).retval;
  ASSERT_GE(fd, 3);
  FileHandler* raw = kernel_.LookupFd(fd);
  EXPECT_EQ(kernel_.Close(fd, ctx).raw(), 0);
  EXPECT_EQ(TestHandler::release_count, 1);  // Release before recycle.
  EXPECT_EQ(pool_.recycled, 1);
  ASSERT_NE(pool_.last, nullptr);
  EXPECT_EQ(pool_.last.get(), raw);  // Same object, same control block.

  // Re-open reuses the pooled object without a second allocation.
  long fd2 = kernel_.Openat("/dev/pooled", 0, ctx).retval;
  EXPECT_EQ(kernel_.LookupFd(fd2), raw);
}

TEST_F(RecycleTest, DupRecyclesOnlyOnLastClose)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/pooled", 0, ctx).retval;
  long fd2 = kernel_.Dup(fd, ctx).retval;
  EXPECT_EQ(kernel_.Close(fd, ctx).raw(), 0);
  EXPECT_EQ(pool_.recycled, 0);  // fd2 still references the handler.
  EXPECT_EQ(kernel_.Close(fd2, ctx).raw(), 0);
  EXPECT_EQ(pool_.recycled, 1);
}

TEST_F(RecycleTest, EndProgramRecyclesOpenHandlers)
{
  ExecContext ctx(&cov_);
  long fd = kernel_.Openat("/dev/pooled", 0, ctx).retval;
  ASSERT_GE(fd, 3);
  kernel_.EndProgram(ctx);
  EXPECT_EQ(pool_.recycled, 1);
  EXPECT_EQ(kernel_.LookupFd(fd), nullptr);
}

// A personality is policy data, not a subclass: one concrete kernel type
// with no virtual dispatch of its own.
static_assert(!std::is_polymorphic_v<Kernel>);

class PersonalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    strict_.RegisterDevice(std::make_unique<TestDriver>());
    strict_.RegisterSocketFamily(std::make_unique<TestFamily>());
    strict_.BeginProgram();
    permissive_.RegisterDevice(std::make_unique<TestDriver>());
    permissive_.RegisterSocketFamily(std::make_unique<TestFamily>());
    permissive_.BeginProgram();
  }
  Kernel strict_{KernelPolicy::Strict()};
  Kernel permissive_{KernelPolicy::Permissive()};
  Coverage cov_;
};

TEST_F(PersonalityTest, ModelNames)
{
  EXPECT_EQ(strict_.policy().name, "strict");
  EXPECT_EQ(permissive_.policy().name, "permissive");
}

TEST_F(PersonalityTest, ErrnoPoliciesDiffer)
{
  ExecContext ctx(&cov_);
  // Unknown path: ENOENT (strict) vs ENODEV (permissive).
  EXPECT_EQ(strict_.Openat("/dev/nope", 0, ctx).verrno, kENOENT);
  EXPECT_EQ(permissive_.Openat("/dev/nope", 0, ctx).verrno, kENODEV);
  // Bad fd: EBADF vs EINVAL.
  EXPECT_EQ(strict_.Ioctl(12345, 0, nullptr, ctx).verrno, kEBADF);
  EXPECT_EQ(permissive_.Ioctl(12345, 0, nullptr, ctx).verrno, kEINVAL);
  // Closing a never-opened fd: error vs lenient success.
  EXPECT_EQ(strict_.Close(12345, ctx).verrno, kEBADF);
  EXPECT_TRUE(permissive_.Close(12345, ctx).ok());
  // Unknown socket domain: EAFNOSUPPORT vs EINVAL.
  EXPECT_EQ(strict_.Socket(41, 1, 0, ctx).verrno, kEAFNOSUPPORT);
  EXPECT_EQ(permissive_.Socket(41, 1, 0, ctx).verrno, kEINVAL);
}

TEST_F(PersonalityTest, FdLayoutsDiffer)
{
  ExecContext ctx(&cov_);
  // Strict numbers files and sockets from one unified base.
  EXPECT_EQ(strict_.Openat("/dev/testdev", 0, ctx).retval, 3);
  EXPECT_EQ(strict_.Socket(42, 1, 0, ctx).retval, 4);
  // Permissive splits the spaces: files from 3, sockets from 1000.
  EXPECT_EQ(permissive_.Openat("/dev/testdev", 0, ctx).retval, 3);
  EXPECT_EQ(permissive_.Socket(42, 1, 0, ctx).retval, 1000);
  EXPECT_EQ(permissive_.Openat("/dev/testdev", 0, ctx).retval, 4);
  EXPECT_EQ(permissive_.Socket(42, 1, 0, ctx).retval, 1001);
  // Both kernels dispatch through their own tables all the same.
  EXPECT_TRUE(permissive_.Ioctl(4, 7, nullptr, ctx).ok());
  Buffer val;
  EXPECT_TRUE(permissive_.SetSockOpt(1001, 99, 5, val, ctx).ok());
  // Shapes agree even though the raw fd values differ.
  EXPECT_EQ(strict_.FdTableShape(), (FdShape{1, 1}));
  EXPECT_EQ(permissive_.FdTableShape(), (FdShape{2, 2}));
}

TEST_F(PersonalityTest, OneKernelTypeDrivesEitherPersonality)
{
  ExecContext ctx(&cov_);
  for (Kernel* kernel : {&strict_, &permissive_}) {
    SyscallResult fd = kernel->Openat("/dev/testdev", 0, ctx);
    ASSERT_TRUE(fd.ok());
    EXPECT_TRUE(kernel->Ioctl(fd.retval, 7, nullptr, ctx).ok());
    kernel->EndProgram(ctx);
    EXPECT_EQ(kernel->FdTableShape(), (FdShape{0, 0}));
    kernel->BeginProgram();
  }
}

TEST(CoverageTest, MergeAndDiff)
{
  Coverage a;
  a.Hit(1);
  a.Hit(2);
  Coverage b;
  b.Hit(2);
  b.Hit(3);
  EXPECT_EQ(a.CountNotIn(b), 1u);
  EXPECT_EQ(a.Merge(b), 1u);
  EXPECT_EQ(a.Count(), 3u);
}

TEST(CoverageTest, HitReportsNew)
{
  Coverage c;
  EXPECT_TRUE(c.Hit(5));
  EXPECT_FALSE(c.Hit(5));
}

TEST(BufferTest, ScalarRoundTrip)
{
  Buffer b;
  b.WriteScalar(4, 4, 0xdeadbeef);
  EXPECT_EQ(b.bytes.size(), 8u);
  EXPECT_EQ(b.ReadScalar(4, 4), 0xdeadbeefu);
  EXPECT_EQ(b.ReadScalar(100, 4), 0u);  // Out of range reads zero.
}

TEST(BufferTest, PartialReadAtEdge)
{
  Buffer b;
  b.bytes = {0xff, 0xff};
  // Reading 4 bytes at offset 0 with only 2 available: low bytes only.
  EXPECT_EQ(b.ReadScalar(0, 4), 0xffffu);
}

}  // namespace
}  // namespace kernelgpt::vkernel
