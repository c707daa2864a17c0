// Boot-image suite. Corpus::RegisterAll builds every module's immutable
// tables (block ids, command/op/sockopt tables, struct layouts, TCP
// transition ids) once per process and gives each kernel only thin
// per-kernel drivers over them. The sharing must be invisible:
//  - parity: a RegisterAll kernel and a kernel built from the standalone
//    Make* constructors (private tables) agree on every program of a
//    ground-truth corpus — per-call results, coverage block ids, crash
//    titles and module-state shapes — under both policies;
//  - isolation: state one kernel leaves behind (a bound port, TIME_WAIT
//    residue, a pooled handler, a sequence-bug prior) never shows up in
//    another kernel booted from the same tables;
//  - reset: every program run on one long-lived kernel behaves exactly
//    as on a kernel booted just for it, so Kernel::BeginProgram resets
//    everything a program can leave behind;
//  - concurrency: 8 threads booting and running the same seeded batch
//    each reproduce the serial result. Run this suite under
//    -fsanitize=thread to check the shared tables.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "drivers/corpus.h"
#include "drivers/model_runtime.h"
#include "drivers/model_spec.h"
#include "fuzzer/executor.h"
#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"
#include "util/rng.h"
#include "vkernel/kernel.h"
#include "vnet/inet.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

/// Ground-truth specs of every loaded module, devices and sockets alike.
SpecLibrary
GroundTruthLibrary()
{
  const Corpus& corpus = Corpus::Instance();
  SpecLibrary lib;
  lib.SetConsts(corpus.BuildIndex().BuildConstTable());
  for (const drivers::DeviceSpec* dev : corpus.LoadedDevices()) {
    lib.Add(drivers::GroundTruthDeviceSpec(*dev));
  }
  for (const drivers::SocketSpec& sock : corpus.sockets()) {
    lib.Add(drivers::GroundTruthSocketSpec(sock));
  }
  lib.Finalize();
  return lib;
}

size_t
FindCall(const SpecLibrary& lib, const std::string& full_name)
{
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    if (lib.syscalls()[i].FullName() == full_name) return i;
  }
  ADD_FAILURE() << "no syscall " << full_name;
  return 0;
}

Arg
Scalar(uint64_t v)
{
  Arg a;
  a.scalar = v;
  return a;
}

/// The corpus every case runs: generated programs over the whole
/// ground-truth library, plus the canonical TCP establish program
/// (socket, bind, listen, socket, connect, accept) and mutants of it, so
/// the vnet state machines reach ESTABLISHED and TIME_WAIT.
std::vector<Prog>
MakeCorpus(const SpecLibrary& lib, uint64_t seed)
{
  util::Rng rng(seed);
  Generator generator(&lib, &rng);
  std::vector<Prog> corpus;
  for (int i = 0; i < 300; ++i) {
    Prog prog = generator.Generate(6);
    if (!prog.empty()) corpus.push_back(std::move(prog));
  }

  auto ref = [](int call) {
    Arg a;
    a.kind = Arg::Kind::kResourceRef;
    a.ref_call = call;
    return a;
  };
  auto addr = [](uint16_t port) {
    Arg a;
    a.kind = Arg::Kind::kBuffer;
    a.bytes = {2, 0, static_cast<uint8_t>(port), 0, 0, 0, 0, 0};
    return a;
  };
  Arg len8 = Scalar(8);
  len8.len_of_param = 1;
  const size_t sock = FindCall(lib, "socket$tcp");
  Prog establish;
  establish.calls = {
      Call{sock, {Scalar(2), Scalar(1), Scalar(6)}},
      Call{FindCall(lib, "bind$tcp"), {ref(0), addr(5), len8}},
      Call{FindCall(lib, "listen$tcp"), {ref(0), Scalar(0)}},
      Call{sock, {Scalar(2), Scalar(1), Scalar(6)}},
      Call{FindCall(lib, "connect$tcp"), {ref(3), addr(5), len8}},
      Call{FindCall(lib, "accept$tcp"), {ref(0), Scalar(0), Scalar(0)}},
  };
  Mutator mutator(&lib, &generator, &rng);
  for (int i = 0; i < 100; ++i) {
    Prog mutant = establish;
    mutator.Mutate(&mutant);
    corpus.push_back(std::move(mutant));
  }
  corpus.push_back(std::move(establish));
  return corpus;
}

/// Boots `kernel` from private tables: the standalone constructors, in
/// RegisterAll's registration order.
void
BootStandalone(vkernel::KernelModel* kernel)
{
  const Corpus& corpus = Corpus::Instance();
  for (const drivers::DeviceSpec* dev : corpus.LoadedDevices()) {
    kernel->RegisterDevice(drivers::MakeModelDevice(dev));
  }
  for (const drivers::SocketSpec* sock : corpus.LoadedSockets()) {
    if (!sock->vnet) {
      kernel->RegisterSocketFamily(drivers::MakeModelSocketFamily(sock));
    } else if (sock->id == "tcp") {
      kernel->RegisterSocketFamily(vnet::MakeTcpFamily(sock));
    } else {
      kernel->RegisterSocketFamily(vnet::MakeUdpFamily(sock));
    }
  }
}

/// Everything observable about one program execution.
struct Outcome {
  std::string results;  ///< "retval/errno" per call slot.
  std::string end_shape;  ///< "files/sockets" open at end of program.
  std::vector<uint64_t> blocks;
  std::string crash;
  std::string module_state;
  size_t calls_executed = 0;
};

Outcome
RunOne(Executor* executor, const Prog& prog)
{
  vkernel::Coverage cov;
  ExecTrace trace;
  ExecResult res = executor->Run(prog, &cov, &trace);
  Outcome out;
  for (const vkernel::SyscallResult& r : trace.results) {
    out.results += std::to_string(r.retval) + "/" +
                   std::to_string(r.verrno) + " ";
  }
  out.end_shape = std::to_string(trace.end_shape.files_open) + "/" +
                  std::to_string(trace.end_shape.sockets_open);
  out.blocks = cov.SortedBlocks();
  out.crash = res.crashed ? res.crash_title : "";
  out.module_state = trace.module_state;
  out.calls_executed = res.calls_executed;
  return out;
}

void
ExpectSameOutcome(const Outcome& x, const Outcome& y, const std::string& at)
{
  EXPECT_EQ(x.results, y.results) << at;
  EXPECT_EQ(x.end_shape, y.end_shape) << at;
  EXPECT_EQ(x.blocks, y.blocks) << at;
  EXPECT_EQ(x.crash, y.crash) << at;
  EXPECT_EQ(x.module_state, y.module_state) << at;
  EXPECT_EQ(x.calls_executed, y.calls_executed) << at;
}

const vkernel::KernelPolicy kPolicies[] = {vkernel::KernelPolicy::Strict(),
                                           vkernel::KernelPolicy::Permissive()};

TEST(BootImageTest, ConcurrentBootsMatchTheSerialRun)
{
  // The threads start before anything else in this process has booted,
  // so they also race the one-time build of the shared tables.
  const SpecLibrary lib = GroundTruthLibrary();
  const std::vector<Prog> batch = MakeCorpus(lib, 29);

  struct BatchRun {
    std::vector<ExecResult> results;
    std::vector<uint64_t> blocks;
  };
  auto boot_and_run = [&](const vkernel::KernelPolicy& policy) {
    vkernel::Kernel kernel(policy);
    Corpus::Instance().RegisterAll(&kernel);
    Executor executor(&kernel, &lib);
    vkernel::Coverage cov;
    BatchRun r;
    r.results = executor.RunBatch(batch, &cov);
    r.blocks = cov.SortedBlocks();
    return r;
  };

  constexpr int kThreads = 8;
  std::vector<BatchRun> parallel(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { parallel[t] = boot_and_run(kPolicies[t % 2]); });
  }
  for (std::thread& t : threads) t.join();

  for (int p = 0; p < 2; ++p) {
    const BatchRun serial = boot_and_run(kPolicies[p]);
    ASSERT_EQ(serial.results.size(), batch.size());
    for (int t = p; t < kThreads; t += 2) {
      EXPECT_EQ(parallel[t].blocks, serial.blocks) << "thread " << t;
      ASSERT_EQ(parallel[t].results.size(), serial.results.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const ExecResult& a = parallel[t].results[i];
        const ExecResult& b = serial.results[i];
        EXPECT_EQ(a.crashed, b.crashed) << "thread " << t << " prog " << i;
        EXPECT_EQ(a.crash_title, b.crash_title) << "thread " << t;
        EXPECT_EQ(a.calls_executed, b.calls_executed) << "thread " << t;
        EXPECT_EQ(a.new_blocks, b.new_blocks) << "thread " << t;
      }
    }
  }
}

TEST(BootImageTest, SharedTablesMatchStandaloneConstructors)
{
  const SpecLibrary lib = GroundTruthLibrary();
  const std::vector<Prog> corpus = MakeCorpus(lib, 11);

  for (const vkernel::KernelPolicy& policy : kPolicies) {
    vkernel::Kernel shared(policy);
    vkernel::Kernel standalone(policy);
    Corpus::Instance().RegisterAll(&shared);
    BootStandalone(&standalone);
    ASSERT_EQ(shared.devices().size(), standalone.devices().size());
    ASSERT_EQ(shared.socket_families().size(),
              standalone.socket_families().size());

    Executor a(&shared, &lib);
    Executor b(&standalone, &lib);
    size_t crashes = 0;
    size_t stateful = 0;
    vkernel::Coverage total;
    for (size_t i = 0; i < corpus.size(); ++i) {
      const Outcome x = RunOne(&a, corpus[i]);
      const Outcome y = RunOne(&b, corpus[i]);
      ExpectSameOutcome(x, y, policy.name + " prog " + std::to_string(i));
      crashes += !x.crash.empty();
      stateful += !x.module_state.empty();
      for (uint64_t block : x.blocks) total.Hit(block);
    }
    // The corpus must actually reach drivers, crashes and vnet state.
    EXPECT_GT(total.Count(), 100u) << policy.name;
    EXPECT_GT(crashes, 0u) << policy.name;
    EXPECT_GT(stateful, 0u) << policy.name;
  }
}

TEST(BootImageTest, ProgramResetMatchesAFreshKernel)
{
  const SpecLibrary lib = GroundTruthLibrary();
  const std::vector<Prog> corpus = MakeCorpus(lib, 23);

  for (const vkernel::KernelPolicy& policy : kPolicies) {
    // One kernel runs the whole corpus back to back; the reference boots
    // a new kernel for every program.
    vkernel::Kernel reused(policy);
    Corpus::Instance().RegisterAll(&reused);
    Executor reused_exec(&reused, &lib);
    size_t stateful = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
      vkernel::Kernel fresh(policy);
      Corpus::Instance().RegisterAll(&fresh);
      Executor fresh_exec(&fresh, &lib);
      const Outcome x = RunOne(&reused_exec, corpus[i]);
      const Outcome y = RunOne(&fresh_exec, corpus[i]);
      ExpectSameOutcome(x, y, policy.name + " prog " + std::to_string(i));
      stateful += !x.module_state.empty();
    }
    // Programs must leave module state behind for the reset to clear.
    EXPECT_GT(stateful, 0u) << policy.name;
  }
}

TEST(BootImageTest, KernelStateNeverLeaksIntoAnotherKernel)
{
  const drivers::DeviceSpec* cec = Corpus::Instance().FindDevice("cec");
  ASSERT_NE(cec, nullptr);
  const drivers::IoctlSpec* transmit = nullptr;
  const drivers::IoctlSpec* receive = nullptr;
  for (const drivers::IoctlSpec& c : cec->primary.ioctls) {
    if (c.macro == "CEC_TRANSMIT") transmit = &c;
    if (c.macro == "CEC_RECEIVE") receive = &c;
  }
  ASSERT_NE(transmit, nullptr);
  ASSERT_NE(receive, nullptr);
  const drivers::StructLayout layout = drivers::ComputeLayout(
      *cec->FindStruct("cec_msg"), cec->structs);
  vkernel::Buffer msg;
  msg.bytes.assign(layout.total_size, 0);
  msg.WriteScalar(layout.Find("timeout")->offset, 4, 100);
  const uint64_t transmit_cmd = drivers::FullCommandValue(*cec, *transmit);
  const uint64_t receive_cmd = drivers::FullCommandValue(*cec, *receive);
  const std::vector<uint8_t> port5 = {2, 0, 5, 0, 0, 0, 0, 0};
  const std::vector<uint8_t> port9 = {2, 0, 9, 0, 0, 0, 0, 0};

  // Kernel A: a listener bound to port 5, a client bound to port 9 whose
  // active close leaves 9 in TIME_WAIT, a CEC file with the sequence
  // bug's prior command executed, and a closed CEC file in the pool.
  vkernel::Kernel a;
  Corpus::Instance().RegisterAll(&a);
  a.BeginProgram();
  vkernel::Coverage cov_a;
  vkernel::ExecContext ctx_a(&cov_a);
  const long listener = a.Socket(2, 1, 6, ctx_a).retval;
  ASSERT_TRUE(a.Bind(listener, vkernel::Buffer::View(port5), ctx_a).ok());
  ASSERT_TRUE(a.Listen(listener, ctx_a).ok());
  const long client = a.Socket(2, 1, 6, ctx_a).retval;
  ASSERT_TRUE(a.Bind(client, vkernel::Buffer::View(port9), ctx_a).ok());
  ASSERT_TRUE(a.Connect(client, vkernel::Buffer::View(port5), ctx_a).ok());
  const long server = a.Accept(listener, ctx_a).retval;
  ASSERT_TRUE(a.Close(client, ctx_a).ok());
  ASSERT_TRUE(a.Close(server, ctx_a).ok());
  const std::string a_shape = a.ModuleStateShape();
  EXPECT_NE(a_shape.find("tcp{bound=[5] tw=[9]}"), std::string::npos)
      << a_shape;

  const long primed = a.Openat("/dev/cec0", 0, ctx_a).retval;
  ASSERT_GE(primed, 0);
  vkernel::Buffer arg = msg;
  ASSERT_EQ(a.Ioctl(primed, transmit_cmd, &arg, ctx_a).raw(), 0);
  const long spare = a.Openat("/dev/cec0", 0, ctx_a).retval;
  const vkernel::FileHandler* pooled = a.LookupFd(spare);
  ASSERT_TRUE(a.Close(spare, ctx_a).ok());

  // Kernel B, booted from the same tables while A still holds all that.
  vkernel::Kernel b;
  Corpus::Instance().RegisterAll(&b);
  b.BeginProgram();
  vkernel::Coverage cov_b;
  vkernel::ExecContext ctx_b(&cov_b);
  EXPECT_EQ(b.ModuleStateShape(), "");
  const long s5 = b.Socket(2, 1, 6, ctx_b).retval;
  EXPECT_TRUE(b.Bind(s5, vkernel::Buffer::View(port5), ctx_b).ok());
  const long s9 = b.Socket(2, 1, 6, ctx_b).retval;
  // Strict refuses a TIME_WAIT port; B's namespace has no residue.
  EXPECT_TRUE(b.Bind(s9, vkernel::Buffer::View(port9), ctx_b).ok());

  const long fresh = b.Openat("/dev/cec0", 0, ctx_b).retval;
  ASSERT_GE(fresh, 0);
  EXPECT_NE(b.LookupFd(fresh), pooled);
  arg = msg;
  EXPECT_EQ(b.Ioctl(fresh, receive_cmd, &arg, ctx_b).raw(), 0);
  EXPECT_FALSE(ctx_b.crashed()) << ctx_b.crash_title();

  // A's own state is intact — B's boot, program reset and binds did not
  // touch it: its port namespace is unchanged, its primed file still
  // fires the bug, and its next open reuses the pooled handler.
  EXPECT_EQ(a.ModuleStateShape(), a_shape);
  arg = msg;
  a.Ioctl(primed, receive_cmd, &arg, ctx_a);
  EXPECT_TRUE(ctx_a.crashed());
  EXPECT_EQ(ctx_a.crash_title(),
            "KASAN: slab-use-after-free Read in cec_queue_msg_fh");
  EXPECT_EQ(a.LookupFd(a.Openat("/dev/cec0", 0, ctx_a).retval), pooled);
}

}  // namespace
}  // namespace kernelgpt::fuzzer
