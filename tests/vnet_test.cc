// State-machine battery for the vnet TCP/UDP stack:
//  - a legal-transition walk covers every TCP transition block and never
//    crashes;
//  - illegal transitions raise the "state-machine violation" crash class
//    with deterministic titles (distinct from errno returns);
//  - ephemeral-port allocation is deterministic across programs;
//  - accept-backlog overflow refuses connections and claims its edge
//    block;
//  - the per-program reset clears the port namespace and socket state
//    completely;
//  - each net_* policy knob changes only its own behaviour;
//  - module state shapes are slot-normalized (identical across fd
//    layouts);
//  - ground-truth net campaigns reach ESTABLISHED/TIME_WAIT coverage and
//    produce minimized state-machine-violation reproducers,
//    reproducibly at 1 and at 4 workers;
//  - a Session over net corpora is bit-identical across a mid-campaign
//    Save/Resume.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/distiller.h"
#include "fuzzer/executor.h"
#include "fuzzer/generator.h"
#include "fuzzer/orchestrator.h"
#include "fuzzer/session.h"
#include "util/rng.h"
#include "vkernel/kernel.h"
#include "vnet/inet.h"
#include "vnet/tcp_state.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class VnetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    consts_ = new syzlang::ConstTable(
        Corpus::Instance().BuildIndex().BuildConstTable());
  }
  static void TearDownTestSuite() {
    delete consts_;
    consts_ = nullptr;
  }

  /// Ground-truth specs of the two vnet-backed corpus sockets only —
  /// the net campaign surface.
  static SpecLibrary NetLibrary() {
    SpecLibrary lib;
    lib.SetConsts(*consts_);
    lib.Add(drivers::GroundTruthSocketSpec(*Corpus::Instance().FindSocket("tcp")));
    lib.Add(drivers::GroundTruthSocketSpec(*Corpus::Instance().FindSocket("udp")));
    lib.Finalize();
    return lib;
  }

  static void Boot(vkernel::KernelModel* kernel) {
    Corpus::Instance().RegisterAll(kernel);
  }

  static drivers::BlockLayout TcpBlocks() {
    return vnet::TcpBlockLayout(*Corpus::Instance().FindSocket("tcp"));
  }
  static drivers::BlockLayout UdpBlocks() {
    return vnet::UdpBlockLayout(*Corpus::Instance().FindSocket("udp"));
  }

  /// Packed sockaddr_tcp/sockaddr_udp: family u16, port u16, addr0 u32.
  static std::vector<uint8_t> Addr(uint16_t port) {
    return {2, 0, static_cast<uint8_t>(port & 0xff),
            static_cast<uint8_t>(port >> 8), 0, 0, 0, 0};
  }
  /// Packed tcp_int_opt/udp_int_opt payload.
  static std::vector<uint8_t> I32(uint32_t v) {
    return {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8),
            static_cast<uint8_t>(v >> 16), static_cast<uint8_t>(v >> 24)};
  }

  static std::string ScratchDir(const std::string& leaf) {
    const std::string dir =
        ::testing::TempDir() + "kernelgpt_vnet_test/" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
  }

  /// Index of `full_name` ("bind$tcp") in `lib`; asserts on miss.
  static size_t FindCall(const SpecLibrary& lib, const std::string& full_name) {
    for (size_t i = 0; i < lib.syscalls().size(); ++i) {
      if (lib.syscalls()[i].FullName() == full_name) return i;
    }
    ADD_FAILURE() << "no syscall " << full_name;
    return 0;
  }

  static Arg Scalar(uint64_t v) {
    Arg a;
    a.scalar = v;
    return a;
  }
  static Arg Ref(int call) {
    Arg a;
    a.kind = Arg::Kind::kResourceRef;
    a.ref_call = call;
    return a;
  }
  static Arg Buf(std::vector<uint8_t> bytes,
                 syzlang::Dir dir = syzlang::Dir::kIn) {
    Arg a;
    a.kind = Arg::Kind::kBuffer;
    a.bytes = std::move(bytes);
    a.dir = dir;
    return a;
  }
  static Arg Len(uint64_t v, int of_param) {
    Arg a = Scalar(v);
    a.len_of_param = of_param;
    return a;
  }

  /// Ground-truth seed programs exercising the stack's happy paths: a
  /// full TCP establish + accept, a UDP datagram exchange, and a
  /// backlog-1 listener driven past capacity. Campaigns replay these to
  /// prime coverage and mutate them into the surrounding state space.
  static std::vector<Prog> NetSeeds(const SpecLibrary& lib) {
    const size_t tcp_socket = FindCall(lib, "socket$tcp");
    const size_t tcp_bind = FindCall(lib, "bind$tcp");
    const size_t tcp_listen = FindCall(lib, "listen$tcp");
    const size_t tcp_connect = FindCall(lib, "connect$tcp");
    const size_t tcp_accept = FindCall(lib, "accept$tcp");
    const size_t tcp_backlog = FindCall(lib, "setsockopt$tcp_TCP_BACKLOG");
    const size_t udp_socket = FindCall(lib, "socket$udp");
    const size_t udp_bind = FindCall(lib, "bind$udp");
    const size_t udp_sendto = FindCall(lib, "sendto$udp");
    const size_t udp_recvfrom = FindCall(lib, "recvfrom$udp");

    auto sock_call = [](size_t idx, uint64_t type, uint64_t proto) {
      return Call{idx, {Scalar(2), Scalar(type), Scalar(proto)}};
    };
    auto addr_call = [](size_t idx, int fd, uint16_t port) {
      return Call{idx, {Ref(fd), Buf(Addr(port)), Len(8, 1)}};
    };

    std::vector<Prog> seeds;
    // Establish + accept: covers the whole legal transition walk once
    // EndProgram tears the pair down.
    Prog establish;
    establish.calls = {
        sock_call(tcp_socket, 1, 6),
        addr_call(tcp_bind, 0, 5),
        Call{tcp_listen, {Ref(0), Scalar(0)}},
        sock_call(tcp_socket, 1, 6),
        addr_call(tcp_connect, 3, 5),
        Call{tcp_accept, {Ref(0), Scalar(0), Scalar(0)}},
    };
    seeds.push_back(std::move(establish));

    // UDP datagram flow.
    Prog datagram;
    datagram.calls = {
        sock_call(udp_socket, 2, 17),
        addr_call(udp_bind, 0, 4),
        sock_call(udp_socket, 2, 17),
        Call{udp_sendto,
             {Ref(2), Buf({1, 2}), Len(2, 1), Scalar(0), Buf(Addr(4)),
              Len(8, 4)}},
        Call{udp_recvfrom,
             {Ref(0), Buf(std::vector<uint8_t>(16), syzlang::Dir::kOut),
              Len(16, 1)}},
    };
    seeds.push_back(std::move(datagram));

    // Backlog-1 listener driven past capacity.
    Prog overflow;
    overflow.calls = {
        sock_call(tcp_socket, 1, 6),
        Call{tcp_backlog,
             {Ref(0), Scalar(6), Scalar(14), Buf(I32(1)), Len(4, 3)}},
        addr_call(tcp_bind, 0, 7),
        Call{tcp_listen, {Ref(0), Scalar(0)}},
        sock_call(tcp_socket, 1, 6),
        addr_call(tcp_connect, 4, 7),
        sock_call(tcp_socket, 1, 6),
        addr_call(tcp_connect, 6, 7),
    };
    seeds.push_back(std::move(overflow));
    return seeds;
  }

  static bool HasViolation(const std::map<std::string, int>& crashes) {
    for (const auto& [title, count] : crashes) {
      if (title.rfind(vnet::kViolationPrefix, 0) == 0 && count > 0) {
        return true;
      }
    }
    return false;
  }

  static syzlang::ConstTable* consts_;
};

syzlang::ConstTable* VnetTest::consts_ = nullptr;

/// One strict kernel booted with the full corpus, with a program begun
/// and its own coverage sink — the direct-drive harness.
struct NetKernel {
  vkernel::Kernel kernel;
  vkernel::Coverage cov;
  vkernel::ExecContext ctx{&cov};

  explicit NetKernel(
      vkernel::KernelPolicy policy = vkernel::KernelPolicy::Strict())
      : kernel(std::move(policy)) {
    Corpus::Instance().RegisterAll(&kernel);
    kernel.BeginProgram();
  }
  long Sock(uint64_t type, uint64_t proto) {
    vkernel::SyscallResult r = kernel.Socket(2, type, proto, ctx);
    EXPECT_TRUE(r.ok()) << "socket: errno " << r.verrno;
    return r.retval;
  }
};

// -- Direct state-machine drive ---------------------------------------------

TEST_F(VnetTest, LegalTransitionWalkCoversEveryTransition)
{
  NetKernel k;
  const std::vector<uint8_t> addr = Addr(5);
  const vkernel::Buffer baddr = vkernel::Buffer::View(addr);

  long s = k.Sock(1, 6);
  long c = k.Sock(1, 6);
  EXPECT_TRUE(k.kernel.Bind(s, baddr, k.ctx).ok());
  EXPECT_TRUE(k.kernel.Listen(s, k.ctx).ok());
  EXPECT_TRUE(k.kernel.Connect(c, baddr, k.ctx).ok());
  vkernel::SyscallResult acc = k.kernel.Accept(s, k.ctx);
  ASSERT_TRUE(acc.ok()) << "accept: errno " << acc.verrno;
  long a = acc.retval;

  // Data flows across the loopback pair.
  std::vector<uint8_t> payload = {1, 2, 3, 4};
  vkernel::Buffer empty;
  EXPECT_EQ(k.kernel
                .SendTo(c, vkernel::Buffer::View(payload), empty, k.ctx)
                .retval,
            4);
  vkernel::Buffer out;
  EXPECT_EQ(k.kernel.RecvFrom(a, &out, k.ctx).retval, 4);
  EXPECT_EQ(out.size(), 4u);

  // Orderly bidirectional teardown: c FINs first, then a — walking
  // FIN_WAIT1/2 -> TIME_WAIT on one side and CLOSE_WAIT -> LAST_ACK ->
  // CLOSED on the other.
  EXPECT_TRUE(k.kernel.Close(c, k.ctx).ok());
  EXPECT_TRUE(k.kernel.Close(a, k.ctx).ok());
  EXPECT_TRUE(k.kernel.Close(s, k.ctx).ok());
  EXPECT_FALSE(k.ctx.crashed()) << k.ctx.crash_title();

  const drivers::BlockLayout blocks = TcpBlocks();
  const char* walk[] = {
      "CLOSED->LISTEN",        "CLOSED->SYN_SENT",
      "SYN_SENT->ESTABLISHED", "LISTEN->SYN_RCVD",
      "SYN_RCVD->ESTABLISHED", "ESTABLISHED->FIN_WAIT1",
      "FIN_WAIT1->FIN_WAIT2",  "FIN_WAIT2->TIME_WAIT",
      "ESTABLISHED->CLOSE_WAIT", "CLOSE_WAIT->LAST_ACK",
      "LAST_ACK->CLOSED",
  };
  for (const char* t : walk) {
    EXPECT_TRUE(k.cov.Contains(blocks.IdOf("trans", t, 0)))
        << "transition not covered: " << t;
  }
}

TEST_F(VnetTest, IllegalTransitionRaisesStateMachineViolationCrash)
{
  NetKernel k;
  const std::vector<uint8_t> addr = Addr(3);
  long s = k.Sock(1, 6);
  EXPECT_TRUE(k.kernel.Bind(s, vkernel::Buffer::View(addr), k.ctx).ok());
  EXPECT_TRUE(k.kernel.Listen(s, k.ctx).ok());

  // connect() on a listening socket is not an errno return — it is the
  // new crash class, with a deterministic title naming op and state.
  vkernel::SyscallResult r =
      k.kernel.Connect(s, vkernel::Buffer::View(addr), k.ctx);
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(k.ctx.crashed());
  EXPECT_EQ(k.ctx.crash_title(),
            std::string(vnet::kViolationPrefix) + "tcp connect in LISTEN");
  EXPECT_TRUE(k.cov.Contains(TcpBlocks().IdOf("edge", "violation", 0)));
}

TEST_F(VnetTest, UdpReleaseWhileCorkedIsViolation)
{
  NetKernel k;
  const std::vector<uint8_t> dest = Addr(4);
  long rx = k.Sock(2, 17);
  long tx = k.Sock(2, 17);
  EXPECT_TRUE(k.kernel.Bind(rx, vkernel::Buffer::View(dest), k.ctx).ok());

  // Cork the sender, buffer one datagram, and close without uncorking:
  // data loss the stack reports as a state-machine violation.
  std::vector<uint8_t> on = I32(1);
  EXPECT_TRUE(
      k.kernel.SetSockOpt(tx, 17, 1, vkernel::Buffer::View(on), k.ctx).ok());
  std::vector<uint8_t> payload = {9, 9};
  EXPECT_EQ(k.kernel
                .SendTo(tx, vkernel::Buffer::View(payload),
                        vkernel::Buffer::View(dest), k.ctx)
                .retval,
            2);
  EXPECT_TRUE(k.cov.Contains(UdpBlocks().IdOf("edge", "send-corked", 0)));
  EXPECT_TRUE(k.kernel.Close(tx, k.ctx).ok());
  ASSERT_TRUE(k.ctx.crashed());
  EXPECT_EQ(k.ctx.crash_title(),
            std::string(vnet::kViolationPrefix) +
                "udp release while corked with pending data");
}

TEST_F(VnetTest, EphemeralPortAllocationIsDeterministicAcrossPrograms)
{
  NetKernel k;
  const std::vector<uint8_t> wildcard = Addr(0);
  auto run_program = [&]() {
    for (int i = 0; i < 3; ++i) {
      long fd = k.Sock(1, 6);
      EXPECT_TRUE(
          k.kernel.Bind(fd, vkernel::Buffer::View(wildcard), k.ctx).ok());
    }
    return k.kernel.ModuleStateShape();
  };

  std::string first = run_program();
  EXPECT_NE(first.find("tcp"), std::string::npos) << first;
  k.kernel.EndProgram(k.ctx);
  k.kernel.BeginProgram();
  std::string second = run_program();
  k.kernel.EndProgram(k.ctx);

  // The allocator reseeds on program reset: identical programs draw
  // identical ephemeral ports, observable in the state shape.
  EXPECT_EQ(first, second);
}

TEST_F(VnetTest, BacklogOverflowRefusesExtraConnections)
{
  NetKernel k;
  const std::vector<uint8_t> addr = Addr(7);
  long s = k.Sock(1, 6);
  std::vector<uint8_t> one = I32(1);
  EXPECT_TRUE(
      k.kernel.SetSockOpt(s, 6, 14, vkernel::Buffer::View(one), k.ctx).ok());
  EXPECT_TRUE(k.kernel.Bind(s, vkernel::Buffer::View(addr), k.ctx).ok());
  EXPECT_TRUE(k.kernel.Listen(s, k.ctx).ok());

  long c1 = k.Sock(1, 6);
  long c2 = k.Sock(1, 6);
  EXPECT_TRUE(k.kernel.Connect(c1, vkernel::Buffer::View(addr), k.ctx).ok());
  vkernel::SyscallResult r =
      k.kernel.Connect(c2, vkernel::Buffer::View(addr), k.ctx);
  EXPECT_EQ(r.verrno, vkernel::kECONNREFUSED);
  EXPECT_TRUE(
      k.cov.Contains(TcpBlocks().IdOf("edge", "connect-backlog-overflow", 0)));
  EXPECT_FALSE(k.ctx.crashed());
}

TEST_F(VnetTest, ProgramResetIsPure)
{
  NetKernel k;
  const std::vector<uint8_t> addr = Addr(5);

  for (int round = 0; round < 2; ++round) {
    // Fresh program: the previous round's binding and listener must be
    // fully gone or re-binding port 5 would conflict.
    EXPECT_EQ(k.kernel.ModuleStateShape(), "") << "round " << round;
    long s = k.Sock(1, 6);
    EXPECT_TRUE(k.kernel.Bind(s, vkernel::Buffer::View(addr), k.ctx).ok())
        << "round " << round;
    EXPECT_TRUE(k.kernel.Listen(s, k.ctx).ok());
    k.kernel.EndProgram(k.ctx);
    k.kernel.BeginProgram();
  }
  k.kernel.EndProgram(k.ctx);
  EXPECT_FALSE(k.ctx.crashed()) << k.ctx.crash_title();
}

// Each net_* knob is read on its own. Strict and Permissive set all
// three together, so only a kernel with exactly one knob set catches a
// check that reads the wrong one: it accepts its own knob's sequences and
// refuses every other sequence with strict's errno.
TEST_F(VnetTest, EachNetKnobIsReadOnItsOwn)
{
  using vkernel::KernelPolicy;
  const std::vector<uint8_t> port5 = Addr(5);
  const std::vector<uint8_t> port9 = Addr(9);
  const vkernel::Buffer at5 = vkernel::Buffer::View(port5);
  const vkernel::Buffer at9 = vkernel::Buffer::View(port9);

  struct Sequence {
    const char* name;
    bool KernelPolicy::*knob;
    long strict_errno;
    std::function<vkernel::SyscallResult(NetKernel&)> last_call;
  };
  const std::vector<Sequence> sequences = {
      {"tcp re-listen", &KernelPolicy::net_relisten_ok, vkernel::kEINVAL,
       [&](NetKernel& k) {
         const long s = k.Sock(1, 6);
         EXPECT_TRUE(k.kernel.Bind(s, at5, k.ctx).ok());
         EXPECT_TRUE(k.kernel.Listen(s, k.ctx).ok());
         return k.kernel.Listen(s, k.ctx);
       }},
      {"tcp re-bind", &KernelPolicy::net_rebind_ok, vkernel::kEINVAL,
       [&](NetKernel& k) {
         const long s = k.Sock(1, 6);
         EXPECT_TRUE(k.kernel.Bind(s, at5, k.ctx).ok());
         return k.kernel.Bind(s, at9, k.ctx);
       }},
      {"udp re-bind", &KernelPolicy::net_rebind_ok, vkernel::kEINVAL,
       [&](NetKernel& k) {
         const long s = k.Sock(2, 17);
         EXPECT_TRUE(k.kernel.Bind(s, at5, k.ctx).ok());
         return k.kernel.Bind(s, at9, k.ctx);
       }},
      {"tcp bind to a TIME_WAIT port", &KernelPolicy::net_reuse_timewait_ok,
       vkernel::kEADDRINUSE,
       [&](NetKernel& k) {
         // The client's active close leaves its port 9 in TIME_WAIT.
         const long listener = k.Sock(1, 6);
         EXPECT_TRUE(k.kernel.Bind(listener, at5, k.ctx).ok());
         EXPECT_TRUE(k.kernel.Listen(listener, k.ctx).ok());
         const long client = k.Sock(1, 6);
         EXPECT_TRUE(k.kernel.Bind(client, at9, k.ctx).ok());
         EXPECT_TRUE(k.kernel.Connect(client, at5, k.ctx).ok());
         const long server = k.kernel.Accept(listener, k.ctx).retval;
         EXPECT_TRUE(k.kernel.Close(client, k.ctx).ok());
         EXPECT_TRUE(k.kernel.Close(server, k.ctx).ok());
         return k.kernel.Bind(k.Sock(1, 6), at9, k.ctx);
       }},
  };

  const std::pair<const char*, bool KernelPolicy::*> knobs[] = {
      {"net_relisten_ok", &KernelPolicy::net_relisten_ok},
      {"net_rebind_ok", &KernelPolicy::net_rebind_ok},
      {"net_reuse_timewait_ok", &KernelPolicy::net_reuse_timewait_ok},
  };
  for (const auto& [knob_name, knob] : knobs) {
    KernelPolicy policy = KernelPolicy::Strict();
    policy.*knob = true;
    NetKernel k(policy);
    for (const Sequence& seq : sequences) {
      SCOPED_TRACE(std::string(knob_name) + " kernel, " + seq.name);
      k.kernel.BeginProgram();
      const vkernel::SyscallResult rc = seq.last_call(k);
      if (seq.knob == knob) {
        EXPECT_TRUE(rc.ok()) << "errno " << rc.verrno;
      } else {
        EXPECT_EQ(rc.verrno, seq.strict_errno);
      }
      k.kernel.EndProgram(k.ctx);
      EXPECT_FALSE(k.ctx.crashed()) << k.ctx.crash_title();
    }
  }
}

TEST_F(VnetTest, ModuleStateShapeIsSlotNormalizedAcrossFdLayouts)
{
  // Strict and permissive install descriptors at different numeric
  // bases; the state shape walks slots, so identical programs yield
  // byte-identical shapes — the DiffRunner's non-divergence guarantee.
  auto drive = [&](vkernel::KernelModel* kernel) {
    vkernel::Coverage cov;
    vkernel::ExecContext ctx(&cov);
    Corpus::Instance().RegisterAll(kernel);
    kernel->BeginProgram();
    const std::vector<uint8_t> addr = Addr(6);
    long s = kernel->Socket(2, 1, 6, ctx).retval;
    EXPECT_TRUE(kernel->Bind(s, vkernel::Buffer::View(addr), ctx).ok());
    EXPECT_TRUE(kernel->Listen(s, ctx).ok());
    return kernel->ModuleStateShape();
  };
  vkernel::Kernel strict;
  vkernel::Kernel permissive(vkernel::KernelPolicy::Permissive());
  std::string a = drive(&strict);
  std::string b = drive(&permissive);
  EXPECT_NE(a, "");
  EXPECT_EQ(a, b);
}

// -- Campaign-level properties ----------------------------------------------

TEST_F(VnetTest, CampaignReachesDeepStatesAndMinimizesViolations)
{
  SpecLibrary lib = NetLibrary();
  OrchestratorOptions options;
  options.campaign.seed = 77;
  options.campaign.program_budget = 4000;
  options.campaign.seed_corpus = NetSeeds(lib);
  options.sync_interval = 200;

  const drivers::BlockLayout blocks = TcpBlocks();
  const uint64_t established =
      blocks.IdOf("trans", "SYN_SENT->ESTABLISHED", 0);
  const uint64_t time_wait = blocks.IdOf("trans", "FIN_WAIT2->TIME_WAIT", 0);

  for (int workers : {1, 4}) {
    options.num_workers = workers;
    OrchestratorResult first = RunShardedCampaign(lib, Boot, options);
    OrchestratorResult second = RunShardedCampaign(lib, Boot, options);

    // Deterministic replay at this worker count.
    EXPECT_EQ(first.crashes, second.crashes) << workers << " workers";
    EXPECT_EQ(first.coverage.blocks(), second.coverage.blocks())
        << workers << " workers";
    EXPECT_EQ(first.programs_executed, second.programs_executed);
    EXPECT_EQ(first.corpus_size, second.corpus_size);

    // The campaign drives the stack deep: real established pairs, full
    // teardown into TIME_WAIT, and at least one state-machine violation.
    EXPECT_TRUE(first.coverage.Contains(established))
        << workers << " workers never reached ESTABLISHED";
    EXPECT_TRUE(first.coverage.Contains(time_wait))
        << workers << " workers never reached TIME_WAIT";
    EXPECT_TRUE(HasViolation(first.crashes)) << workers << " workers";

    // Distillation replays the merged corpus and shrinks one reproducer
    // per crash title — the violation class flows through end to end.
    Distiller distiller(&lib, Boot, {});
    DistillResult distilled = distiller.Distill(first.corpus);
    bool minimized_violation = false;
    for (const auto& [title, prog] : distilled.crash_reproducers) {
      if (title.rfind(vnet::kViolationPrefix, 0) != 0) continue;
      minimized_violation = true;
      EXPECT_FALSE(prog.empty()) << title;
    }
    EXPECT_TRUE(minimized_violation)
        << workers << " workers: no state-machine-violation reproducer";
  }
}

TEST_F(VnetTest, SessionSaveResumeIsBitIdenticalOverNetCorpora)
{
  SpecLibrary lib = NetLibrary();
  OrchestratorOptions round;
  round.campaign.program_budget = 3000;
  round.num_workers = 2;
  round.sync_interval = 200;
  SessionOptions base =
      SessionOptions().WithSeed(99).WithRounds(2).WithOrchestrator(round);

  // The suite corpus doubles as round 0's seed corpus (carry_corpus), so
  // pre-populating it with the ground-truth seeds makes every session
  // start from the same primed state.
  const std::vector<Prog> seeds = NetSeeds(lib);

  Session straight(base, Boot);
  ASSERT_TRUE(straight.RegisterSuite("net", &lib).ok());
  straight.Find("net")->corpus = seeds;
  ASSERT_TRUE(straight.Run().ok());

  const std::string dir = ScratchDir("net_resume");
  Session first(SessionOptions(base).WithRounds(1), Boot);
  ASSERT_TRUE(first.RegisterSuite("net", &lib).ok());
  first.Find("net")->corpus = seeds;
  ASSERT_TRUE(first.Run().ok());
  ASSERT_TRUE(first.Save(dir).ok());

  Session resumed(SessionOptions(base).WithRounds(1), Boot);
  ASSERT_TRUE(resumed.RegisterSuite("net", &lib).ok());
  ASSERT_TRUE(resumed.Resume(dir).ok());
  ASSERT_TRUE(resumed.Run().ok());

  const SuiteState* a = straight.Find("net");
  const SuiteState* b = resumed.Find("net");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->coverage.blocks(), b->coverage.blocks());
  EXPECT_EQ(a->crashes, b->crashes);
  EXPECT_EQ(a->programs_executed, b->programs_executed);
  ASSERT_EQ(a->corpus.size(), b->corpus.size());
  for (size_t i = 0; i < a->corpus.size(); ++i) {
    EXPECT_EQ(HashProg(a->corpus[i]), HashProg(b->corpus[i])) << i;
  }
  ASSERT_EQ(a->crash_reproducers.size(), b->crash_reproducers.size());
  for (const auto& [title, prog] : a->crash_reproducers) {
    auto it = b->crash_reproducers.find(title);
    ASSERT_NE(it, b->crash_reproducers.end()) << title;
    EXPECT_EQ(HashProg(prog), HashProg(it->second)) << title;
  }

  // The resumed session carries the acceptance-level findings.
  EXPECT_TRUE(b->coverage.Contains(
      TcpBlocks().IdOf("trans", "SYN_SENT->ESTABLISHED", 0)));
  EXPECT_TRUE(HasViolation(b->crashes));
}

}  // namespace
}  // namespace kernelgpt::fuzzer
