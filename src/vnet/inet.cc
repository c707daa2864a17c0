#include "vnet/inet.h"

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "vkernel/kernel.h"
#include "vnet/ports.h"
#include "vnet/tcp_state.h"

namespace kernelgpt::vnet {

using drivers::BlockLayout;
using drivers::CheckSpec;
using drivers::SocketOpSpec;
using drivers::SocketSpec;
using drivers::SockOptSpec;
using drivers::StructLayout;
using vkernel::Buffer;
using vkernel::ExecContext;
using vkernel::KernelModel;

namespace {

// ---------------------------------------------------------------------------
// Layout extension tuples
// ---------------------------------------------------------------------------
// Claimed in this fixed order after the spec's canonical ForSocket walk,
// so the runtime, tests, and the experiment harness resolve identical
// dense ids (see BlockLayout::Extend).

struct TransitionTuple {
  TcpState from;
  TcpState to;
};

constexpr TransitionTuple kTcpTransitions[] = {
    {TcpState::kClosed, TcpState::kListen},
    {TcpState::kClosed, TcpState::kSynSent},
    {TcpState::kSynSent, TcpState::kEstablished},
    {TcpState::kListen, TcpState::kSynRcvd},
    {TcpState::kSynRcvd, TcpState::kEstablished},
    {TcpState::kEstablished, TcpState::kFinWait1},
    {TcpState::kFinWait1, TcpState::kFinWait2},
    {TcpState::kFinWait2, TcpState::kTimeWait},
    {TcpState::kEstablished, TcpState::kCloseWait},
    {TcpState::kCloseWait, TcpState::kLastAck},
    {TcpState::kLastAck, TcpState::kClosed},
};

std::string
TransitionDetail(const TransitionTuple& t)
{
  return std::string(TcpStateName(t.from)) + "->" + TcpStateName(t.to);
}

/// TCP edge blocks: behaviour corners beyond plain state transitions.
enum TcpEdge {
  kTcpBindEphemeral,
  kTcpBindConflict,
  kTcpBindTimewaitRefused,
  kTcpBindTimewaitReused,
  kTcpBindRebound,
  kTcpListenAgain,
  kTcpListenAutobind,
  kTcpConnectAutobind,
  kTcpConnectRefused,
  kTcpConnectBacklogOverflow,
  kTcpSendReset,
  kTcpSendFlowControl,
  kTcpRecvEof,
  kTcpViolation,
  kTcpEdgeCount,
};

constexpr const char* kTcpEdgeNames[kTcpEdgeCount] = {
    "bind-ephemeral",
    "bind-conflict",
    "bind-timewait-refused",
    "bind-timewait-reused",
    "bind-rebound",
    "listen-again",
    "listen-autobind",
    "connect-autobind",
    "connect-refused",
    "connect-backlog-overflow",
    "send-reset",
    "send-flow-control",
    "recv-eof",
    "violation",
};

enum UdpEdge {
  kUdpBindEphemeral,
  kUdpBindConflict,
  kUdpBindRebound,
  kUdpConnectDisconnect,
  kUdpSendNoAddr,
  kUdpSendNoReceiver,
  kUdpSendDrop,
  kUdpSendCorked,
  kUdpUncorkFlush,
  kUdpViolation,
  kUdpEdgeCount,
};

constexpr const char* kUdpEdgeNames[kUdpEdgeCount] = {
    "bind-ephemeral",
    "bind-conflict",
    "bind-rebound",
    "connect-disconnect",
    "send-noaddr",
    "send-noreceiver",
    "send-drop",
    "send-corked",
    "uncork-flush",
    "violation",
};

// ---------------------------------------------------------------------------
// Spec-check evaluation (mirrors model_runtime's CheckPasses)
// ---------------------------------------------------------------------------

uint64_t
ReadField(const Buffer& buf, const StructLayout& layout,
          const std::string& field)
{
  const drivers::FieldLayout* fl = layout.Find(field);
  if (!fl) return 0;
  return buf.ReadScalar(fl->offset, fl->size > 8 ? 8 : fl->size);
}

bool
CheckOk(const CheckSpec& check, const Buffer& buf, const StructLayout& layout)
{
  uint64_t raw = ReadField(buf, layout, check.field);
  switch (check.kind) {
    case CheckSpec::Kind::kRange: {
      int64_t v = static_cast<int64_t>(raw);
      return v >= check.min && v <= check.max;
    }
    case CheckSpec::Kind::kEquals:
      return raw == check.value;
    case CheckSpec::Kind::kNonZero:
      return raw != 0;
    case CheckSpec::Kind::kLenBound:
      return true;  // Not used by the vnet specs.
  }
  return false;
}

/// One socket-level op with its precomputed dense blocks, mirroring
/// model_runtime's OpRuntime so vnet claims the same ids the spec's
/// declarative runtime would.
struct OpRt {
  const SocketOpSpec* spec = nullptr;
  uint64_t op_block = 0;
  std::vector<uint64_t> check_blocks;
  std::vector<uint64_t> deep_blocks;
};

OpRt
BuildOpRt(const BlockLayout& blocks, const char* op, const SocketOpSpec& spec)
{
  OpRt rt;
  rt.spec = &spec;
  rt.op_block = blocks.IdOf("op", op, 0);
  uint32_t idx = 1;
  for (const CheckSpec& check : spec.checks) {
    rt.check_blocks.push_back(
        blocks.IdOf(std::string("op-check-") + op, check.field, idx++));
  }
  for (int i = 0; i < spec.deep_blocks; ++i) {
    rt.deep_blocks.push_back(blocks.IdOf(std::string("op-deep-") + op, "",
                                         static_cast<uint32_t>(i)));
  }
  return rt;
}

/// One sockopt with its SET_/GET_ pseudo-command blocks and payload
/// layout; the function-table slot (sock_ops index) is bound by the
/// owning family against its static dispatch table.
struct OptRt {
  const SockOptSpec* opt = nullptr;
  StructLayout layout;
  uint64_t set_block = 0;
  uint64_t get_block = 0;
  std::vector<uint64_t> set_checks;
  std::vector<uint64_t> set_deep;
  std::vector<uint64_t> get_deep;
  int ops_index = -1;  ///< Row in the family's sock_ops table.
};

OptRt
BuildOptRt(const BlockLayout& blocks, const SockOptSpec& opt,
           const SocketSpec& spec)
{
  OptRt rt;
  rt.opt = &opt;
  const drivers::StructSpec* arg = spec.FindStruct(opt.arg_struct);
  if (arg) rt.layout = drivers::ComputeLayout(*arg, spec.structs);
  rt.set_block = blocks.IdOf("cmd", "SET_" + opt.macro, 0);
  rt.get_block = blocks.IdOf("cmd", "GET_" + opt.macro, 0);
  for (uint32_t i = 1; i <= opt.checks.size(); ++i) {
    rt.set_checks.push_back(blocks.IdOf("check", "SET_" + opt.macro, i));
  }
  for (int i = 0; i < opt.deep_blocks; ++i) {
    rt.set_deep.push_back(
        blocks.IdOf("deep", "SET_" + opt.macro, static_cast<uint32_t>(i)));
    rt.get_deep.push_back(
        blocks.IdOf("deep", "GET_" + opt.macro, static_cast<uint32_t>(i)));
  }
  return rt;
}

/// The tables both vnet families read, built once per spec: the addr
/// layout, the socket-level op blocks, each sockopt's blocks bound to
/// its row of the family's static sock_ops table, and the family's edge
/// blocks. Never mutated after FillInetTables, so kernels on different
/// threads share one copy.
struct InetTables {
  const SocketSpec* spec = nullptr;
  BlockLayout blocks;
  uint64_t create_block = 0;
  StructLayout addr_layout;
  bool have_addr = false;
  OpRt bind, connect, sendto, recvfrom, listen, accept;
  std::vector<OptRt> opts;
  std::vector<uint64_t> edges;  ///< Indexed by TcpEdge / UdpEdge.
};

template <typename Ops, size_t kOps, size_t kEdges>
void
FillInetTables(InetTables* t, const SocketSpec& spec, BlockLayout blocks,
               const Ops (&sock_ops)[kOps],
               const char* const (&edge_names)[kEdges])
{
  t->spec = &spec;
  t->blocks = std::move(blocks);
  t->create_block = t->blocks.IdOf("create", "", 0);
  if (const drivers::StructSpec* addr = spec.FindStruct(spec.addr_struct)) {
    t->addr_layout = drivers::ComputeLayout(*addr, spec.structs);
    t->have_addr = true;
  }
  t->bind = BuildOpRt(t->blocks, "bind", spec.bind);
  t->connect = BuildOpRt(t->blocks, "connect", spec.connect);
  t->sendto = BuildOpRt(t->blocks, "sendto", spec.sendto);
  t->recvfrom = BuildOpRt(t->blocks, "recvfrom", spec.recvfrom);
  t->listen = BuildOpRt(t->blocks, "listen", spec.listen);
  t->accept = BuildOpRt(t->blocks, "accept", spec.accept);
  for (const SockOptSpec& opt : spec.sockopts) {
    OptRt rt = BuildOptRt(t->blocks, opt, spec);
    for (size_t i = 0; i < kOps; ++i) {
      if (opt.macro == sock_ops[i].macro) {
        rt.ops_index = static_cast<int>(i);
        break;
      }
    }
    if (rt.ops_index < 0) {
      util::Panic("vnet: " + spec.id +
                  " sockopt missing from sock_ops table: " + opt.macro);
    }
    t->opts.push_back(std::move(rt));
  }
  for (const char* name : edge_names) {
    t->edges.push_back(t->blocks.IdOf("edge", name, 0));
  }
}

/// Runs the generic pre-op validation: addr-struct presence/size and the
/// spec's checks (claiming their blocks). Returns 0 or negative errno.
long
RunChecks(const InetTables& t, const OpRt& rt, const Buffer& addr,
          ExecContext& ctx)
{
  const SocketOpSpec& spec = *rt.spec;
  if (!t.have_addr || spec.checks.empty()) return 0;
  if (addr.size() < t.addr_layout.total_size) return -vkernel::kEFAULT;
  for (size_t k = 0; k < spec.checks.size(); ++k) {
    if (!CheckOk(spec.checks[k], addr, t.addr_layout)) {
      return -vkernel::kEINVAL;
    }
    ctx.Cover(rt.check_blocks[k]);
  }
  return 0;
}

/// Port field of a sockaddr argument; 0 when the spec has no addr struct.
uint16_t
PortOf(const InetTables& t, const Buffer& addr)
{
  if (!t.have_addr) return 0;
  return static_cast<uint16_t>(ReadField(addr, t.addr_layout, "port"));
}

void
CoverAll(const std::vector<uint64_t>& blocks, ExecContext& ctx)
{
  for (uint64_t b : blocks) ctx.Cover(b);
}

constexpr int kTcpStateCount = 10;

}  // namespace

struct TcpTables : InetTables {
  uint64_t trans[kTcpStateCount][kTcpStateCount] = {};
};

struct UdpTables : InetTables {};

namespace {

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

constexpr uint64_t kTcpPortSeed = 0x7c90a11c0de00001ULL;
constexpr uint64_t kUdpPortSeed = 0x7c90a11c0de00002ULL;

/// One TCP endpoint. Shared between the owning fd handler, the peer's
/// weak link, a listener's accept queue, and the family's half-closed
/// table — whichever outlives the others keeps the state coherent.
struct TcpConn {
  TcpState state = TcpState::kClosed;
  uint16_t local_port = 0;
  uint16_t remote_port = 0;
  /// True when this endpoint allocated/bound local_port and owns its
  /// namespace entry (accepted sockets share the listener's port and
  /// never touch the namespace).
  bool owns_port = false;
  bool fin_rcvd = false;  ///< Peer's FIN arrived; rx drains to EOF.

  // Option state (sock_ops table targets).
  bool nodelay = false;
  uint32_t maxseg = 536;
  bool reuse_timewait = false;  ///< SO_REUSEADDR analog for TIME_WAIT.
  uint32_t backlog = 4;
  uint32_t queue_cap = 256;  ///< rx byte budget (flow-control window).

  std::deque<uint8_t> rx;
  std::weak_ptr<TcpConn> peer;
  std::deque<std::shared_ptr<TcpConn>> accept_q;
};

class TcpFamily;

class TcpSocket : public vkernel::SocketHandler {
 public:
  TcpSocket(TcpFamily* family, std::shared_ptr<TcpConn> conn)
      : family_(family), conn_(std::move(conn)) {}

  long SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                  KernelModel& kernel) override;
  long GetSockOpt(uint64_t level, uint64_t optname, Buffer* val,
                  KernelModel& kernel) override;
  long Bind(const Buffer& addr, KernelModel& kernel) override;
  long Connect(const Buffer& addr, KernelModel& kernel) override;
  long SendTo(const Buffer& data, const Buffer& addr,
              KernelModel& kernel) override;
  long RecvFrom(Buffer* data, KernelModel& kernel) override;
  long Listen(KernelModel& kernel) override;
  long Accept(KernelModel& kernel) override;
  void Release(KernelModel& kernel) override;
  std::string StateBrief() const override;

  TcpConn& conn() { return *conn_; }
  const std::shared_ptr<TcpConn>& conn_ptr() const { return conn_; }

 private:
  TcpFamily* family_;
  std::shared_ptr<TcpConn> conn_;
  bool released_ = false;  ///< Release is idempotent (dup'd fds).
};

/// sock_ops row for one integer-payload TCP option (the loliOS-style
/// function-table dispatch); TCP_INFO's multi-field get is special-cased
/// by the family.
struct TcpOptOps {
  const char* macro;
  void (*set)(TcpConn&, uint64_t);
  uint64_t (*get)(const TcpConn&);
};

const TcpOptOps kTcpSockOps[] = {
    {"TCP_NODELAY", [](TcpConn& c, uint64_t v) { c.nodelay = v != 0; },
     [](const TcpConn& c) { return static_cast<uint64_t>(c.nodelay); }},
    {"TCP_MAXSEG",
     [](TcpConn& c, uint64_t v) { c.maxseg = static_cast<uint32_t>(v); },
     [](const TcpConn& c) { return static_cast<uint64_t>(c.maxseg); }},
    {"TCP_WINDOW_CLAMP",
     [](TcpConn& c, uint64_t v) { c.queue_cap = static_cast<uint32_t>(v); },
     [](const TcpConn& c) { return static_cast<uint64_t>(c.queue_cap); }},
    {"TCP_INFO", nullptr, nullptr},
    {"TCP_REUSE_TIMEWAIT",
     [](TcpConn& c, uint64_t v) { c.reuse_timewait = v != 0; },
     [](const TcpConn& c) { return static_cast<uint64_t>(c.reuse_timewait); }},
    {"TCP_BACKLOG",
     [](TcpConn& c, uint64_t v) { c.backlog = static_cast<uint32_t>(v); },
     [](const TcpConn& c) { return static_cast<uint64_t>(c.backlog); }},
};

/// The per-kernel half of the TCP family: the port namespace and the
/// endpoint maps, over shared TcpTables. The net_* knobs are read from
/// the calling kernel's policy.
class TcpFamily : public vkernel::SocketFamily {
 public:
  explicit TcpFamily(std::shared_ptr<const TcpTables> tables)
      : t_(std::move(tables)), ports_(kTcpPortSeed) {}

  std::string Name() const override { return t_->spec->id; }
  uint64_t Domain() const override { return t_->spec->domain; }

  std::shared_ptr<vkernel::SocketHandler> Create(uint64_t type,
                                                 uint64_t protocol,
                                                 KernelModel& kernel,
                                                 long* err) override {
    if (type != t_->spec->sock_type ||
        (protocol != 0 && protocol != t_->spec->protocol)) {
      *err = -vkernel::kEINVAL;
      return nullptr;
    }
    kernel.context().Cover(t_->create_block);
    return std::make_shared<TcpSocket>(this, std::make_shared<TcpConn>());
  }

  void ResetState() override {
    bound_.clear();
    half_closed_.clear();
    ports_.Reset();
  }

  std::string StateBrief() const override { return ports_.Brief(); }

  // -- Op implementations (called by TcpSocket) ----------------------------

  long DoBind(TcpSocket& s, const Buffer& addr, KernelModel& kernel) {
    ExecContext& ctx = kernel.context();
    ctx.Cover(t_->bind.op_block);
    long rc = RunChecks(*t_, t_->bind, addr, ctx);
    if (rc != 0) return rc;
    TcpConn& c = s.conn();
    if (c.state != TcpState::kClosed) return -vkernel::kEINVAL;
    if (c.local_port != 0) {
      if (!kernel.policy().net_rebind_ok) return -vkernel::kEINVAL;
      FreePort(s.conn_ptr());
      Edge(kTcpBindRebound, ctx);
    }
    uint16_t port = PortOf(*t_, addr);
    if (port == 0) {
      port = ports_.AllocateEphemeral();
      if (port == 0) return -vkernel::kEADDRINUSE;
      Edge(kTcpBindEphemeral, ctx);
    } else {
      if (ports_.IsBound(port)) {
        Edge(kTcpBindConflict, ctx);
        return -vkernel::kEADDRINUSE;
      }
      if (ports_.InTimeWait(port)) {
        if (!kernel.policy().net_reuse_timewait_ok && !c.reuse_timewait) {
          Edge(kTcpBindTimewaitRefused, ctx);
          return -vkernel::kEADDRINUSE;
        }
        ports_.ClearTimeWait(port);
        Edge(kTcpBindTimewaitReused, ctx);
      }
    }
    ports_.Bind(port);
    bound_[port] = s.conn_ptr();
    c.local_port = port;
    c.owns_port = true;
    CoverAll(t_->bind.deep_blocks, ctx);
    return 0;
  }

  long DoListen(TcpSocket& s, KernelModel& kernel) {
    ExecContext& ctx = kernel.context();
    ctx.Cover(t_->listen.op_block);
    TcpConn& c = s.conn();
    switch (c.state) {
      case TcpState::kClosed: {
        if (c.local_port == 0) {
          uint16_t port = ports_.AllocateEphemeral();
          if (port == 0) return -vkernel::kEADDRINUSE;
          ports_.Bind(port);
          c.local_port = port;
          c.owns_port = true;
          Edge(kTcpListenAutobind, ctx);
        }
        bound_[c.local_port] = s.conn_ptr();
        Trans(c, TcpState::kListen, ctx);
        CoverAll(t_->listen.deep_blocks, ctx);
        return 0;
      }
      case TcpState::kListen:
        if (!kernel.policy().net_relisten_ok) return -vkernel::kEINVAL;
        Edge(kTcpListenAgain, ctx);
        return 0;
      default:
        return Violate("listen", c.state, ctx);
    }
  }

  long DoConnect(TcpSocket& s, const Buffer& addr, ExecContext& ctx) {
    ctx.Cover(t_->connect.op_block);
    long rc = RunChecks(*t_, t_->connect, addr, ctx);
    if (rc != 0) return rc;
    TcpConn& c = s.conn();
    switch (c.state) {
      case TcpState::kListen:
        return Violate("connect", c.state, ctx);
      case TcpState::kSynSent:
      case TcpState::kSynRcvd:
      case TcpState::kEstablished:
      case TcpState::kCloseWait:
        return -vkernel::kEISCONN;
      case TcpState::kClosed:
        break;
      default:
        return -vkernel::kEINVAL;
    }
    if (c.local_port == 0) {
      uint16_t port = ports_.AllocateEphemeral();
      if (port == 0) return -vkernel::kEADDRINUSE;
      ports_.Bind(port);
      c.local_port = port;
      c.owns_port = true;
      Edge(kTcpConnectAutobind, ctx);
    }
    uint16_t dest = PortOf(*t_, addr);
    std::shared_ptr<TcpConn> listener;
    auto it = bound_.find(dest);
    if (it != bound_.end()) listener = it->second.lock();
    if (!listener || listener->state != TcpState::kListen) {
      Edge(kTcpConnectRefused, ctx);
      return -vkernel::kECONNREFUSED;
    }
    if (listener->accept_q.size() >= listener->backlog) {
      Edge(kTcpConnectBacklogOverflow, ctx);
      return -vkernel::kECONNREFUSED;
    }
    Trans(c, TcpState::kSynSent, ctx);
    // Loopback handshake: spawn the passive endpoint, establish both
    // sides synchronously, and queue it for accept().
    auto peer = std::make_shared<TcpConn>();
    peer->local_port = dest;
    peer->remote_port = c.local_port;
    peer->owns_port = false;  // Shares the listener's namespace entry.
    peer->queue_cap = listener->queue_cap;
    peer->state = TcpState::kListen;
    Trans(*peer, TcpState::kSynRcvd, ctx);
    Trans(*peer, TcpState::kEstablished, ctx);
    peer->peer = s.conn_ptr();
    c.peer = peer;
    c.remote_port = dest;
    listener->accept_q.push_back(std::move(peer));
    Trans(c, TcpState::kEstablished, ctx);
    CoverAll(t_->connect.deep_blocks, ctx);
    return 0;
  }

  long DoAccept(TcpSocket& s, KernelModel& kernel) {
    ExecContext& ctx = kernel.context();
    ctx.Cover(t_->accept.op_block);
    TcpConn& c = s.conn();
    switch (c.state) {
      case TcpState::kListen: {
        if (c.accept_q.empty()) return -vkernel::kEAGAIN;
        std::shared_ptr<TcpConn> conn = std::move(c.accept_q.front());
        c.accept_q.pop_front();
        long fd = kernel.InstallSocket(
            std::make_shared<TcpSocket>(this, std::move(conn)));
        CoverAll(t_->accept.deep_blocks, ctx);
        return fd;
      }
      case TcpState::kClosed:
        return -vkernel::kEINVAL;
      default:
        return Violate("accept", c.state, ctx);
    }
  }

  long DoSend(TcpSocket& s, const Buffer& data, ExecContext& ctx) {
    ctx.Cover(t_->sendto.op_block);
    TcpConn& c = s.conn();
    if (c.state != TcpState::kEstablished &&
        c.state != TcpState::kCloseWait) {
      return -vkernel::kENOTCONN;
    }
    std::shared_ptr<TcpConn> peer = c.peer.lock();
    if (!peer || (peer->state != TcpState::kEstablished &&
                  peer->state != TcpState::kCloseWait &&
                  peer->state != TcpState::kFinWait1 &&
                  peer->state != TcpState::kFinWait2)) {
      Edge(kTcpSendReset, ctx);
      return -vkernel::kEPIPE;
    }
    if (peer->rx.size() + data.size() > peer->queue_cap) {
      Edge(kTcpSendFlowControl, ctx);
      return -vkernel::kEAGAIN;
    }
    peer->rx.insert(peer->rx.end(), data.data(), data.data() + data.size());
    CoverAll(t_->sendto.deep_blocks, ctx);
    return static_cast<long>(data.size());
  }

  long DoRecv(TcpSocket& s, Buffer* data, ExecContext& ctx) {
    ctx.Cover(t_->recvfrom.op_block);
    TcpConn& c = s.conn();
    if (c.state != TcpState::kEstablished &&
        c.state != TcpState::kCloseWait) {
      return -vkernel::kENOTCONN;
    }
    if (c.rx.empty()) {
      if (c.fin_rcvd) {
        Edge(kTcpRecvEof, ctx);
        if (data) data->Resize(0);
        return 0;
      }
      return -vkernel::kEAGAIN;
    }
    size_t n = c.rx.size() < 64 ? c.rx.size() : 64;
    if (data) {
      data->Resize(n);
      for (size_t i = 0; i < n; ++i) data->bytes[i] = c.rx[i];
    }
    c.rx.erase(c.rx.begin(), c.rx.begin() + static_cast<long>(n));
    CoverAll(t_->recvfrom.deep_blocks, ctx);
    return static_cast<long>(n);
  }

  long DoSetSockOpt(TcpSocket& s, uint64_t level, uint64_t optname,
                    const Buffer& val, ExecContext& ctx) {
    if (level != t_->spec->sol_level) return -vkernel::kENOPROTOOPT;
    for (const OptRt& rt : t_->opts) {
      if (!rt.opt->settable || rt.opt->value != optname) continue;
      ctx.Cover(rt.set_block);
      if (val.size() < rt.layout.total_size) return -vkernel::kEFAULT;
      for (size_t k = 0; k < rt.opt->checks.size(); ++k) {
        if (!CheckOk(rt.opt->checks[k], val, rt.layout)) {
          return -vkernel::kEINVAL;
        }
        ctx.Cover(rt.set_checks[k]);
      }
      const TcpOptOps& ops = kTcpSockOps[rt.ops_index];
      if (ops.set) ops.set(s.conn(), ReadField(val, rt.layout, "value"));
      CoverAll(rt.set_deep, ctx);
      return 0;
    }
    return -vkernel::kENOPROTOOPT;
  }

  long DoGetSockOpt(TcpSocket& s, uint64_t level, uint64_t optname,
                    Buffer* val, ExecContext& ctx) {
    if (level != t_->spec->sol_level) return -vkernel::kENOPROTOOPT;
    for (const OptRt& rt : t_->opts) {
      if (!rt.opt->gettable || rt.opt->value != optname) continue;
      ctx.Cover(rt.get_block);
      if (val && val->size() < rt.layout.total_size) {
        val->Resize(rt.layout.total_size);
      }
      const TcpOptOps& ops = kTcpSockOps[rt.ops_index];
      if (val) {
        TcpConn& c = s.conn();
        if (ops.get) {
          WriteFieldTo(val, rt.layout, "value", ops.get(c));
        } else {
          // TCP_INFO: the multi-field state dump.
          WriteFieldTo(val, rt.layout, "state",
                       static_cast<uint64_t>(c.state));
          WriteFieldTo(val, rt.layout, "backlog", c.backlog);
          WriteFieldTo(val, rt.layout, "qlen", c.rx.size());
        }
      }
      CoverAll(rt.get_deep, ctx);
      return 0;
    }
    return -vkernel::kENOPROTOOPT;
  }

  /// Close semantics: the active/passive close halves of the state
  /// machine, with TIME_WAIT residue left in the port namespace.
  void DoRelease(TcpSocket& s, KernelModel& kernel) {
    ExecContext& ctx = kernel.context();
    std::shared_ptr<TcpConn> conn = s.conn_ptr();
    switch (conn->state) {
      case TcpState::kClosed:
      case TcpState::kSynSent:
      case TcpState::kSynRcvd:
        FreePort(conn);
        return;
      case TcpState::kListen:
        // Pending, never-accepted connections are reset; their peers'
        // weak links expire and later sends fail with EPIPE.
        conn->accept_q.clear();
        conn->state = TcpState::kClosed;
        FreePort(conn);
        return;
      case TcpState::kEstablished: {
        Trans(*conn, TcpState::kFinWait1, ctx);
        Trans(*conn, TcpState::kFinWait2, ctx);
        std::shared_ptr<TcpConn> peer = conn->peer.lock();
        if (peer && peer->state == TcpState::kEstablished) {
          // Active close: FIN delivered, peer half-closes; we linger
          // half-closed until the peer's close completes the exchange.
          Trans(*peer, TcpState::kCloseWait, ctx);
          peer->fin_rcvd = true;
          if (conn->owns_port && conn->local_port != 0) {
            half_closed_[conn->local_port] = conn;
          }
        } else {
          // Peer already gone (reset): straight to TIME_WAIT.
          Trans(*conn, TcpState::kTimeWait, ctx);
          RetirePort(conn);
        }
        return;
      }
      case TcpState::kCloseWait: {
        // Passive close: our FIN completes the exchange.
        Trans(*conn, TcpState::kLastAck, ctx);
        Trans(*conn, TcpState::kClosed, ctx);
        FreePort(conn);
        std::shared_ptr<TcpConn> peer = conn->peer.lock();
        if (peer && peer->state == TcpState::kFinWait2) {
          Trans(*peer, TcpState::kTimeWait, ctx);
          if (peer->owns_port && peer->local_port != 0) {
            half_closed_.erase(peer->local_port);
          }
          RetirePort(peer);
        }
        return;
      }
      default:
        FreePort(conn);
        return;
    }
  }

 private:
  void Edge(TcpEdge e, ExecContext& ctx) { ctx.Cover(t_->edges[e]); }

  void Trans(TcpConn& c, TcpState to, ExecContext& ctx) {
    ctx.Cover(t_->trans[static_cast<int>(c.state)][static_cast<int>(to)]);
    c.state = to;
  }

  long Violate(const char* op, TcpState state, ExecContext& ctx) {
    Edge(kTcpViolation, ctx);
    ctx.Crash(std::string(kViolationPrefix) + "tcp " + op + " in " +
              TcpStateName(state));
    return -vkernel::kEINVAL;
  }

  static void WriteFieldTo(Buffer* buf, const StructLayout& layout,
                           const std::string& field, uint64_t value) {
    const drivers::FieldLayout* fl = layout.Find(field);
    if (!fl) return;
    buf->WriteScalar(fl->offset, fl->size > 8 ? 8 : fl->size, value);
  }

  /// Returns an owned port to the free namespace.
  void FreePort(const std::shared_ptr<TcpConn>& conn) {
    if (!conn->owns_port || conn->local_port == 0) return;
    ports_.Unbind(conn->local_port);
    auto it = bound_.find(conn->local_port);
    if (it != bound_.end() && it->second.lock() == conn) bound_.erase(it);
    conn->owns_port = false;
  }

  /// Moves an owned port into TIME_WAIT residue.
  void RetirePort(const std::shared_ptr<TcpConn>& conn) {
    if (!conn->owns_port || conn->local_port == 0) return;
    auto it = bound_.find(conn->local_port);
    if (it != bound_.end() && it->second.lock() == conn) bound_.erase(it);
    ports_.EnterTimeWait(conn->local_port);
    conn->owns_port = false;
  }

  std::shared_ptr<const TcpTables> t_;
  PortSpace ports_;
  /// Port -> endpoint for inbound connection lookup (listeners and
  /// explicitly bound sockets).
  std::map<uint16_t, std::weak_ptr<TcpConn>> bound_;
  /// Actively-closed endpoints lingering in FIN_WAIT2 until the peer's
  /// close moves their port to TIME_WAIT; keeps the conn alive after
  /// its fd is gone.
  std::map<uint16_t, std::shared_ptr<TcpConn>> half_closed_;
};

long
TcpSocket::SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                      KernelModel& kernel)
{
  return family_->DoSetSockOpt(*this, level, optname, val, kernel.context());
}

long
TcpSocket::GetSockOpt(uint64_t level, uint64_t optname, Buffer* val,
                      KernelModel& kernel)
{
  return family_->DoGetSockOpt(*this, level, optname, val, kernel.context());
}

long
TcpSocket::Bind(const Buffer& addr, KernelModel& kernel)
{
  return family_->DoBind(*this, addr, kernel);
}

long
TcpSocket::Connect(const Buffer& addr, KernelModel& kernel)
{
  return family_->DoConnect(*this, addr, kernel.context());
}

long
TcpSocket::SendTo(const Buffer& data, const Buffer& addr, KernelModel& kernel)
{
  (void)addr;  // Connected-only transport; the address is ignored.
  return family_->DoSend(*this, data, kernel.context());
}

long
TcpSocket::RecvFrom(Buffer* data, KernelModel& kernel)
{
  return family_->DoRecv(*this, data, kernel.context());
}

long
TcpSocket::Listen(KernelModel& kernel)
{
  return family_->DoListen(*this, kernel);
}

long
TcpSocket::Accept(KernelModel& kernel)
{
  return family_->DoAccept(*this, kernel);
}

void
TcpSocket::Release(KernelModel& kernel)
{
  if (released_) return;
  released_ = true;
  family_->DoRelease(*this, kernel);
}

std::string
TcpSocket::StateBrief() const
{
  std::string out = "tcp:";
  out += TcpStateName(conn_->state);
  if (conn_->local_port != 0) {
    out += " lp=" + std::to_string(conn_->local_port);
  }
  if (conn_->remote_port != 0) {
    out += " rp=" + std::to_string(conn_->remote_port);
  }
  if (!conn_->rx.empty()) out += " rx=" + std::to_string(conn_->rx.size());
  if (conn_->state == TcpState::kListen && !conn_->accept_q.empty()) {
    out += " q=" + std::to_string(conn_->accept_q.size());
  }
  if (conn_->fin_rcvd) out += " fin";
  return out;
}

}  // namespace

// Defined outside the anonymous namespace (declared in inet.h); the UDP
// side below reuses them.

BlockLayout
TcpBlockLayout(const SocketSpec& spec)
{
  BlockLayout layout = BlockLayout::ForSocket(spec);
  for (const TransitionTuple& t : kTcpTransitions) {
    layout.Extend("trans", TransitionDetail(t), 0);
  }
  for (int e = 0; e < kTcpEdgeCount; ++e) {
    layout.Extend("edge", kTcpEdgeNames[e], 0);
  }
  return layout;
}

BlockLayout
UdpBlockLayout(const SocketSpec& spec)
{
  BlockLayout layout = BlockLayout::ForSocket(spec);
  for (int e = 0; e < kUdpEdgeCount; ++e) {
    layout.Extend("edge", kUdpEdgeNames[e], 0);
  }
  return layout;
}

std::shared_ptr<const TcpTables>
BuildTcpTables(const SocketSpec& spec)
{
  auto t = std::make_shared<TcpTables>();
  FillInetTables(t.get(), spec, TcpBlockLayout(spec), kTcpSockOps,
                 kTcpEdgeNames);
  for (const TransitionTuple& tr : kTcpTransitions) {
    t->trans[static_cast<int>(tr.from)][static_cast<int>(tr.to)] =
        t->blocks.IdOf("trans", TransitionDetail(tr), 0);
  }
  return t;
}

std::unique_ptr<vkernel::SocketFamily>
MakeTcpFamily(std::shared_ptr<const TcpTables> tables)
{
  return std::make_unique<TcpFamily>(std::move(tables));
}

std::unique_ptr<vkernel::SocketFamily>
MakeTcpFamily(const SocketSpec* spec)
{
  return MakeTcpFamily(BuildTcpTables(*spec));
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

namespace {

class UdpFamily;

/// One UDP endpoint: a bound port, an optional connected default
/// destination, a bounded datagram queue, and cork state.
struct UdpSockState {
  uint16_t local_port = 0;
  uint16_t peer_port = 0;
  bool connected = false;
  bool cork = false;
  uint16_t cork_dest = 0;  ///< Destination of the corked super-datagram.
  std::vector<uint8_t> cork_buf;
  uint32_t queue_cap = 8;  ///< rx datagram budget.
  std::deque<std::vector<uint8_t>> rx;
};

class UdpSocket : public vkernel::SocketHandler {
 public:
  explicit UdpSocket(UdpFamily* family) : family_(family) {}

  long SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                  KernelModel& kernel) override;
  long GetSockOpt(uint64_t level, uint64_t optname, Buffer* val,
                  KernelModel& kernel) override;
  long Bind(const Buffer& addr, KernelModel& kernel) override;
  long Connect(const Buffer& addr, KernelModel& kernel) override;
  long SendTo(const Buffer& data, const Buffer& addr,
              KernelModel& kernel) override;
  long RecvFrom(Buffer* data, KernelModel& kernel) override;
  void Release(KernelModel& kernel) override;
  std::string StateBrief() const override;

  UdpSockState st;

 private:
  UdpFamily* family_;
  bool released_ = false;
};

/// sock_ops row for one integer-payload UDP option. Set handlers run
/// through the family so UDP_CORK can flush on uncork.
struct UdpOptOps {
  const char* macro;
  bool family_set;  ///< Set is a family method (side effects), not a poke.
  void (*set)(UdpSockState&, uint64_t);
  uint64_t (*get)(const UdpSockState&);
};

const UdpOptOps kUdpSockOps[] = {
    {"UDP_CORK", true, nullptr,
     [](const UdpSockState& s) { return static_cast<uint64_t>(s.cork); }},
    {"UDP_QCAP", false,
     [](UdpSockState& s, uint64_t v) {
       s.queue_cap = static_cast<uint32_t>(v);
     },
     [](const UdpSockState& s) {
       return static_cast<uint64_t>(s.queue_cap);
     }},
    {"UDP_QLEN", false, nullptr,
     [](const UdpSockState& s) { return static_cast<uint64_t>(s.rx.size()); }},
};

/// The per-kernel half of the UDP family: the port namespace and the
/// receiver map, over shared UdpTables. The net_* knobs are read from the
/// calling kernel's policy.
class UdpFamily : public vkernel::SocketFamily {
 public:
  explicit UdpFamily(std::shared_ptr<const UdpTables> tables)
      : t_(std::move(tables)), ports_(kUdpPortSeed) {}

  std::string Name() const override { return t_->spec->id; }
  uint64_t Domain() const override { return t_->spec->domain; }

  std::shared_ptr<vkernel::SocketHandler> Create(uint64_t type,
                                                 uint64_t protocol,
                                                 KernelModel& kernel,
                                                 long* err) override {
    if (type != t_->spec->sock_type ||
        (protocol != 0 && protocol != t_->spec->protocol)) {
      *err = -vkernel::kEINVAL;
      return nullptr;
    }
    kernel.context().Cover(t_->create_block);
    return std::make_shared<UdpSocket>(this);
  }

  void ResetState() override {
    bound_.clear();
    ports_.Reset();
  }

  std::string StateBrief() const override { return ports_.Brief(); }

  // -- Op implementations --------------------------------------------------

  long DoBind(UdpSocket& s, const Buffer& addr, KernelModel& kernel) {
    ExecContext& ctx = kernel.context();
    ctx.Cover(t_->bind.op_block);
    long rc = RunChecks(*t_, t_->bind, addr, ctx);
    if (rc != 0) return rc;
    if (s.st.local_port != 0) {
      if (!kernel.policy().net_rebind_ok) return -vkernel::kEINVAL;
      Unbind(s);
      Edge(kUdpBindRebound, ctx);
    }
    uint16_t port = PortOf(*t_, addr);
    if (port == 0) {
      port = ports_.AllocateEphemeral();
      if (port == 0) return -vkernel::kEADDRINUSE;
      Edge(kUdpBindEphemeral, ctx);
    } else if (ports_.IsBound(port)) {
      Edge(kUdpBindConflict, ctx);
      return -vkernel::kEADDRINUSE;
    }
    ports_.Bind(port);
    bound_[port] = &s;
    s.st.local_port = port;
    CoverAll(t_->bind.deep_blocks, ctx);
    return 0;
  }

  long DoConnect(UdpSocket& s, const Buffer& addr, ExecContext& ctx) {
    ctx.Cover(t_->connect.op_block);
    long rc = RunChecks(*t_, t_->connect, addr, ctx);
    if (rc != 0) return rc;
    uint16_t port = PortOf(*t_, addr);
    if (port == 0) {
      // AF_UNSPEC-style dissolve: back to unconnected.
      s.st.connected = false;
      s.st.peer_port = 0;
      Edge(kUdpConnectDisconnect, ctx);
      return 0;
    }
    s.st.connected = true;
    s.st.peer_port = port;
    CoverAll(t_->connect.deep_blocks, ctx);
    return 0;
  }

  long DoSend(UdpSocket& s, const Buffer& data, const Buffer& addr,
              ExecContext& ctx) {
    ctx.Cover(t_->sendto.op_block);
    long rc = RunChecks(*t_, t_->sendto, addr, ctx);
    if (rc != 0) return rc;
    uint16_t dest = PortOf(*t_, addr);
    if (dest == 0) {
      if (!s.st.connected) {
        Edge(kUdpSendNoAddr, ctx);
        return -vkernel::kEDESTADDRREQ;
      }
      dest = s.st.peer_port;
    }
    if (s.st.cork) {
      // Corked: datagrams merge into one pending super-datagram,
      // delivered when the cork is released.
      s.st.cork_dest = dest;
      s.st.cork_buf.insert(s.st.cork_buf.end(), data.data(),
                           data.data() + data.size());
      Edge(kUdpSendCorked, ctx);
      return static_cast<long>(data.size());
    }
    rc = Deliver(dest, data.data(), data.size(), ctx);
    if (rc != 0) return rc;
    CoverAll(t_->sendto.deep_blocks, ctx);
    return static_cast<long>(data.size());
  }

  long DoRecv(UdpSocket& s, Buffer* data, ExecContext& ctx) {
    ctx.Cover(t_->recvfrom.op_block);
    if (s.st.rx.empty()) return -vkernel::kEAGAIN;
    std::vector<uint8_t> dgram = std::move(s.st.rx.front());
    s.st.rx.pop_front();
    if (data) {
      data->Resize(dgram.size());
      for (size_t i = 0; i < dgram.size(); ++i) data->bytes[i] = dgram[i];
    }
    CoverAll(t_->recvfrom.deep_blocks, ctx);
    return static_cast<long>(dgram.size());
  }

  long DoSetSockOpt(UdpSocket& s, uint64_t level, uint64_t optname,
                    const Buffer& val, ExecContext& ctx) {
    if (level != t_->spec->sol_level) return -vkernel::kENOPROTOOPT;
    for (const OptRt& rt : t_->opts) {
      if (!rt.opt->settable || rt.opt->value != optname) continue;
      ctx.Cover(rt.set_block);
      if (val.size() < rt.layout.total_size) return -vkernel::kEFAULT;
      for (size_t k = 0; k < rt.opt->checks.size(); ++k) {
        if (!CheckOk(rt.opt->checks[k], val, rt.layout)) {
          return -vkernel::kEINVAL;
        }
        ctx.Cover(rt.set_checks[k]);
      }
      const UdpOptOps& ops = kUdpSockOps[rt.ops_index];
      uint64_t value = ReadField(val, rt.layout, "value");
      if (ops.family_set) {
        SetCork(s, value != 0, ctx);
      } else if (ops.set) {
        ops.set(s.st, value);
      }
      CoverAll(rt.set_deep, ctx);
      return 0;
    }
    return -vkernel::kENOPROTOOPT;
  }

  long DoGetSockOpt(UdpSocket& s, uint64_t level, uint64_t optname,
                    Buffer* val, ExecContext& ctx) {
    if (level != t_->spec->sol_level) return -vkernel::kENOPROTOOPT;
    for (const OptRt& rt : t_->opts) {
      if (!rt.opt->gettable || rt.opt->value != optname) continue;
      ctx.Cover(rt.get_block);
      if (val) {
        if (val->size() < rt.layout.total_size) {
          val->Resize(rt.layout.total_size);
        }
        const UdpOptOps& ops = kUdpSockOps[rt.ops_index];
        if (ops.get) {
          const drivers::FieldLayout* fl = rt.layout.Find("value");
          if (!fl) fl = rt.layout.Find("qlen");
          if (fl) {
            val->WriteScalar(fl->offset, fl->size > 8 ? 8 : fl->size,
                             ops.get(s.st));
          }
        }
      }
      CoverAll(rt.get_deep, ctx);
      return 0;
    }
    return -vkernel::kENOPROTOOPT;
  }

  void DoRelease(UdpSocket& s, KernelModel& kernel) {
    ExecContext& ctx = kernel.context();
    if (s.st.cork && !s.st.cork_buf.empty()) {
      // Closing a corked socket with undelivered data: the pending
      // super-datagram leaks — the stack's planted lifecycle bug.
      Edge(kUdpViolation, ctx);
      ctx.Crash(std::string(kViolationPrefix) +
                "udp release while corked with pending data");
    }
    Unbind(s);
  }

 private:
  void Edge(UdpEdge e, ExecContext& ctx) { ctx.Cover(t_->edges[e]); }

  /// Queues a datagram at the receiver bound to `dest`. Queue overflow
  /// drops silently (UDP semantics); no receiver refuses.
  long Deliver(uint16_t dest, const uint8_t* data, size_t size,
               ExecContext& ctx) {
    auto it = bound_.find(dest);
    if (it == bound_.end()) {
      Edge(kUdpSendNoReceiver, ctx);
      return -vkernel::kECONNREFUSED;
    }
    UdpSockState& rcv = it->second->st;
    if (rcv.rx.size() >= rcv.queue_cap) {
      Edge(kUdpSendDrop, ctx);
      return 0;  // Silent drop still reports success to the sender.
    }
    rcv.rx.emplace_back(data, data + size);
    return 0;
  }

  void SetCork(UdpSocket& s, bool cork, ExecContext& ctx) {
    if (s.st.cork && !cork && !s.st.cork_buf.empty()) {
      // Uncork: flush the merged datagram to its last destination.
      Deliver(s.st.cork_dest, s.st.cork_buf.data(), s.st.cork_buf.size(),
              ctx);
      s.st.cork_buf.clear();
      Edge(kUdpUncorkFlush, ctx);
    }
    s.st.cork = cork;
  }

  void Unbind(UdpSocket& s) {
    if (s.st.local_port == 0) return;
    ports_.Unbind(s.st.local_port);
    auto it = bound_.find(s.st.local_port);
    if (it != bound_.end() && it->second == &s) bound_.erase(it);
    s.st.local_port = 0;
  }

  std::shared_ptr<const UdpTables> t_;
  PortSpace ports_;
  /// Port -> live receiver. Entries are erased on Release/rebind, so
  /// the raw pointer never dangles (the kernel is single-threaded).
  std::map<uint16_t, UdpSocket*> bound_;
};

long
UdpSocket::SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                      KernelModel& kernel)
{
  return family_->DoSetSockOpt(*this, level, optname, val, kernel.context());
}

long
UdpSocket::GetSockOpt(uint64_t level, uint64_t optname, Buffer* val,
                      KernelModel& kernel)
{
  return family_->DoGetSockOpt(*this, level, optname, val, kernel.context());
}

long
UdpSocket::Bind(const Buffer& addr, KernelModel& kernel)
{
  return family_->DoBind(*this, addr, kernel);
}

long
UdpSocket::Connect(const Buffer& addr, KernelModel& kernel)
{
  return family_->DoConnect(*this, addr, kernel.context());
}

long
UdpSocket::SendTo(const Buffer& data, const Buffer& addr, KernelModel& kernel)
{
  return family_->DoSend(*this, data, addr, kernel.context());
}

long
UdpSocket::RecvFrom(Buffer* data, KernelModel& kernel)
{
  return family_->DoRecv(*this, data, kernel.context());
}

void
UdpSocket::Release(KernelModel& kernel)
{
  if (released_) return;
  released_ = true;
  family_->DoRelease(*this, kernel);
}

std::string
UdpSocket::StateBrief() const
{
  std::string out = "udp";
  if (st.local_port != 0) out += " lp=" + std::to_string(st.local_port);
  if (st.connected) out += " pp=" + std::to_string(st.peer_port);
  if (!st.rx.empty()) out += " rx=" + std::to_string(st.rx.size());
  if (st.cork) out += " cork";
  return out;
}

}  // namespace

std::shared_ptr<const UdpTables>
BuildUdpTables(const SocketSpec& spec)
{
  auto t = std::make_shared<UdpTables>();
  FillInetTables(t.get(), spec, UdpBlockLayout(spec), kUdpSockOps,
                 kUdpEdgeNames);
  return t;
}

std::unique_ptr<vkernel::SocketFamily>
MakeUdpFamily(std::shared_ptr<const UdpTables> tables)
{
  return std::make_unique<UdpFamily>(std::move(tables));
}

std::unique_ptr<vkernel::SocketFamily>
MakeUdpFamily(const SocketSpec* spec)
{
  return MakeUdpFamily(BuildUdpTables(*spec));
}

}  // namespace kernelgpt::vnet
