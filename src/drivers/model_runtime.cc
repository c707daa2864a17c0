#include "drivers/model_runtime.h"

#include <stdexcept>

#include "ksrc/cparser.h"
#include "util/rng.h"
#include "vkernel/coverage.h"

namespace kernelgpt::drivers {

using vkernel::Buffer;
using vkernel::ExecContext;
using vkernel::FileHandler;
using vkernel::KernelModel;

namespace {

/// Canonical tuple key for BlockLayout's slot map. \x1f never occurs in
/// spec identifiers, so the encoding is collision-free.
std::string
TupleKey(const std::string& role, const std::string& detail, uint32_t index)
{
  std::string key;
  key.reserve(role.size() + detail.size() + 12);
  key += role;
  key += '\x1f';
  key += detail;
  key += '\x1f';
  key += std::to_string(index);
  return key;
}

}  // namespace

BlockLayout::BlockLayout(const std::string& module)
    : module_(module), base_(util::StableHash(module))
{
}

void
BlockLayout::Assign(const std::string& role, const std::string& detail,
                    uint32_t index)
{
  auto [it, inserted] = slots_.emplace(TupleKey(role, detail, index), next_);
  (void)it;
  if (inserted) ++next_;
}

uint64_t
BlockLayout::IdOf(const std::string& role, const std::string& detail,
                  uint32_t index) const
{
  auto it = slots_.find(TupleKey(role, detail, index));
  if (it == slots_.end()) {
    throw std::logic_error("BlockLayout::IdOf: module '" + module_ +
                           "' has no block (" + role + ", " + detail + ", " +
                           std::to_string(index) + ")");
  }
  return vkernel::MakeBlockId(base_, it->second);
}

BlockLayout
BlockLayout::ForDevice(const DeviceSpec& dev)
{
  BlockLayout layout(dev.id);
  layout.Assign("open", "", 0);
  auto walk_handler = [&layout](const HandlerSpec& h) {
    for (const auto& cmd : h.ioctls) {
      layout.Assign("cmd", cmd.macro, 0);
      for (uint32_t i = 1; i <= cmd.checks.size(); ++i) {
        layout.Assign("check", cmd.macro, i);
      }
      for (int i = 0; i < cmd.deep_blocks; ++i) {
        layout.Assign("deep", cmd.macro, static_cast<uint32_t>(i));
      }
    }
  };
  walk_handler(dev.primary);
  for (const auto& h : dev.secondary) walk_handler(h);
  return layout;
}

BlockLayout
BlockLayout::ForSocket(const SocketSpec& sock)
{
  BlockLayout layout(sock.id);
  layout.Assign("create", "", 0);
  auto walk_cmd = [&layout](const std::string& macro, size_t checks,
                            int deep) {
    layout.Assign("cmd", macro, 0);
    for (uint32_t i = 1; i <= checks; ++i) layout.Assign("check", macro, i);
    for (int i = 0; i < deep; ++i) {
      layout.Assign("deep", macro, static_cast<uint32_t>(i));
    }
  };
  for (const auto& cmd : sock.ioctls) {
    walk_cmd(cmd.macro, cmd.checks.size(), cmd.deep_blocks);
  }
  // Mirrors SocketRuntime's PseudoCommand expansion: the set pseudo
  // carries the option's checks, the get pseudo none.
  for (const auto& opt : sock.sockopts) {
    walk_cmd("SET_" + opt.macro, opt.checks.size(), opt.deep_blocks);
    walk_cmd("GET_" + opt.macro, 0, opt.deep_blocks);
  }
  auto walk_op = [&layout](const char* op, const SocketOpSpec& spec) {
    layout.Assign("op", op, 0);
    uint32_t idx = 1;
    for (const CheckSpec& check : spec.checks) {
      layout.Assign(std::string("op-check-") + op, check.field, idx++);
    }
    for (int i = 0; i < spec.deep_blocks; ++i) {
      layout.Assign(std::string("op-deep-") + op, "",
                    static_cast<uint32_t>(i));
    }
  };
  walk_op("bind", sock.bind);
  walk_op("connect", sock.connect);
  walk_op("sendto", sock.sendto);
  walk_op("recvfrom", sock.recvfrom);
  walk_op("listen", sock.listen);
  walk_op("accept", sock.accept);
  return layout;
}

size_t
MaxBlocksOf(const DeviceSpec& dev)
{
  return BlockLayout::ForDevice(dev).BlockCount();
}

namespace {

/// Reads one top-level field of `layout` out of a user buffer.
uint64_t
ReadField(const Buffer& buf, const StructLayout& layout,
          const std::string& field)
{
  const FieldLayout* fl = layout.Find(field);
  if (!fl) return 0;
  size_t scalar = fl->size > 8 ? 8 : fl->size;
  return buf.ReadScalar(fl->offset, scalar);
}

/// Evaluates a validation check against the user buffer.
bool
CheckPasses(const CheckSpec& check, const Buffer& buf,
            const StructLayout& layout, const StructSpec* arg)
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
    case CheckSpec::Kind::kLenBound: {
      uint64_t capacity = 4096;
      if (arg) {
        const FieldSpec* len_field = arg->FindField(check.field);
        if (len_field) {
          const FieldSpec* target = arg->FindField(len_field->len_of);
          if (target && target->array_len > 0) capacity = target->array_len;
        }
      }
      return raw <= capacity;
    }
  }
  return false;
}

const StructSpec*
FindStructIn(const std::vector<StructSpec>& structs, const std::string& name)
{
  if (name.empty()) return nullptr;
  for (const auto& s : structs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Small-index bit set replacing the per-file unordered_set<string> that
/// used to track executed command macros (sequence-bug state). Macros get
/// dense indices at module-table build time; the hot path tests and sets
/// bits, never hashing a string.
class ExecutedSet {
 public:
  bool Test(int idx) const {
    if (idx < 0) return false;
    const size_t i = static_cast<size_t>(idx);
    if (i < 64) return (lo_ & (1ULL << i)) != 0;
    const size_t w = i / 64 - 1;
    return w < hi_.size() && (hi_[w] & (1ULL << (i % 64))) != 0;
  }

  void Set(int idx) {
    if (idx < 0) return;
    const size_t i = static_cast<size_t>(idx);
    if (i < 64) {
      lo_ |= 1ULL << i;
      return;
    }
    const size_t w = i / 64 - 1;
    if (w >= hi_.size()) hi_.resize(w + 1, 0);
    hi_[w] |= 1ULL << (i % 64);
  }

 private:
  uint64_t lo_ = 0;
  std::vector<uint64_t> hi_;  ///< Overflow words for >64 macros (rare).
};

/// Dense per-module macro numbering (commands, sockopt pseudo-commands,
/// socket op names, and sequence-bug priors all share one namespace, as
/// the old string set did).
class MacroIndex {
 public:
  int Add(const std::string& name) {
    auto [it, inserted] = map_.emplace(name, static_cast<int>(map_.size()));
    (void)inserted;
    return it->second;
  }

 private:
  std::unordered_map<std::string, int> map_;
};

/// Everything one command needs at dispatch time, computed once per
/// module instead of per call: the resolved arg struct and its layout,
/// the precomputed match/validation values, and the coverage block ids
/// (the old code re-hashed module/role/detail strings on every hit).
struct CmdRuntime {
  const IoctlSpec* cmd = nullptr;
  const StructSpec* arg_spec = nullptr;
  StructLayout layout;
  std::vector<size_t> out_fields;  ///< Indices of kOutValue layout fields.
  uint64_t match_value = 0;        ///< Full ioctl command value.
  uint64_t expect_size = 0;        ///< Arg struct size (_IOC size check).
  uint64_t cmd_block = 0;
  std::vector<uint64_t> check_blocks;
  std::vector<uint64_t> deep_block_ids;
  int macro_idx = -1;
  int bug_prior_idx = -1;
};

void
FillCmdRuntime(CmdRuntime* rt, const BlockLayout& blocks,
               const IoctlSpec& cmd, const std::vector<StructSpec>& structs,
               MacroIndex* macros)
{
  rt->cmd = &cmd;
  rt->arg_spec = FindStructIn(structs, cmd.arg_struct);
  if (rt->arg_spec) {
    rt->layout = ComputeLayout(*rt->arg_spec, structs);
    for (size_t i = 0; i < rt->layout.fields.size(); ++i) {
      if (rt->layout.fields[i].field->kind == FieldSpec::Kind::kOutValue) {
        rt->out_fields.push_back(i);
      }
    }
  }
  rt->expect_size = StructByteSize(cmd.arg_struct, structs);
  rt->cmd_block = blocks.IdOf("cmd", cmd.macro, 0);
  for (uint32_t idx = 1; idx <= cmd.checks.size(); ++idx) {
    rt->check_blocks.push_back(blocks.IdOf("check", cmd.macro, idx));
  }
  for (int i = 0; i < cmd.deep_blocks; ++i) {
    rt->deep_block_ids.push_back(
        blocks.IdOf("deep", cmd.macro, static_cast<uint32_t>(i)));
  }
  rt->macro_idx = macros->Add(cmd.macro);
  if (cmd.bug && cmd.bug->trigger == BugSpec::Trigger::kSequence) {
    rt->bug_prior_idx = macros->Add(cmd.bug->prior_cmd);
  }
}

/// Free-list of pooled per-open handler objects. The fuzzing hot path
/// opens and closes device files millions of times; pooling reuses both
/// the handler object (its strings/vectors keep their capacity) and its
/// shared_ptr control block, so a steady-state open costs zero
/// allocations. Each per-kernel ModelDevice/ModelSocketFamily owns one
/// pool; the vkernel returns handlers through the HandlerRecycler hook
/// when their last descriptor drops. Kernels are single-threaded and
/// never share a pool, so no locking.
class HandlerPool : public vkernel::HandlerRecycler {
 public:
  void Recycle(std::shared_ptr<FileHandler> handler) override {
    free_.push_back(std::move(handler));
  }

  /// Pops a pooled handler; nullptr when the pool is empty. The caller
  /// must fully re-initialize it before reissuing.
  std::shared_ptr<FileHandler> Take() {
    if (free_.empty()) return nullptr;
    std::shared_ptr<FileHandler> handler = std::move(free_.back());
    free_.pop_back();
    return handler;
  }

 private:
  std::vector<std::shared_ptr<FileHandler>> free_;
};

/// Shared per-command execution used by device files and sockets.
/// Returns the syscall result; fills `created_fd_handler` when the
/// command creates a secondary file.
class CommandEngine {
 public:
  CommandEngine() = default;

  /// Runs checks, bug triggers, deep path, and out-field writes for one
  /// matched command. `executed` carries the macros already run on this
  /// file (sequence-bug state). Returns 0 or negative errno.
  long RunCommand(const CmdRuntime& rt, Buffer* arg, ExecContext& ctx,
                  ExecutedSet* executed, bool* release_bomb,
                  std::string* release_title) {
    const IoctlSpec& cmd = *rt.cmd;
    ctx.Cover(rt.cmd_block);

    if (rt.arg_spec) {
      // copy_from_user fails when the user buffer is too small.
      if (!arg || arg->size() < rt.layout.total_size) {
        return -vkernel::kEFAULT;
      }
      for (size_t k = 0; k < cmd.checks.size(); ++k) {
        if (!CheckPasses(cmd.checks[k], *arg, rt.layout, rt.arg_spec)) {
          return -vkernel::kEINVAL;
        }
        ctx.Cover(rt.check_blocks[k]);
      }
    }

    // Bug triggers evaluated at the top of the deep path, like the
    // rendered source places them.
    if (cmd.bug) {
      const BugSpec& bug = *cmd.bug;
      bool fire = false;
      switch (bug.trigger) {
        case BugSpec::Trigger::kFieldAtLeast:
          fire = rt.arg_spec && arg &&
                 ReadField(*arg, rt.layout, bug.field) >= bug.value;
          break;
        case BugSpec::Trigger::kFieldEquals:
          fire = rt.arg_spec && arg &&
                 ReadField(*arg, rt.layout, bug.field) == bug.value;
          break;
        case BugSpec::Trigger::kFieldZero:
          fire = rt.arg_spec && arg &&
                 ReadField(*arg, rt.layout, bug.field) == 0;
          break;
        case BugSpec::Trigger::kSequence:
          fire = executed && executed->Test(rt.bug_prior_idx);
          break;
        case BugSpec::Trigger::kOnRelease:
          if (release_bomb) {
            *release_bomb = true;
            *release_title = bug.title;
          }
          break;
        case BugSpec::Trigger::kAlways:
          fire = true;
          break;
      }
      if (fire) ctx.Crash(bug.title);
    }

    for (uint64_t block : rt.deep_block_ids) ctx.Cover(block);

    // Kernel-written output fields.
    if (rt.arg_spec && arg) {
      for (size_t fi : rt.out_fields) {
        const FieldLayout& fl = rt.layout.fields[fi];
        arg->WriteScalar(fl.offset, fl.size > 8 ? 8 : fl.size,
                         0x1000 + next_out_++);
      }
    }
    if (executed) executed->Set(rt.macro_idx);
    return 0;
  }

 private:
  uint64_t next_out_ = 0;
};

/// One setsockopt/getsockopt option with its precomputed pseudo-commands.
struct SockOptRuntime {
  const SockOptSpec* opt = nullptr;
  IoctlSpec set_pseudo;
  IoctlSpec get_pseudo;
  CmdRuntime set_rt;
  CmdRuntime get_rt;
  size_t get_need = 0;  ///< Kernel-filled buffer size for the get path.
};

/// One socket-level operation (bind/connect/...) with precomputed blocks.
struct OpRuntime {
  const SocketOpSpec* spec = nullptr;
  uint64_t op_block = 0;
  std::vector<uint64_t> check_blocks;
  std::vector<uint64_t> deep_block_ids;
  int macro_idx = -1;
  int bug_prior_idx = -1;
};

}  // namespace

// ---------------------------------------------------------------------------
// Immutable tables (built once per spec, shared by every kernel)
// ---------------------------------------------------------------------------

struct DeviceTables {
  const DeviceSpec* dev;
  BlockLayout blocks;  ///< Dense per-module block ids (spec order).
  uint64_t open_block;
  std::unordered_map<const HandlerSpec*, std::vector<CmdRuntime>> handlers;

  explicit DeviceTables(const DeviceSpec* d)
      : dev(d),
        blocks(BlockLayout::ForDevice(*d)),
        open_block(blocks.IdOf("open", "", 0)) {
    MacroIndex macros;
    BuildHandler(&d->primary, &macros);
    for (const auto& h : d->secondary) BuildHandler(&h, &macros);
  }

  void BuildHandler(const HandlerSpec* h, MacroIndex* macros) {
    std::vector<CmdRuntime>& cmds = handlers[h];
    cmds.resize(h->ioctls.size());
    for (size_t i = 0; i < h->ioctls.size(); ++i) {
      FillCmdRuntime(&cmds[i], blocks, h->ioctls[i], dev->structs, macros);
      cmds[i].match_value = FullCommandValue(*dev, h->ioctls[i]);
    }
  }

  const std::vector<CmdRuntime>* CmdsOf(const HandlerSpec* h) const {
    auto it = handlers.find(h);
    return it == handlers.end() ? nullptr : &it->second;
  }
};

struct SocketTables {
  const SocketSpec* sock;
  BlockLayout blocks;  ///< Dense per-module block ids (spec order).
  uint64_t create_block;
  std::vector<CmdRuntime> ioctls;
  std::vector<SockOptRuntime> sockopts;
  const StructSpec* addr_spec = nullptr;
  StructLayout addr_layout;
  OpRuntime bind, connect, sendto, recvfrom, listen, accept;

  explicit SocketTables(const SocketSpec* s)
      : sock(s),
        blocks(BlockLayout::ForSocket(*s)),
        create_block(blocks.IdOf("create", "", 0)) {
    MacroIndex macros;
    ioctls.resize(s->ioctls.size());
    for (size_t i = 0; i < s->ioctls.size(); ++i) {
      FillCmdRuntime(&ioctls[i], blocks, s->ioctls[i], s->structs, &macros);
      ioctls[i].match_value = SocketCommandValue(s->ioctls[i]);
    }

    // resize() up front: CmdRuntime::cmd points at the sibling pseudo
    // spec, so elements must never relocate after FillCmdRuntime.
    sockopts.resize(s->sockopts.size());
    for (size_t i = 0; i < s->sockopts.size(); ++i) {
      SockOptRuntime& so = sockopts[i];
      so.opt = &s->sockopts[i];
      so.set_pseudo = PseudoCommand(*so.opt, /*set=*/true);
      so.get_pseudo = PseudoCommand(*so.opt, /*set=*/false);
      FillCmdRuntime(&so.set_rt, blocks, so.set_pseudo, s->structs, &macros);
      FillCmdRuntime(&so.get_rt, blocks, so.get_pseudo, s->structs, &macros);
      so.get_need = StructByteSize(so.opt->arg_struct, s->structs);
    }

    if (!s->addr_struct.empty()) {
      addr_spec = FindStructIn(s->structs, s->addr_struct);
      if (addr_spec) addr_layout = ComputeLayout(*addr_spec, s->structs);
    }

    BuildOp(&bind, "bind", s->bind, &macros);
    BuildOp(&connect, "connect", s->connect, &macros);
    BuildOp(&sendto, "sendto", s->sendto, &macros);
    BuildOp(&recvfrom, "recvfrom", s->recvfrom, &macros);
    BuildOp(&listen, "listen", s->listen, &macros);
    BuildOp(&accept, "accept", s->accept, &macros);
  }

  void BuildOp(OpRuntime* rt, const char* op, const SocketOpSpec& spec,
               MacroIndex* macros) {
    rt->spec = &spec;
    rt->op_block = blocks.IdOf("op", op, 0);
    uint32_t idx = 1;
    for (const CheckSpec& check : spec.checks) {
      rt->check_blocks.push_back(blocks.IdOf(
          std::string("op-check-") + op, check.field, idx++));
    }
    for (int i = 0; i < spec.deep_blocks; ++i) {
      rt->deep_block_ids.push_back(blocks.IdOf(
          std::string("op-deep-") + op, "", static_cast<uint32_t>(i)));
    }
    rt->macro_idx = macros->Add(op);
    if (spec.bug && spec.bug->trigger == BugSpec::Trigger::kSequence) {
      rt->bug_prior_idx = macros->Add(spec.bug->prior_cmd);
    }
  }

  IoctlSpec PseudoCommand(const SockOptSpec& opt, bool set) const {
    IoctlSpec pseudo;
    pseudo.macro = (set ? "SET_" : "GET_") + opt.macro;
    pseudo.arg_struct = opt.arg_struct;
    pseudo.checks = set ? opt.checks : std::vector<CheckSpec>{};
    pseudo.deep_blocks = opt.deep_blocks;
    pseudo.bug = set ? opt.bug : std::nullopt;
    return pseudo;
  }

  uint64_t SocketCommandValue(const IoctlSpec& cmd) const {
    uint64_t size = StructByteSize(cmd.arg_struct, sock->structs);
    char r = (cmd.ioc_dir == 'r' || cmd.ioc_dir == 'b') ? 'r' : '-';
    char w = (cmd.ioc_dir == 'w' || cmd.ioc_dir == 'b') ? 'w' : '-';
    if (cmd.ioc_dir == 'n') size = 0;
    return ksrc::IoctlNumber(r, w, 0x89, cmd.nr, size);  // SIOC family.
  }
};

namespace {

// ---------------------------------------------------------------------------
// Device side (per kernel)
// ---------------------------------------------------------------------------

std::shared_ptr<FileHandler> AcquireModelFile(const DeviceTables* tables,
                                              HandlerPool* pool,
                                              const HandlerSpec* handler);

class ModelFile : public FileHandler {
 public:
  ModelFile(const DeviceTables* tables, HandlerPool* pool,
            const HandlerSpec* handler)
      : rt_(tables), pool_(pool), cmds_(tables->CmdsOf(handler)) {}

  /// Restores freshly-opened state on a pooled object (same observable
  /// behaviour as constructing a new ModelFile for `handler`).
  void Reset(const HandlerSpec* handler) {
    cmds_ = rt_->CmdsOf(handler);
    engine_ = CommandEngine();
    executed_ = ExecutedSet();
    release_bomb_ = false;
    release_title_.clear();
  }

  long Ioctl(uint64_t cmd_value, Buffer* arg, KernelModel& kernel) override {
    ExecContext& ctx = kernel.context();
    const CmdRuntime* match = MatchCommand(cmd_value);
    if (!match) return -vkernel::kENOTTY;

    if (rt_->dev->dispatch == DispatchStyle::kIocNrSwitch) {
      // The rendered dispatcher validates the size bits of the full
      // command; a bare nr value (SyzDescribe's wrong inference) fails.
      if (!match->cmd->arg_struct.empty() &&
          ksrc::IocSize(cmd_value) < match->expect_size) {
        return -vkernel::kEINVAL;
      }
    }

    if (!match->cmd->creates_handler.empty()) {
      long rc = engine_.RunCommand(*match, arg, ctx, &executed_,
                                   &release_bomb_, &release_title_);
      if (rc != 0) return rc;
      const HandlerSpec* sub =
          rt_->dev->FindHandler(match->cmd->creates_handler);
      if (!sub) return -vkernel::kEINVAL;
      return kernel.InstallFile(AcquireModelFile(rt_, pool_, sub));
    }
    return engine_.RunCommand(*match, arg, ctx, &executed_, &release_bomb_,
                              &release_title_);
  }

  void Release(KernelModel& kernel) override {
    if (release_bomb_) kernel.context().Crash(release_title_);
  }

 private:
  const CmdRuntime* MatchCommand(uint64_t cmd_value) const {
    if (!cmds_) return nullptr;
    for (const CmdRuntime& rt : *cmds_) {
      switch (rt_->dev->dispatch) {
        case DispatchStyle::kDirectSwitch:
        case DispatchStyle::kTableLookup:
          if (rt.match_value == cmd_value) return &rt;
          break;
        case DispatchStyle::kIocNrSwitch:
          if (ksrc::IocNr(cmd_value) == rt.cmd->nr) return &rt;
          break;
      }
    }
    return nullptr;
  }

  const DeviceTables* rt_;
  HandlerPool* pool_;  ///< The owning ModelDevice's pool (sub-handlers).
  const std::vector<CmdRuntime>* cmds_;
  CommandEngine engine_;
  ExecutedSet executed_;
  bool release_bomb_ = false;
  std::string release_title_;
};

/// Pool-aware ModelFile construction: reuses a recycled object when one
/// is available, otherwise allocates and tags it with the pool.
std::shared_ptr<FileHandler>
AcquireModelFile(const DeviceTables* tables, HandlerPool* pool,
                 const HandlerSpec* handler)
{
  if (std::shared_ptr<FileHandler> pooled = pool->Take()) {
    static_cast<ModelFile*>(pooled.get())->Reset(handler);
    return pooled;
  }
  std::shared_ptr<ModelFile> file =
      std::make_shared<ModelFile>(tables, pool, handler);
  file->set_recycler(pool);
  return file;
}

/// The per-kernel half of a device: shared tables plus this kernel's
/// pool of recycled ModelFile objects (primary and secondary handlers
/// share it; Reset rebinds the command table).
class ModelDevice : public vkernel::DeviceDriver {
 public:
  explicit ModelDevice(std::shared_ptr<const DeviceTables> tables)
      : tables_(std::move(tables)) {}

  std::string Name() const override { return tables_->dev->id; }
  std::string NodePath() const override { return tables_->dev->dev_node; }

  std::shared_ptr<FileHandler> Open(KernelModel& kernel,
                                    long* err) override {
    (void)err;
    kernel.context().Cover(tables_->open_block);
    return AcquireModelFile(tables_.get(), &pool_, &tables_->dev->primary);
  }

 private:
  std::shared_ptr<const DeviceTables> tables_;
  HandlerPool pool_;
};

// ---------------------------------------------------------------------------
// Socket side (per kernel)
// ---------------------------------------------------------------------------

class ModelSocket : public vkernel::SocketHandler {
 public:
  explicit ModelSocket(const SocketTables* rt) : rt_(rt) {}

  /// Restores freshly-created state on a pooled object.
  void Reset() {
    engine_ = CommandEngine();
    executed_ = ExecutedSet();
    release_bomb_ = false;
    release_title_.clear();
  }

  long SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                  KernelModel& kernel) override {
    ExecContext& ctx = kernel.context();
    if (level != rt_->sock->sol_level) return -vkernel::kENOPROTOOPT;
    for (const SockOptRuntime& so : rt_->sockopts) {
      if (!so.opt->settable || so.opt->value != optname) continue;
      Buffer copy = val;  // Views copy cheaply; writes materialize.
      return engine_.RunCommand(so.set_rt, &copy, ctx, &executed_,
                                &release_bomb_, &release_title_);
    }
    return -vkernel::kENOPROTOOPT;
  }

  long GetSockOpt(uint64_t level, uint64_t optname, Buffer* val,
                  KernelModel& kernel) override {
    ExecContext& ctx = kernel.context();
    if (level != rt_->sock->sol_level) return -vkernel::kENOPROTOOPT;
    for (const SockOptRuntime& so : rt_->sockopts) {
      if (!so.opt->gettable || so.opt->value != optname) continue;
      // get path: kernel fills the buffer; size it to the struct.
      if (val && val->size() < so.get_need) val->Resize(so.get_need);
      return engine_.RunCommand(so.get_rt, val, ctx, &executed_,
                                &release_bomb_, &release_title_);
    }
    return -vkernel::kENOPROTOOPT;
  }

  long Ioctl(uint64_t cmd_value, Buffer* arg, KernelModel& kernel) override {
    ExecContext& ctx = kernel.context();
    for (const CmdRuntime& rt : rt_->ioctls) {
      if (rt.match_value == cmd_value) {
        return engine_.RunCommand(rt, arg, ctx, &executed_, &release_bomb_,
                                  &release_title_);
      }
    }
    return -vkernel::kENOTTY;
  }

  long Bind(const Buffer& addr, KernelModel& kernel) override {
    return RunOp(rt_->bind, addr, kernel.context());
  }

  long Connect(const Buffer& addr, KernelModel& kernel) override {
    return RunOp(rt_->connect, addr, kernel.context());
  }

  long SendTo(const Buffer& data, const Buffer& addr,
              KernelModel& kernel) override {
    (void)data;
    return RunOp(rt_->sendto, addr, kernel.context());
  }

  long RecvFrom(Buffer* data, KernelModel& kernel) override {
    if (data) data->Resize(64);
    Buffer empty;
    return RunOp(rt_->recvfrom, empty, kernel.context());
  }

  long Listen(KernelModel& kernel) override {
    Buffer empty;
    return RunOp(rt_->listen, empty, kernel.context());
  }

  long Accept(KernelModel& kernel) override {
    Buffer empty;
    return RunOp(rt_->accept, empty, kernel.context());
  }

  void Release(KernelModel& kernel) override {
    if (release_bomb_) kernel.context().Crash(release_title_);
  }

 private:
  long RunOp(const OpRuntime& rt, const Buffer& addr, ExecContext& ctx) {
    const SocketOpSpec& spec = *rt.spec;
    if (!spec.supported) return -vkernel::kEOPNOTSUPP;
    ctx.Cover(rt.op_block);
    const StructSpec* addr_spec = rt_->addr_spec;
    const StructLayout& layout = rt_->addr_layout;
    if (addr_spec && !spec.checks.empty()) {
      if (addr.size() < layout.total_size) return -vkernel::kEFAULT;
      for (size_t k = 0; k < spec.checks.size(); ++k) {
        if (!CheckPasses(spec.checks[k], addr, layout, addr_spec)) {
          return -vkernel::kEINVAL;
        }
        ctx.Cover(rt.check_blocks[k]);
      }
    }
    if (spec.bug) {
      const BugSpec& bug = *spec.bug;
      bool fire = false;
      switch (bug.trigger) {
        case BugSpec::Trigger::kFieldAtLeast:
          fire = addr_spec && ReadField(addr, layout, bug.field) >= bug.value;
          break;
        case BugSpec::Trigger::kFieldZero:
          fire = addr_spec && ReadField(addr, layout, bug.field) == 0;
          break;
        case BugSpec::Trigger::kFieldEquals:
          fire = addr_spec && ReadField(addr, layout, bug.field) == bug.value;
          break;
        case BugSpec::Trigger::kSequence:
          fire = executed_.Test(rt.bug_prior_idx);
          break;
        case BugSpec::Trigger::kOnRelease:
          release_bomb_ = true;
          release_title_ = bug.title;
          break;
        case BugSpec::Trigger::kAlways:
          fire = true;
          break;
      }
      if (fire) ctx.Crash(bug.title);
    }
    for (uint64_t block : rt.deep_block_ids) ctx.Cover(block);
    executed_.Set(rt.macro_idx);
    return 0;
  }

  const SocketTables* rt_;
  CommandEngine engine_;
  ExecutedSet executed_;
  bool release_bomb_ = false;
  std::string release_title_;
};

/// The per-kernel half of a socket family: shared tables plus this
/// kernel's pool of recycled ModelSocket objects.
class ModelSocketFamily : public vkernel::SocketFamily {
 public:
  explicit ModelSocketFamily(std::shared_ptr<const SocketTables> tables)
      : tables_(std::move(tables)) {}

  std::string Name() const override { return tables_->sock->id; }
  uint64_t Domain() const override { return tables_->sock->domain; }

  std::shared_ptr<vkernel::SocketHandler> Create(uint64_t type,
                                                 uint64_t protocol,
                                                 KernelModel& kernel,
                                                 long* err) override {
    const SocketSpec& spec = *tables_->sock;
    if (spec.sock_type != 0 && type != spec.sock_type) {
      *err = -vkernel::kEINVAL;
      return nullptr;
    }
    if (spec.protocol != 0 && protocol != spec.protocol) {
      *err = -vkernel::kEINVAL;
      return nullptr;
    }
    kernel.context().Cover(tables_->create_block);
    if (std::shared_ptr<FileHandler> pooled = pool_.Take()) {
      auto* sock = static_cast<ModelSocket*>(pooled.get());
      sock->Reset();
      return std::shared_ptr<vkernel::SocketHandler>(std::move(pooled),
                                                     sock);
    }
    std::shared_ptr<ModelSocket> sock =
        std::make_shared<ModelSocket>(tables_.get());
    sock->set_recycler(&pool_);
    return sock;
  }

 private:
  std::shared_ptr<const SocketTables> tables_;
  HandlerPool pool_;
};

}  // namespace

std::shared_ptr<const DeviceTables>
BuildDeviceTables(const DeviceSpec& dev)
{
  return std::make_shared<DeviceTables>(&dev);
}

std::shared_ptr<const SocketTables>
BuildSocketTables(const SocketSpec& sock)
{
  return std::make_shared<SocketTables>(&sock);
}

std::unique_ptr<vkernel::DeviceDriver>
MakeModelDevice(std::shared_ptr<const DeviceTables> tables)
{
  return std::make_unique<ModelDevice>(std::move(tables));
}

std::unique_ptr<vkernel::SocketFamily>
MakeModelSocketFamily(std::shared_ptr<const SocketTables> tables)
{
  return std::make_unique<ModelSocketFamily>(std::move(tables));
}

std::unique_ptr<vkernel::DeviceDriver>
MakeModelDevice(const DeviceSpec* dev)
{
  return MakeModelDevice(BuildDeviceTables(*dev));
}

std::unique_ptr<vkernel::SocketFamily>
MakeModelSocketFamily(const SocketSpec* sock)
{
  return MakeModelSocketFamily(BuildSocketTables(*sock));
}

}  // namespace kernelgpt::drivers
