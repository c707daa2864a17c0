/// \file
/// The vkernel public API: an abstract KernelModel that the fuzzing
/// layers (executor, orchestrator, distiller, session) program against,
/// so the same fuzz program can run on different kernel personalities
/// (strict vs. permissive semantics, model-vN vs. model-vN+1) and
/// divergence becomes a finding — the klee-mc SysModel pattern.
///
/// A model exposes boot-time registration, the program lifecycle (one
/// reset per program, in BeginProgram), typed syscall wrappers returning
/// SyscallResult, and one uniform `Syscall(op, args, ctx)` entry the
/// opcode dispatcher drives. Each model owns its virtual-fd space
/// through an FdTable (fd_table.h).

#ifndef KERNELGPT_VKERNEL_MODEL_H_
#define KERNELGPT_VKERNEL_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "vkernel/fd_table.h"
#include "vkernel/file.h"

namespace kernelgpt::vkernel {

/// Outcome of one syscall: the return value userspace sees plus the
/// virtual errno, replacing the old negative-errno `long` encoding.
/// Invariants: `verrno == 0` iff the call succeeded, and `raw()` equals
/// the value the old encoding produced (so success ⇔ raw() >= 0).
struct SyscallResult {
  long retval = 0;  ///< Userspace return value (negative errno on failure).
  long verrno = 0;  ///< 0 on success, positive errno on failure.

  bool ok() const { return verrno == 0; }

  /// The legacy negative-errno encoding (handler/driver ABI).
  long raw() const { return verrno != 0 ? -verrno : retval; }

  static SyscallResult Ok(long value) { return {value, 0}; }
  static SyscallResult Err(long err) { return {-err, err}; }

  /// Wraps a legacy negative-errno return value.
  static SyscallResult FromRaw(long rc) {
    return rc < 0 ? SyscallResult{rc, -rc} : SyscallResult{rc, 0};
  }

  bool operator==(const SyscallResult& o) const {
    return retval == o.retval && verrno == o.verrno;
  }
  bool operator!=(const SyscallResult& o) const { return !(*this == o); }
};

/// Operation selector for the uniform Syscall() entry. The executor maps
/// spec-level opcodes onto these (open/openat collapse to kOpenat,
/// sendmsg to kSendTo with empty buffers).
enum class ModelOp : uint8_t {
  kOpenat,
  kClose,
  kDup,
  kIoctl,
  kRead,
  kWrite,
  kPoll,
  kMmap,
  kSocket,
  kSetSockOpt,
  kGetSockOpt,
  kBind,
  kConnect,
  kSendTo,
  kRecvFrom,
  kListen,
  kAccept,
};

/// Argument pack for the uniform Syscall() entry. Which fields an op
/// consumes mirrors the typed wrapper it dispatches to; unused fields
/// are ignored. Buffer pointers borrow caller storage for the call.
struct SyscallArgs {
  std::string_view path;     ///< kOpenat node path.
  long fd = -1;              ///< Descriptor operand.
  uint64_t a = 0;            ///< flags / cmd / length / domain / level.
  uint64_t b = 0;            ///< type / optname.
  uint64_t c = 0;            ///< protocol.
  const Buffer* in = nullptr;   ///< Input bytes (write / setsockopt / sendto).
  Buffer* io = nullptr;         ///< Kernel-written bytes (read / getsockopt /
                                ///< recvfrom / ioctl arg; may be null).
  const Buffer* addr = nullptr;  ///< Socket address (bind/connect/sendto).
};

/// Abstract kernel personality. Single-threaded, like the concrete
/// kernel it generalizes: one model instance per worker.
///
/// Handlers reach their execution context through `context()` instead of
/// an `ExecContext&` threaded through every hook — implementations must
/// publish the active context (set_context) on every syscall entry and
/// on EndProgram, so a personality cannot forget to plumb it.
class KernelModel {
 public:
  KernelModel() = default;
  KernelModel(const KernelModel&) = delete;
  KernelModel& operator=(const KernelModel&) = delete;
  virtual ~KernelModel() = default;

  // -- Identity ------------------------------------------------------------

  /// Stable personality name ("strict", "permissive", ...). Recorded in
  /// differential reports and snapshot fingerprints.
  virtual std::string ModelName() const = 0;

  // -- Registration --------------------------------------------------------

  virtual void RegisterDevice(std::unique_ptr<DeviceDriver> driver) = 0;
  virtual void RegisterSocketFamily(std::unique_ptr<SocketFamily> family) = 0;

  virtual const std::vector<std::unique_ptr<DeviceDriver>>& devices()
      const = 0;
  virtual const std::vector<std::unique_ptr<SocketFamily>>& socket_families()
      const = 0;

  virtual DeviceDriver* FindDeviceByPath(std::string_view path) const = 0;
  virtual SocketFamily* FindFamilyByDomain(uint64_t domain) const = 0;

  // -- Program lifecycle ---------------------------------------------------

  virtual void BeginProgram() = 0;
  virtual void EndProgram(ExecContext& ctx) = 0;

  // -- Typed syscalls ------------------------------------------------------

  virtual SyscallResult Openat(std::string_view path, uint64_t flags,
                               ExecContext& ctx) = 0;
  virtual SyscallResult Close(long fd, ExecContext& ctx) = 0;
  virtual SyscallResult Dup(long fd, ExecContext& ctx) = 0;
  virtual SyscallResult Ioctl(long fd, uint64_t cmd, Buffer* arg,
                              ExecContext& ctx) = 0;
  virtual SyscallResult Read(long fd, Buffer* out, ExecContext& ctx) = 0;
  virtual SyscallResult Write(long fd, const Buffer& in, ExecContext& ctx) = 0;
  virtual SyscallResult Poll(long fd, ExecContext& ctx) = 0;
  virtual SyscallResult Mmap(long fd, uint64_t length, ExecContext& ctx) = 0;

  virtual SyscallResult Socket(uint64_t domain, uint64_t type,
                               uint64_t protocol, ExecContext& ctx) = 0;
  virtual SyscallResult SetSockOpt(long fd, uint64_t level, uint64_t optname,
                                   const Buffer& val, ExecContext& ctx) = 0;
  virtual SyscallResult GetSockOpt(long fd, uint64_t level, uint64_t optname,
                                   Buffer* val, ExecContext& ctx) = 0;
  virtual SyscallResult Bind(long fd, const Buffer& addr, ExecContext& ctx) = 0;
  virtual SyscallResult Connect(long fd, const Buffer& addr,
                                ExecContext& ctx) = 0;
  virtual SyscallResult SendTo(long fd, const Buffer& data, const Buffer& addr,
                               ExecContext& ctx) = 0;
  virtual SyscallResult RecvFrom(long fd, Buffer* data, ExecContext& ctx) = 0;
  virtual SyscallResult Listen(long fd, ExecContext& ctx) = 0;
  virtual SyscallResult Accept(long fd, ExecContext& ctx) = 0;

  // -- Uniform entry -------------------------------------------------------

  /// Dispatches `op` to the typed wrapper above. The executor's opcode
  /// hot path drives this; personalities only implement the wrappers.
  SyscallResult Syscall(ModelOp op, const SyscallArgs& args, ExecContext& ctx);

  // -- Services for handlers ----------------------------------------------

  /// Installs a handler under a fresh descriptor (used by drivers like
  /// kvm whose ioctls create new file objects). Returns the vfd.
  virtual long InstallFile(std::shared_ptr<FileHandler> handler) = 0;

  /// Installs a socket handler under a fresh descriptor in the socket
  /// fd space (used by accept() to issue the peer of an established
  /// connection). Returns the vfd.
  virtual long InstallSocket(std::shared_ptr<SocketHandler> handler) = 0;

  /// Looks up an open descriptor; nullptr if invalid.
  virtual FileHandler* LookupFd(long fd) const = 0;

  /// Observable fd-table shape (open file/socket counts). Compared by
  /// the differential oracle at end of program.
  virtual FdShape FdTableShape() const = 0;

  /// Normalized per-module/per-socket state summary, compared by the
  /// differential oracle after fd shapes. Walks descriptors in slot
  /// (install) order — which is identical across fd layouts — so fd
  /// numbering differences stay non-divergent; modules with no
  /// observable state contribute nothing. Empty when nothing stateful
  /// is open.
  virtual std::string ModuleStateShape() const { return std::string(); }

  /// The execution context of the in-flight syscall. Only valid while a
  /// syscall or EndProgram is on the stack (which is the only time
  /// handler hooks run).
  ExecContext& context() const { return *ctx_; }

 protected:
  /// Publishes the active context for handler hooks; implementations
  /// call this on every public syscall entry and EndProgram.
  void set_context(ExecContext* ctx) { ctx_ = ctx; }

 private:
  ExecContext* ctx_ = nullptr;
};

/// Builds a fresh, unbooted model instance; workers that need their own
/// kernel (orchestrator shards, diff runners) call this per worker.
using ModelFactory = std::function<std::unique_ptr<KernelModel>()>;

}  // namespace kernelgpt::vkernel

#endif  // KERNELGPT_VKERNEL_MODEL_H_
