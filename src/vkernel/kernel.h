/// \file
/// The virtual kernel: syscall dispatch over registered device drivers
/// and socket families, with a per-program virtual-fd table. This is the
/// fuzzing target substrate standing in for a booted Linux + QEMU setup.
/// There is one concrete `Kernel` type; a personality is a `KernelPolicy`
/// value (strict — the byte-identical reference — or permissive), so the
/// differential oracle's two sides share one engine while disagreeing
/// observably on validation strictness, errno policy, and fd-space
/// layout.

#ifndef KERNELGPT_VKERNEL_KERNEL_H_
#define KERNELGPT_VKERNEL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "vkernel/fd_table.h"
#include "vkernel/file.h"
#include "vkernel/verrno.h"

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

/// The knobs a personality turns. Defaults reproduce the historical
/// (strict) kernel bit-for-bit.
struct KernelPolicy {
  std::string name = "strict";  ///< Recorded in differential reports.
  FdLayout fd_layout;           ///< Unified base-3 layout by default.

  /// Errno for operations on descriptors that are invalid or closed.
  long bad_fd_errno = kEBADF;

  /// Lenient close: close() of an invalid/closed descriptor succeeds
  /// (returns 0) instead of failing with bad_fd_errno.
  bool close_invalid_fd_ok = false;

  /// Errno for openat() on a path no registered device claims.
  long unknown_path_errno = kENOENT;

  /// Errno for socket() with a domain no registered family claims.
  long unknown_domain_errno = kEAFNOSUPPORT;

  // -- Network-stack (vnet) semantics ---------------------------------------
  // Real kernels disagree on these lenient corners; the strict defaults
  // refuse, the permissive personality accepts, and the differential
  // oracle surfaces the disagreement as net-policy divergences.

  /// listen() on a socket already in LISTEN succeeds (backlog refresh)
  /// instead of failing with EINVAL.
  bool net_relisten_ok = false;

  /// bind() on an already-bound socket rebinds (releasing the old port)
  /// instead of failing with EINVAL.
  bool net_rebind_ok = false;

  /// bind() to a port lingering in TIME_WAIT succeeds (implicit
  /// SO_REUSEADDR) instead of failing with EADDRINUSE.
  bool net_reuse_timewait_ok = false;

  static KernelPolicy Strict() { return KernelPolicy{}; }

  /// Lenient flag/arg validation with a differing errno policy and a
  /// split fd space (files from 3, sockets from 1000) so descriptor
  /// translation is exercised, not just renamed.
  static KernelPolicy Permissive() {
    KernelPolicy p;
    p.name = "permissive";
    p.fd_layout = FdLayout{3, 1000};
    p.bad_fd_errno = kEINVAL;
    p.close_invalid_fd_ok = true;
    p.unknown_path_errno = kENODEV;
    p.unknown_domain_errno = kEINVAL;
    p.net_relisten_ok = true;
    p.net_rebind_ok = true;
    p.net_reuse_timewait_ok = true;
    return p;
  }
};

/// Single-threaded virtual kernel instance: one per worker.
///
/// Drivers and socket families are registered once; BeginProgram() resets
/// per-program state (fd table and socket-family state) between fuzz
/// programs, like rebooting a lightweight VM snapshot.
class Kernel {
 public:
  Kernel() = default;
  explicit Kernel(KernelPolicy policy)
      : policy_(std::move(policy)), fds_(policy_.fd_layout) {}
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const KernelPolicy& policy() const { return policy_; }

  // -- Registration --------------------------------------------------------

  void RegisterDevice(std::unique_ptr<DeviceDriver> driver);
  void RegisterSocketFamily(std::unique_ptr<SocketFamily> family);

  const std::vector<std::unique_ptr<DeviceDriver>>& devices() const {
    return devices_;
  }
  const std::vector<std::unique_ptr<SocketFamily>>& socket_families() const {
    return families_;
  }

  DeviceDriver* FindDeviceByPath(std::string_view path) const;
  SocketFamily* FindFamilyByDomain(uint64_t domain) const;

  // -- Program lifecycle ---------------------------------------------------

  /// Resets per-program state: clears the fd table and calls
  /// ResetState() on every socket family (the vnet TCP/UDP port spaces).
  /// Device drivers keep no module-global state between programs; their
  /// per-file state lives in handlers that EndProgram releases.
  void BeginProgram();

  /// Closes all remaining descriptors (releasing driver objects).
  void EndProgram(ExecContext& ctx);

  // -- Syscalls ------------------------------------------------------------
  // Each entry publishes `ctx` as context() for the handler hooks it runs.

  SyscallResult Openat(std::string_view path, uint64_t flags,
                       ExecContext& ctx);
  SyscallResult Close(long fd, ExecContext& ctx);
  SyscallResult Dup(long fd, ExecContext& ctx);
  SyscallResult Ioctl(long fd, uint64_t cmd, Buffer* arg, ExecContext& ctx);
  SyscallResult Read(long fd, Buffer* out, ExecContext& ctx);
  SyscallResult Write(long fd, const Buffer& in, ExecContext& ctx);
  SyscallResult Poll(long fd, ExecContext& ctx);
  SyscallResult Mmap(long fd, uint64_t length, ExecContext& ctx);

  SyscallResult Socket(uint64_t domain, uint64_t type, uint64_t protocol,
                       ExecContext& ctx);
  SyscallResult SetSockOpt(long fd, uint64_t level, uint64_t optname,
                           const Buffer& val, ExecContext& ctx);
  SyscallResult GetSockOpt(long fd, uint64_t level, uint64_t optname,
                           Buffer* val, ExecContext& ctx);
  SyscallResult Bind(long fd, const Buffer& addr, ExecContext& ctx);
  SyscallResult Connect(long fd, const Buffer& addr, ExecContext& ctx);
  SyscallResult SendTo(long fd, const Buffer& data, const Buffer& addr,
                       ExecContext& ctx);
  SyscallResult RecvFrom(long fd, Buffer* data, ExecContext& ctx);
  SyscallResult Listen(long fd, ExecContext& ctx);
  SyscallResult Accept(long fd, ExecContext& ctx);

  // -- Services for handlers ----------------------------------------------

  /// Installs a handler under a fresh descriptor (used by drivers like
  /// kvm whose ioctls create new file objects). Returns the vfd.
  long InstallFile(std::shared_ptr<FileHandler> handler);

  /// Installs a socket handler under a fresh descriptor in the socket
  /// fd space (used by accept() to issue the peer of an established
  /// connection). Returns the vfd.
  long InstallSocket(std::shared_ptr<SocketHandler> handler);

  /// Looks up an open descriptor; nullptr if invalid.
  FileHandler* LookupFd(long fd) const;

  /// Observable fd-table shape (open file/socket counts). Compared by
  /// the differential oracle at end of program.
  FdShape FdTableShape() const { return fds_.Shape(); }

  /// Normalized per-module/per-socket state summary, compared by the
  /// differential oracle after fd shapes. Walks descriptors in slot
  /// (install) order — which is identical across fd layouts — so fd
  /// numbering differences stay non-divergent; modules with no
  /// observable state contribute nothing. Empty when nothing stateful
  /// is open.
  std::string ModuleStateShape() const;

  /// The execution context of the in-flight syscall. Only valid while a
  /// syscall or EndProgram is on the stack (which is the only time
  /// handler hooks run).
  ExecContext& context() const { return *ctx_; }

 private:
  SocketHandler* LookupSocket(long fd) const;

  /// Returns a handler to its pool when the kernel held the last
  /// reference and the handler is pooled; otherwise just drops the ref.
  void RecycleIfPooled(std::shared_ptr<FileHandler> handler);

  KernelPolicy policy_;

  std::vector<std::unique_ptr<DeviceDriver>> devices_;
  std::vector<std::unique_ptr<SocketFamily>> families_;

  /// Node path -> device, built at registration so Openat resolves with
  /// one transparent lookup instead of a linear NodePath() string scan.
  /// std::less<> enables string_view lookups without a temporary string.
  std::map<std::string, DeviceDriver*, std::less<>> device_by_path_;

  /// Per-program descriptor table; numbering is owned by the policy's
  /// FdLayout (the strict unified layout reproduces the historical
  /// monotonic fds starting at 3).
  FdTable fds_;

  /// Context of the in-flight syscall (see context()).
  ExecContext* ctx_ = nullptr;

  long InstallEntry(std::shared_ptr<FileHandler> handler, bool is_socket);
};

/// Builds a fresh, unbooted kernel; workers that need their own kernel
/// (orchestrator shards, diff runners) call this per worker.
using ModelFactory = std::function<std::unique_ptr<Kernel>()>;

/// Factories for the two built-in personalities: Kernel{Strict()} and
/// Kernel{Permissive()}.
std::unique_ptr<Kernel> MakeStrictModel();
std::unique_ptr<Kernel> MakePermissiveModel();

}  // namespace kernelgpt::vkernel

#endif  // KERNELGPT_VKERNEL_KERNEL_H_
