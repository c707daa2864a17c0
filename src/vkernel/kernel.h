/// \file
/// The reference virtual kernel: syscall dispatch over registered device
/// drivers and socket families, with a per-program virtual-fd table.
/// This is the fuzzing target substrate standing in for a booted Linux +
/// QEMU setup. `Kernel` implements the abstract `KernelModel` API
/// (model.h); its behavior is parameterized by a small `KernelPolicy` so
/// personalities (StrictModel — the byte-identical reference — and
/// PermissiveModel) share one engine while disagreeing observably on
/// validation strictness, errno policy, and fd-space layout.

#ifndef KERNELGPT_VKERNEL_KERNEL_H_
#define KERNELGPT_VKERNEL_KERNEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "vkernel/fd_table.h"
#include "vkernel/file.h"
#include "vkernel/model.h"
#include "vkernel/verrno.h"

namespace kernelgpt::vkernel {

/// The knobs a personality turns. Defaults reproduce the historical
/// (strict) kernel bit-for-bit.
struct KernelPolicy {
  std::string name = "strict";  ///< KernelModel::ModelName().
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

/// Single-threaded virtual kernel instance.
///
/// Drivers and socket families are registered once; BeginProgram() resets
/// per-program state (fd table and socket-family state) between fuzz
/// programs, like rebooting a lightweight VM snapshot.
class Kernel : public KernelModel {
 public:
  Kernel() = default;
  explicit Kernel(KernelPolicy policy)
      : policy_(std::move(policy)), fds_(policy_.fd_layout) {}

  const KernelPolicy& policy() const { return policy_; }

  // -- Identity ------------------------------------------------------------

  std::string ModelName() const override { return policy_.name; }

  // -- Registration --------------------------------------------------------

  void RegisterDevice(std::unique_ptr<DeviceDriver> driver) override;
  void RegisterSocketFamily(std::unique_ptr<SocketFamily> family) override;

  const std::vector<std::unique_ptr<DeviceDriver>>& devices() const override {
    return devices_;
  }
  const std::vector<std::unique_ptr<SocketFamily>>& socket_families()
      const override {
    return families_;
  }

  DeviceDriver* FindDeviceByPath(std::string_view path) const override;
  SocketFamily* FindFamilyByDomain(uint64_t domain) const override;

  // -- Program lifecycle ---------------------------------------------------

  /// Resets per-program state: clears the fd table and calls
  /// ResetState() on every socket family (the vnet TCP/UDP port spaces).
  /// Device drivers keep no module-global state between programs; their
  /// per-file state lives in handlers that EndProgram releases.
  void BeginProgram() override;

  /// Closes all remaining descriptors (releasing driver objects).
  void EndProgram(ExecContext& ctx) override;

  // -- Syscalls ------------------------------------------------------------

  SyscallResult Openat(std::string_view path, uint64_t flags,
                       ExecContext& ctx) override;
  SyscallResult Close(long fd, ExecContext& ctx) override;
  SyscallResult Dup(long fd, ExecContext& ctx) override;
  SyscallResult Ioctl(long fd, uint64_t cmd, Buffer* arg,
                      ExecContext& ctx) override;
  SyscallResult Read(long fd, Buffer* out, ExecContext& ctx) override;
  SyscallResult Write(long fd, const Buffer& in, ExecContext& ctx) override;
  SyscallResult Poll(long fd, ExecContext& ctx) override;
  SyscallResult Mmap(long fd, uint64_t length, ExecContext& ctx) override;

  SyscallResult Socket(uint64_t domain, uint64_t type, uint64_t protocol,
                       ExecContext& ctx) override;
  SyscallResult SetSockOpt(long fd, uint64_t level, uint64_t optname,
                           const Buffer& val, ExecContext& ctx) override;
  SyscallResult GetSockOpt(long fd, uint64_t level, uint64_t optname,
                           Buffer* val, ExecContext& ctx) override;
  SyscallResult Bind(long fd, const Buffer& addr, ExecContext& ctx) override;
  SyscallResult Connect(long fd, const Buffer& addr,
                        ExecContext& ctx) override;
  SyscallResult SendTo(long fd, const Buffer& data, const Buffer& addr,
                       ExecContext& ctx) override;
  SyscallResult RecvFrom(long fd, Buffer* data, ExecContext& ctx) override;
  SyscallResult Listen(long fd, ExecContext& ctx) override;
  SyscallResult Accept(long fd, ExecContext& ctx) override;

  // -- Services for handlers ----------------------------------------------

  long InstallFile(std::shared_ptr<FileHandler> handler) override;
  long InstallSocket(std::shared_ptr<SocketHandler> handler) override;
  FileHandler* LookupFd(long fd) const override;
  FdShape FdTableShape() const override { return fds_.Shape(); }
  std::string ModuleStateShape() const override;

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

  long InstallEntry(std::shared_ptr<FileHandler> handler, bool is_socket);
};

/// The reference personality: `Kernel`'s defaults, unchanged semantics.
using StrictModel = Kernel;

/// The lenient personality (KernelPolicy::Permissive()): same drivers,
/// same engine, observably different validation/errno/fd-space choices —
/// the second party of the differential oracle.
class PermissiveModel : public Kernel {
 public:
  PermissiveModel() : Kernel(KernelPolicy::Permissive()) {}
};

/// Factories for the two built-in personalities.
std::unique_ptr<KernelModel> MakeStrictModel();
std::unique_ptr<KernelModel> MakePermissiveModel();

}  // namespace kernelgpt::vkernel

#endif  // KERNELGPT_VKERNEL_KERNEL_H_
