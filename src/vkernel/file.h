/// \file
/// File and socket handler interfaces of the virtual kernel — the analog
/// of `struct file_operations` and `struct proto_ops` instances bound to
/// an open file descriptor.

#ifndef KERNELGPT_VKERNEL_FILE_H_
#define KERNELGPT_VKERNEL_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vkernel/coverage.h"
#include "vkernel/verrno.h"

namespace kernelgpt::vkernel {

class Kernel;

/// Alias of the one concrete kernel type (kernel.h), under the name the
/// fuzzing layers and handler hooks use.
using KernelModel = Kernel;

/// Userspace memory attached to a pointer argument. Direction handling is
/// the executor's business; handlers read and write bytes freely.
///
/// A Buffer either owns its storage (`bytes`) or is a zero-copy view over
/// caller-owned memory (the executor wraps in-direction argument bytes
/// this way, so the hot path never deep-copies them). Reads go through
/// `data()`/`size()` and work on both forms; the first write materializes
/// a view into owned storage (copy-on-write), so handler semantics are
/// unchanged. The viewed memory must outlive the Buffer.
struct Buffer {
  std::vector<uint8_t> bytes;  ///< Owned storage; empty while viewing.

  Buffer() = default;

  /// Wraps caller-owned memory without copying.
  static Buffer View(const uint8_t* data, size_t size) {
    Buffer b;
    b.view_data_ = data;
    b.view_size_ = size;
    return b;
  }
  static Buffer View(const std::vector<uint8_t>& v) {
    return View(v.data(), v.size());
  }

  bool viewing() const { return view_data_ != nullptr; }
  size_t size() const { return view_data_ ? view_size_ : bytes.size(); }
  bool empty() const { return size() == 0; }
  const uint8_t* data() const {
    return view_data_ ? view_data_ : bytes.data();
  }

  /// Resizes the owned storage, copying a view's contents first.
  void Resize(size_t n) {
    Materialize();
    bytes.resize(n, 0);
  }

  /// Copies a view into owned storage; no-op when already owning.
  void Materialize() {
    if (!view_data_) return;
    bytes.assign(view_data_, view_data_ + view_size_);
    view_data_ = nullptr;
    view_size_ = 0;
  }

  /// Reads a little-endian scalar at `offset`; returns 0 on short reads.
  uint64_t ReadScalar(size_t offset, size_t size) const;

  /// Writes a little-endian scalar, growing the buffer if needed.
  void WriteScalar(size_t offset, size_t size, uint64_t value);

 private:
  const uint8_t* view_data_ = nullptr;
  size_t view_size_ = 0;
};

/// Per-execution context: carries coverage and crash state. A sanitizer
/// "report" (KASAN/UBSAN/kmemleak analog) is a call to Crash().
class ExecContext {
 public:
  explicit ExecContext(Coverage* coverage) : coverage_(coverage) {}

  /// Records a covered basic block.
  void Cover(uint64_t block_id) {
    if (coverage_ && coverage_->Hit(block_id)) ++new_hits_;
  }

  /// Blocks newly added to the attached coverage during this context's
  /// lifetime. Lets the executor hit the accumulated coverage directly
  /// instead of collecting into a per-program set and merging.
  size_t new_hits() const { return new_hits_; }

  /// Fires a sanitizer report; execution of the program stops after the
  /// current syscall returns.
  void Crash(std::string title) {
    if (!crashed_) {
      crashed_ = true;
      crash_title_ = std::move(title);
    }
  }

  bool crashed() const { return crashed_; }
  const std::string& crash_title() const { return crash_title_; }

  Coverage* coverage() { return coverage_; }

 private:
  Coverage* coverage_;
  size_t new_hits_ = 0;
  bool crashed_ = false;
  std::string crash_title_;
};

class FileHandler;

/// Recycling sink for pooled handlers. A driver that pools its handler
/// objects (to cut per-open allocations on the fuzzing hot path) tags
/// each handler with its recycler; the kernel hands the handler back
/// when the last descriptor referencing it goes away instead of letting
/// it be destroyed. Implementations must fully re-initialize a recycled
/// handler before reissuing it, so pooling is observationally identical
/// to fresh allocation.
class HandlerRecycler {
 public:
  virtual ~HandlerRecycler() = default;
  virtual void Recycle(std::shared_ptr<FileHandler> handler) = 0;
};

/// Handler bound to one open file descriptor.
///
/// Hooks receive the owning kernel; the per-execution context is reached
/// through `kernel.context()` (valid for the hook's duration) and the
/// personality through `kernel.policy()`, instead of either being
/// threaded through every signature.
class FileHandler {
 public:
  virtual ~FileHandler() = default;

  /// Pool this handler returns to when its last kernel reference drops;
  /// nullptr (the default) means plain destruction.
  HandlerRecycler* recycler() const { return recycler_; }
  void set_recycler(HandlerRecycler* recycler) { recycler_ = recycler; }

  /// ioctl(fd, cmd, arg). `arg` may be nullptr when the spec passes a
  /// scalar third argument.
  virtual long Ioctl(uint64_t cmd, Buffer* arg, KernelModel& kernel) {
    (void)cmd;
    (void)arg;
    (void)kernel;
    return -kENOTTY;
  }

  virtual long Read(Buffer* out, KernelModel& kernel) {
    (void)out;
    (void)kernel;
    return -kENOSYS;
  }

  virtual long Write(const Buffer& in, KernelModel& kernel) {
    (void)in;
    (void)kernel;
    return -kENOSYS;
  }

  virtual long Poll(KernelModel& kernel) {
    (void)kernel;
    return 0;
  }

  virtual long Mmap(uint64_t length, KernelModel& kernel) {
    (void)length;
    (void)kernel;
    return -kENOSYS;
  }

  /// Called when the last descriptor referencing the file closes.
  virtual void Release(KernelModel& kernel) { (void)kernel; }

  /// Normalized observable state of this handler for the differential
  /// oracle's module-state comparison (e.g. "tcp:ESTABLISHED lp=5").
  /// Must be deterministic and free of layout-dependent values (fd
  /// numbers, addresses). Empty (the default) means "no observable
  /// state" and contributes nothing to the shape.
  virtual std::string StateBrief() const { return std::string(); }

 private:
  HandlerRecycler* recycler_ = nullptr;
};

/// Handler bound to one open socket.
class SocketHandler : public FileHandler {
 public:
  virtual long SetSockOpt(uint64_t level, uint64_t optname, const Buffer& val,
                          KernelModel& kernel) {
    (void)level;
    (void)optname;
    (void)val;
    (void)kernel;
    return -kENOPROTOOPT;
  }

  virtual long GetSockOpt(uint64_t level, uint64_t optname, Buffer* val,
                          KernelModel& kernel) {
    (void)level;
    (void)optname;
    (void)val;
    (void)kernel;
    return -kENOPROTOOPT;
  }

  virtual long Bind(const Buffer& addr, KernelModel& kernel) {
    (void)addr;
    (void)kernel;
    return -kEOPNOTSUPP;
  }

  virtual long Connect(const Buffer& addr, KernelModel& kernel) {
    (void)addr;
    (void)kernel;
    return -kEOPNOTSUPP;
  }

  virtual long SendTo(const Buffer& data, const Buffer& addr,
                      KernelModel& kernel) {
    (void)data;
    (void)addr;
    (void)kernel;
    return -kEOPNOTSUPP;
  }

  virtual long RecvFrom(Buffer* data, KernelModel& kernel) {
    (void)data;
    (void)kernel;
    return -kEOPNOTSUPP;
  }

  virtual long Listen(KernelModel& kernel) {
    (void)kernel;
    return -kEOPNOTSUPP;
  }

  virtual long Accept(KernelModel& kernel) {
    (void)kernel;
    return -kEOPNOTSUPP;
  }
};

/// A registered character-device driver.
class DeviceDriver {
 public:
  virtual ~DeviceDriver() = default;

  /// Short module name, e.g. "dm".
  virtual std::string Name() const = 0;

  /// Device node path userspace opens, e.g. "/dev/mapper/control".
  virtual std::string NodePath() const = 0;

  /// open() on the node; returns the per-file handler or nullptr with a
  /// negative errno in `*err`. Returned as shared_ptr so pooled drivers
  /// can reuse both the handler object and its control block across
  /// opens (the kernel's fd table is shared_ptr-based for dup()).
  virtual std::shared_ptr<FileHandler> Open(KernelModel& kernel,
                                            long* err) = 0;
};

/// A registered socket family (protocol module).
class SocketFamily {
 public:
  virtual ~SocketFamily() = default;

  /// Short module name, e.g. "rds".
  virtual std::string Name() const = 0;

  /// AF_* domain value this family is registered under.
  virtual uint64_t Domain() const = 0;

  /// socket(domain, type, protocol). shared_ptr for the same pooling
  /// reasons as DeviceDriver::Open.
  virtual std::shared_ptr<SocketHandler> Create(uint64_t type,
                                                uint64_t protocol,
                                                KernelModel& kernel,
                                                long* err) = 0;

  /// Called by Kernel::BeginProgram before every program to reset
  /// module-global state (bound-port tables...).
  virtual void ResetState() {}

  /// Normalized observable module-global state (bound-port tables,
  /// TIME_WAIT sets...) for the differential oracle. Same rules as
  /// FileHandler::StateBrief: deterministic, layout-independent, empty
  /// when there is nothing to observe.
  virtual std::string StateBrief() const { return std::string(); }
};

}  // namespace kernelgpt::vkernel

#endif  // KERNELGPT_VKERNEL_FILE_H_
