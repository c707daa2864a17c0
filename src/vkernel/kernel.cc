#include "vkernel/kernel.h"

namespace kernelgpt::vkernel {

uint64_t
Buffer::ReadScalar(size_t offset, size_t size) const
{
  const uint8_t* base = data();
  const size_t limit = this->size();
  uint64_t value = 0;
  for (size_t i = 0; i < size && i < 8; ++i) {
    size_t idx = offset + i;
    if (idx >= limit) break;
    value |= static_cast<uint64_t>(base[idx]) << (8 * i);
  }
  return value;
}

void
Buffer::WriteScalar(size_t offset, size_t size, uint64_t value)
{
  Materialize();
  if (offset + size > bytes.size()) bytes.resize(offset + size, 0);
  for (size_t i = 0; i < size && i < 8; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

void
Kernel::RegisterDevice(std::unique_ptr<DeviceDriver> driver)
{
  device_by_path_.emplace(driver->NodePath(), driver.get());
  devices_.push_back(std::move(driver));
}

void
Kernel::RegisterSocketFamily(std::unique_ptr<SocketFamily> family)
{
  families_.push_back(std::move(family));
}

DeviceDriver*
Kernel::FindDeviceByPath(std::string_view path) const
{
  auto it = device_by_path_.find(path);
  return it == device_by_path_.end() ? nullptr : it->second;
}

SocketFamily*
Kernel::FindFamilyByDomain(uint64_t domain) const
{
  for (const auto& f : families_) {
    if (f->Domain() == domain) return f.get();
  }
  return nullptr;
}

void
Kernel::BeginProgram()
{
  fds_.Clear();
  for (auto& f : families_) f->ResetState();
}

void
Kernel::RecycleIfPooled(std::shared_ptr<FileHandler> handler)
{
  // Only the pool may keep references once the kernel hands a handler
  // back; with dup()'d descriptors the last entry to drop does the
  // recycling (earlier drops see use_count > 1 and fall through to a
  // plain reference drop).
  if (!handler || handler.use_count() != 1) return;
  HandlerRecycler* recycler = handler->recycler();
  if (recycler) recycler->Recycle(std::move(handler));
}

void
Kernel::EndProgram(ExecContext& ctx)
{
  ctx_ = &ctx;
  // Release in fd order (deterministic; the old hash table iterated in
  // unspecified order).
  for (auto& entry : fds_.entries()) {
    if (entry.handler) entry.handler->Release(*this);
  }
  for (auto& entry : fds_.entries()) {
    RecycleIfPooled(std::move(entry.handler));
  }
  fds_.Clear();
}

long
Kernel::InstallEntry(std::shared_ptr<FileHandler> handler, bool is_socket)
{
  return fds_.Install(std::move(handler), is_socket);
}

long
Kernel::InstallFile(std::shared_ptr<FileHandler> handler)
{
  return InstallEntry(std::move(handler), /*is_socket=*/false);
}

long
Kernel::InstallSocket(std::shared_ptr<SocketHandler> handler)
{
  return InstallEntry(std::move(handler), /*is_socket=*/true);
}

std::string
Kernel::ModuleStateShape() const
{
  // Descriptors in slot (install) order: the slot sequence is the same
  // under every FdLayout, so unified and split fd spaces produce the
  // same shape for the same behavior. Stateless handlers (empty brief)
  // are skipped entirely — their presence is already captured by
  // FdTableShape.
  std::string shape;
  size_t slot = 0;
  for (const auto& entry : fds_.entries()) {
    const size_t this_slot = slot++;
    if (!entry.handler) continue;
    std::string brief = entry.handler->StateBrief();
    if (brief.empty()) continue;
    shape += 's';
    shape += std::to_string(this_slot);
    shape += '=';
    shape += brief;
    shape += ' ';
  }
  // Module-global state (port tables...) in registration order.
  for (const auto& family : families_) {
    std::string brief = family->StateBrief();
    if (brief.empty()) continue;
    shape += family->Name();
    shape += '{';
    shape += brief;
    shape += "} ";
  }
  if (!shape.empty()) shape.pop_back();
  return shape;
}

FileHandler*
Kernel::LookupFd(long fd) const
{
  const FdEntry* entry = fds_.Find(fd);
  return entry ? entry->handler.get() : nullptr;
}

SocketHandler*
Kernel::LookupSocket(long fd) const
{
  const FdEntry* entry = fds_.Find(fd);
  if (!entry || !entry->is_socket) return nullptr;
  return static_cast<SocketHandler*>(entry->handler.get());
}

SyscallResult
Kernel::Openat(std::string_view path, uint64_t flags, ExecContext& ctx)
{
  (void)flags;
  ctx_ = &ctx;
  auto it = device_by_path_.find(path);
  if (it == device_by_path_.end()) {
    return SyscallResult::Err(policy_.unknown_path_errno);
  }
  DeviceDriver* driver = it->second;
  long err = 0;
  std::shared_ptr<FileHandler> handler = driver->Open(*this, &err);
  if (!handler) return SyscallResult::FromRaw(err != 0 ? err : -kENODEV);
  return SyscallResult::Ok(InstallFile(std::move(handler)));
}

SyscallResult
Kernel::Close(long fd, ExecContext& ctx)
{
  ctx_ = &ctx;
  FdEntry* entry = fds_.Find(fd);
  if (!entry || !entry->handler) {
    if (policy_.close_invalid_fd_ok) return SyscallResult::Ok(0);
    return SyscallResult::Err(policy_.bad_fd_errno);
  }
  // Release fires only when the last reference drops (dup-aware).
  std::shared_ptr<FileHandler> handler = std::move(entry->handler);
  bool still_open = false;
  for (const auto& e : fds_.entries()) {
    if (e.handler == handler) still_open = true;
  }
  if (!still_open) {
    handler->Release(*this);
    RecycleIfPooled(std::move(handler));
  }
  return SyscallResult::Ok(0);
}

SyscallResult
Kernel::Dup(long fd, ExecContext& ctx)
{
  ctx_ = &ctx;
  FdEntry* entry = fds_.Find(fd);
  if (!entry || !entry->handler) {
    return SyscallResult::Err(policy_.bad_fd_errno);
  }
  return SyscallResult::Ok(InstallEntry(entry->handler, entry->is_socket));
}

SyscallResult
Kernel::Ioctl(long fd, uint64_t cmd, Buffer* arg, ExecContext& ctx)
{
  ctx_ = &ctx;
  FileHandler* handler = LookupFd(fd);
  if (!handler) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(handler->Ioctl(cmd, arg, *this));
}

SyscallResult
Kernel::Read(long fd, Buffer* out, ExecContext& ctx)
{
  ctx_ = &ctx;
  FileHandler* handler = LookupFd(fd);
  if (!handler) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(handler->Read(out, *this));
}

SyscallResult
Kernel::Write(long fd, const Buffer& in, ExecContext& ctx)
{
  ctx_ = &ctx;
  FileHandler* handler = LookupFd(fd);
  if (!handler) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(handler->Write(in, *this));
}

SyscallResult
Kernel::Poll(long fd, ExecContext& ctx)
{
  ctx_ = &ctx;
  FileHandler* handler = LookupFd(fd);
  if (!handler) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(handler->Poll(*this));
}

SyscallResult
Kernel::Mmap(long fd, uint64_t length, ExecContext& ctx)
{
  ctx_ = &ctx;
  FileHandler* handler = LookupFd(fd);
  if (!handler) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(handler->Mmap(length, *this));
}

SyscallResult
Kernel::Socket(uint64_t domain, uint64_t type, uint64_t protocol,
               ExecContext& ctx)
{
  ctx_ = &ctx;
  // Several protocol modules can share one address family (e.g. the
  // Bluetooth BTPROTO_* sockets under AF_BLUETOOTH); the first module
  // that accepts (type, protocol) wins, like the kernel's create loop.
  bool domain_seen = false;
  long err = 0;
  for (const auto& family : families_) {
    if (family->Domain() != domain) continue;
    domain_seen = true;
    std::shared_ptr<SocketHandler> handler =
        family->Create(type, protocol, *this, &err);
    if (handler) {
      return SyscallResult::Ok(
          InstallEntry(std::move(handler), /*is_socket=*/true));
    }
  }
  if (!domain_seen) return SyscallResult::Err(policy_.unknown_domain_errno);
  return err != 0 ? SyscallResult::FromRaw(err) : SyscallResult::Err(kEINVAL);
}

SyscallResult
Kernel::SetSockOpt(long fd, uint64_t level, uint64_t optname,
                   const Buffer& val, ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->SetSockOpt(level, optname, val, *this));
}

SyscallResult
Kernel::GetSockOpt(long fd, uint64_t level, uint64_t optname, Buffer* val,
                   ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->GetSockOpt(level, optname, val, *this));
}

SyscallResult
Kernel::Bind(long fd, const Buffer& addr, ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->Bind(addr, *this));
}

SyscallResult
Kernel::Connect(long fd, const Buffer& addr, ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->Connect(addr, *this));
}

SyscallResult
Kernel::SendTo(long fd, const Buffer& data, const Buffer& addr,
               ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->SendTo(data, addr, *this));
}

SyscallResult
Kernel::RecvFrom(long fd, Buffer* data, ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->RecvFrom(data, *this));
}

SyscallResult
Kernel::Listen(long fd, ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->Listen(*this));
}

SyscallResult
Kernel::Accept(long fd, ExecContext& ctx)
{
  ctx_ = &ctx;
  SocketHandler* sock = LookupSocket(fd);
  if (!sock) return SyscallResult::Err(policy_.bad_fd_errno);
  return SyscallResult::FromRaw(sock->Accept(*this));
}

std::unique_ptr<Kernel>
MakeStrictModel()
{
  return std::make_unique<Kernel>(KernelPolicy::Strict());
}

std::unique_ptr<Kernel>
MakePermissiveModel()
{
  return std::make_unique<Kernel>(KernelPolicy::Permissive());
}

}  // namespace kernelgpt::vkernel
