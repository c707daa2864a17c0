#include "util/fileio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/fault.h"
#include "util/strings.h"

/// Declares one of fileio's injectable failure seams. An injected errno
/// fault is routed through the same ErrnoStatus mapping as a real
/// syscall failure, so "ENOSPC while replacing the session file" reads
/// the same in a recovery log whether a disk or a test produced it.
#define KERNELGPT_FILEIO_FAULT(site, verb, path)                          \
  do {                                                                    \
    if (__builtin_expect(::kernelgpt::util::FaultInjector::Armed(), 0)) { \
      int injected_errno = 0;                                             \
      ::kernelgpt::util::Status fault_status =                            \
          ::kernelgpt::util::FaultInjector::Instance().HitStatus(         \
              site, path, &injected_errno);                               \
      if (!fault_status.ok()) {                                           \
        if (injected_errno != 0)                                          \
          return ErrnoStatus(verb, path, injected_errno);                 \
        return fault_status;                                              \
      }                                                                   \
    }                                                                     \
  } while (0)

namespace kernelgpt::util {
namespace {

/// Writes the whole buffer through short writes and EINTR.
bool
WriteAll(int fd, std::string_view content)
{
  const char* p = content.data();
  size_t left = content.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

/// fsyncs the directory containing `path` so the rename itself is durable.
/// Best-effort: some filesystems reject O_RDONLY directory fsyncs; the
/// data-file fsync already happened, which is the part torn-write safety
/// depends on.
void
SyncParentDir(const std::string& path)
{
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

const uint32_t* Crc32Table()
{
  static uint32_t table[256];
  static bool ready = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)ready;
  return table;
}

}  // namespace

Status
ErrnoStatus(const char* verb, const std::string& path, int err)
{
  const char* name = ErrnoName(err);
  if (*name) {
    return Status::Error(Format("%s '%s': %s (%s)", verb, path.c_str(), name,
                                std::strerror(err)));
  }
  return Status::Error(Format("%s '%s': errno %d (%s)", verb, path.c_str(),
                              err, std::strerror(err)));
}

uint32_t
Crc32(const void* data, size_t len)
{
  const uint32_t* table = Crc32Table();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t
Crc32(std::string_view s)
{
  return Crc32(s.data(), s.size());
}

Status
AtomicWriteFile(const std::string& path, std::string_view content)
{
  KERNELGPT_FILEIO_FAULT("fileio.atomic_write", "cannot replace", path);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("cannot create", tmp, errno);
  if (!WriteAll(fd, content)) {
    Status status = ErrnoStatus("write failed", tmp, errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::fsync(fd) != 0) {
    Status status = ErrnoStatus("fsync failed", tmp, errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  ::close(fd);

  // Crash-injection seam for the kill-mid-save tests: the tmp file is
  // durable but the rename not yet issued — the widest window in which a
  // non-atomic writer would have destroyed the previous file. A
  // kind=crash rule here simulates death mid-save for a supervisor; a
  // kind=exit rule really dies, for cross-process recovery.
  KERNELGPT_FILEIO_FAULT("fileio.rename", "cannot rename into", path);

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status status = ErrnoStatus("rename failed", tmp, errno);
    ::unlink(tmp.c_str());
    return status;
  }
  SyncParentDir(path);
  return Status::Ok();
}

Status
ReadFileToString(const std::string& path, std::string* out)
{
  KERNELGPT_FILEIO_FAULT("fileio.read", "cannot read", path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("cannot open", path, errno);
  std::string buf;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = ErrnoStatus("read failed", path, errno);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    buf.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  *out = std::move(buf);
  return Status::Ok();
}

}  // namespace kernelgpt::util
