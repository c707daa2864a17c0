/// \file
/// Durable file I/O for the snapshot layer: crash-safe whole-file
/// replacement (write-tmp, fsync, rename) and whole-file reads, plus the
/// CRC32 checksum that frames every snapshot section. A process killed
/// at any instant leaves either the old file or the new file on disk,
/// never a torn mixture — the invariant the Session persistence layer is
/// built on.

#ifndef KERNELGPT_UTIL_FILEIO_H_
#define KERNELGPT_UTIL_FILEIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace kernelgpt::util {

/// CRC32 (IEEE 802.3 polynomial, table-driven) over a byte range.
/// Deterministic across platforms; used to checksum snapshot sections so
/// a truncated or bit-flipped section is detected instead of parsed.
uint32_t Crc32(const void* data, size_t len);
uint32_t Crc32(std::string_view s);

/// Atomically replaces `path` with `content`: writes `<path>.tmp`, flushes
/// and fsyncs it, then rename(2)s it into place and fsyncs the parent
/// directory. A crash at any point leaves either the previous file intact
/// or the new one complete — never a truncated or half-written file.
///
/// The "fileio.rename" fault point (util/fault.h) sits between the
/// durable tmp file and the rename: a kind=exit rule there, e.g.
/// `site=fileio.rename,kind=exit,match=session.manifest`, dies in the
/// crash window the resumable_campaign example's kill-mid-save leg
/// exercises.
Status AtomicWriteFile(const std::string& path, std::string_view content);

/// Reads the whole of `path` into `*out` (binary, no translation).
Status ReadFileToString(const std::string& path, std::string* out);

/// Maps a failing syscall to a Status whose message names the errno
/// class symbolically — "cannot replace 'x': ENOSPC (No space left on
/// device)" — so recovery logs can distinguish a full disk from a dying
/// one from a permission problem. Every fileio call site reports through
/// this, as do injected errno faults (util/fault.h), so real and
/// simulated failures read identically.
Status ErrnoStatus(const char* verb, const std::string& path, int err);

}  // namespace kernelgpt::util

#endif  // KERNELGPT_UTIL_FILEIO_H_
