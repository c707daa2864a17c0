/// \file
/// Parser for the kernel C subset. Produces a CFile from source text.

#ifndef KERNELGPT_KSRC_CPARSER_H_
#define KERNELGPT_KSRC_CPARSER_H_

#include <string>

#include "ksrc/cast.h"

namespace kernelgpt::ksrc {

/// Parses one source file. The parser recognizes:
///   - object-like #define (plain literals and _IO/_IOR/_IOW/_IOWR forms),
///   - enum definitions,
///   - struct/union type definitions with scalar/array/pointer members,
///   - variable definitions with designated initializers,
///   - function definitions (bodies retained as token streams).
/// Unrecognized top-level constructs are skipped with a diagnostic, and a
/// function whose body the source ends inside keeps an empty body. Any
/// bytes are accepted; the parser never throws on them.
///
/// The file takes ownership of `source` (CFile::source), which its tokens
/// view.
CFile CParse(std::string source, const std::string& path = "");

/// Evaluates Linux's _IO/_IOR/_IOW/_IOWR ioctl-number macros.
/// `size` is the size of the argument type in bytes.
uint64_t IoctlNumber(char dir_read, char dir_write, uint64_t type,
                     uint64_t nr, uint64_t size);

/// _IOC_NR(cmd): extracts the sequence-number bits of an ioctl command.
uint64_t IocNr(uint64_t cmd);

/// _IOC_TYPE(cmd): extracts the magic/type byte of an ioctl command.
uint64_t IocType(uint64_t cmd);

/// _IOC_SIZE(cmd): extracts the encoded payload size of an ioctl command.
uint64_t IocSize(uint64_t cmd);

}  // namespace kernelgpt::ksrc

#endif  // KERNELGPT_KSRC_CPARSER_H_
