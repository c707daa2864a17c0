#include "fuzzer/executor.h"

#include <string_view>

namespace kernelgpt::fuzzer {

using vkernel::Buffer;
using vkernel::ExecContext;
using vkernel::SyscallResult;

namespace {

/// Descriptor value no program state can produce; syscalls on it fail
/// with the kernel's bad-fd errno, mirroring how a fuzzer's stale
/// resource refs behave.
constexpr long kInvalidFd = 999999;

/// Result slot of a call that has not executed (or whose producing call
/// failed): never a valid fd, never ok().
const SyscallResult kUnsetResult = SyscallResult::FromRaw(-1);

/// Extracts the NUL-terminated path prefix of a buffer argument without
/// copying; the view borrows the argument's bytes for the call duration.
std::string_view
PathFrom(const Arg& arg)
{
  size_t len = 0;
  while (len < arg.bytes.size() && arg.bytes[len] != 0) ++len;
  return std::string_view(reinterpret_cast<const char*>(arg.bytes.data()),
                          len);
}

/// Resolves the concrete fd value of an argument.
long
FdOf(const Arg& arg, const std::vector<SyscallResult>& results)
{
  if (arg.kind == Arg::Kind::kResourceRef) {
    if (arg.ref_call >= 0 &&
        static_cast<size_t>(arg.ref_call) < results.size() &&
        results[static_cast<size_t>(arg.ref_call)].ok()) {
      return results[static_cast<size_t>(arg.ref_call)].retval;
    }
    return kInvalidFd;
  }
  return static_cast<long>(arg.scalar);
}

uint64_t
ScalarOf(const Call& call, size_t index)
{
  if (index >= call.args.size()) return 0;
  return call.args[index].scalar;
}

/// Zero-copy view over a buffer argument; empty view when the argument
/// is absent or not a buffer.
Buffer
BufferViewAt(const Call& call, size_t index)
{
  if (index < call.args.size() &&
      call.args[index].kind == Arg::Kind::kBuffer) {
    return Buffer::View(call.args[index].bytes);
  }
  return Buffer();
}

}  // namespace

Executor::Executor(vkernel::Kernel* kernel, const SpecLibrary* lib)
    : kernel_(kernel), lib_(lib) {}

SyscallResult
Executor::Dispatch(SyscallOp op, const Call& call,
                   const std::vector<SyscallResult>& results,
                   ExecContext& ctx)
{
  auto fd0 = [&]() {
    return call.args.empty() ? -1 : FdOf(call.args[0], results);
  };

  switch (op) {
    case SyscallOp::kOpen:
    case SyscallOp::kOpenat: {
      const size_t path_idx = op == SyscallOp::kOpenat ? 1 : 0;
      if (path_idx >= call.args.size()) {
        return SyscallResult::Err(vkernel::kEINVAL);
      }
      return kernel_->Openat(PathFrom(call.args[path_idx]),
                             ScalarOf(call, path_idx + 1), ctx);
    }
    case SyscallOp::kClose:
      return kernel_->Close(fd0(), ctx);
    case SyscallOp::kDup:
      return kernel_->Dup(fd0(), ctx);
    case SyscallOp::kIoctl: {
      if (call.args.size() > 2 && call.args[2].kind == Arg::Kind::kBuffer) {
        Buffer buf = Buffer::View(call.args[2].bytes);
        return kernel_->Ioctl(fd0(), ScalarOf(call, 1), &buf, ctx);
      }
      return kernel_->Ioctl(fd0(), ScalarOf(call, 1), nullptr, ctx);
    }
    case SyscallOp::kRead:
      out_scratch_.bytes.assign(
          call.args.size() > 1 ? call.args[1].bytes.size() : 0, 0);
      return kernel_->Read(fd0(), &out_scratch_, ctx);
    case SyscallOp::kWrite:
      return kernel_->Write(fd0(), BufferViewAt(call, 1), ctx);
    case SyscallOp::kPoll:
      return kernel_->Poll(fd0(), ctx);
    case SyscallOp::kMmap:
      return kernel_->Mmap(fd0(), ScalarOf(call, 1), ctx);
    case SyscallOp::kSocket:
      return kernel_->Socket(ScalarOf(call, 0), ScalarOf(call, 1),
                             ScalarOf(call, 2), ctx);
    case SyscallOp::kSetSockOpt:
      return kernel_->SetSockOpt(fd0(), ScalarOf(call, 1), ScalarOf(call, 2),
                                 BufferViewAt(call, 3), ctx);
    case SyscallOp::kGetSockOpt: {
      // In/out: the user's bytes size the buffer, the kernel writes it.
      Buffer val = BufferViewAt(call, 3);
      return kernel_->GetSockOpt(fd0(), ScalarOf(call, 1), ScalarOf(call, 2),
                                 &val, ctx);
    }
    case SyscallOp::kBind:
      return kernel_->Bind(fd0(), BufferViewAt(call, 1), ctx);
    case SyscallOp::kConnect:
      return kernel_->Connect(fd0(), BufferViewAt(call, 1), ctx);
    case SyscallOp::kSendTo:
      return kernel_->SendTo(fd0(), BufferViewAt(call, 1),
                             BufferViewAt(call, 4), ctx);
    case SyscallOp::kSendMsg:
      // sendmsg degrades to sendto with empty buffers.
      return kernel_->SendTo(fd0(), Buffer(), Buffer(), ctx);
    case SyscallOp::kRecvFrom:
      out_scratch_.bytes.clear();
      return kernel_->RecvFrom(fd0(), &out_scratch_, ctx);
    case SyscallOp::kListen:
      return kernel_->Listen(fd0(), ctx);
    case SyscallOp::kAccept:
      return kernel_->Accept(fd0(), ctx);
    case SyscallOp::kUnknown:
      break;
  }
  // A base name with no operation, or a library not yet finalized.
  return SyscallResult::Err(vkernel::kENOSYS);
}

ExecResult
Executor::Run(const Prog& prog, vkernel::Coverage* total, ExecTrace* trace)
{
  ExecResult result;
  // Blocks land in `total` directly; ExecContext counts the new ones, so
  // there is no per-program coverage set to allocate and merge.
  ExecContext ctx(total);
  kernel_->BeginProgram();

  results_.assign(prog.calls.size(), kUnsetResult);
  for (size_t i = 0; i < prog.calls.size(); ++i) {
    const Call& call = prog.calls[i];
    if (call.syscall_index >= lib_->syscalls().size()) continue;
    results_[i] =
        Dispatch(lib_->OpcodeOf(call.syscall_index), call, results_, ctx);
    ++result.calls_executed;
    if (ctx.crashed()) break;
  }
  if (trace) {
    trace->results = results_;
    trace->end_shape = kernel_->FdTableShape();
    trace->module_state = kernel_->ModuleStateShape();
  }
  kernel_->EndProgram(ctx);  // Close-time (release) bugs fire here.

  result.crashed = ctx.crashed();
  result.crash_title = ctx.crash_title();
  result.new_blocks = ctx.new_hits();
  return result;
}

std::vector<ExecResult>
Executor::RunBatch(util::Span<const Prog> progs, vkernel::Coverage* total)
{
  std::vector<ExecResult> results;
  results.reserve(progs.size());
  for (const Prog& prog : progs) results.push_back(Run(prog, total));
  return results;
}

std::vector<ExecResult>
Executor::RunBatch(util::Span<const Prog> progs, vkernel::Coverage* total,
                   std::vector<vkernel::Coverage>* signatures)
{
  if (!signatures) return RunBatch(progs, total);
  std::vector<ExecResult> results;
  results.reserve(progs.size());
  signatures->clear();
  signatures->resize(progs.size());
  for (size_t i = 0; i < progs.size(); ++i) {
    // Each program runs against its own fresh bitmap (the signature);
    // the union and the total-relative new-block count are recovered by
    // merging the signature afterwards.
    ExecResult result = Run(progs[i], &(*signatures)[i]);
    if (total) result.new_blocks = total->Merge((*signatures)[i]);
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace kernelgpt::fuzzer
