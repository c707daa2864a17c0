#include "fuzzer/diff_runner.h"

#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "fuzzer/minimizer.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {

namespace {

/// Ops whose retval is a descriptor in the model's own fd space. Raw
/// values differ between layouts by design, so the normalized compare
/// only looks at (success, errno) for these.
bool
ProducesFd(SyscallOp op)
{
  switch (op) {
    case SyscallOp::kOpen:
    case SyscallOp::kOpenat:
    case SyscallOp::kDup:
    case SyscallOp::kSocket:
    case SyscallOp::kAccept:
      return true;
    default:
      return false;
  }
}

/// Renders one result under the normalization for `op`.
std::string
RenderNorm(SyscallOp op, const vkernel::SyscallResult& r)
{
  std::ostringstream out;
  if (ProducesFd(op)) {
    if (r.ok()) {
      out << "ok(fd)";
    } else {
      out << "errno=" << r.verrno;
    }
  } else {
    out << "ret=" << r.retval << " errno=" << r.verrno;
  }
  return out.str();
}

/// Do the two results agree under the normalization for `op`?
bool
NormEqual(SyscallOp op, const vkernel::SyscallResult& a,
          const vkernel::SyscallResult& b)
{
  if (ProducesFd(op)) return a.ok() == b.ok() && a.verrno == b.verrno;
  return a == b;
}

/// Pre-dedup divergence observed on one program.
struct RawDiv {
  Divergence::Kind kind = Divergence::Kind::kResult;
  size_t call_index = 0;
  std::string syscall;
  std::string signature;
  std::string detail;
};

/// One booted model with its executor; workers and the minimizer each
/// own a private pair of these.
struct ModelSide {
  std::unique_ptr<vkernel::KernelModel> model;
  std::unique_ptr<Executor> executor;
};

/// A fresh, unbooted model from `factory`, or the built-in personality
/// of that side (strict baseline, permissive subject) when it is null.
std::unique_ptr<vkernel::KernelModel>
MakeModel(const vkernel::ModelFactory& factory, bool subject)
{
  if (factory) return factory();
  return subject ? vkernel::MakePermissiveModel() : vkernel::MakeStrictModel();
}

ModelSide
BuildSide(const vkernel::ModelFactory& factory,
          const std::function<void(vkernel::KernelModel*)>& boot,
          bool subject, const SpecLibrary* lib)
{
  ModelSide side;
  side.model = MakeModel(factory, subject);
  if (boot) boot(side.model.get());
  side.executor = std::make_unique<Executor>(side.model.get(), lib);
  return side;
}

/// Runs `prog` on both sides and reports the first divergence, if any.
/// Comparison precedence: first per-call result mismatch, then crash
/// state/title/timing, then end-of-program fd-table shape.
std::optional<RawDiv>
Evaluate(const Prog& prog, ModelSide& baseline, ModelSide& subject,
         const SpecLibrary& lib)
{
  ExecTrace base_trace;
  ExecTrace subj_trace;
  ExecResult base_res = baseline.executor->Run(prog, nullptr, &base_trace);
  ExecResult subj_res = subject.executor->Run(prog, nullptr, &subj_trace);

  size_t compared =
      std::min(base_res.calls_executed, subj_res.calls_executed);
  for (size_t i = 0; i < compared; ++i) {
    SyscallOp op = lib.OpcodeOf(prog.calls[i].syscall_index);
    const vkernel::SyscallResult& a = base_trace.results[i];
    const vkernel::SyscallResult& b = subj_trace.results[i];
    if (NormEqual(op, a, b)) continue;
    RawDiv div;
    div.kind = Divergence::Kind::kResult;
    div.call_index = i;
    div.syscall = lib.syscalls()[prog.calls[i].syscall_index].name;
    div.detail = RenderNorm(op, a) + " | " + RenderNorm(op, b);
    div.signature = "result " + div.syscall + ": " + div.detail;
    return div;
  }

  if (base_res.crashed != subj_res.crashed ||
      base_res.crash_title != subj_res.crash_title ||
      base_res.calls_executed != subj_res.calls_executed) {
    RawDiv div;
    div.kind = Divergence::Kind::kCrash;
    div.call_index = compared;
    std::ostringstream detail;
    detail << (base_res.crashed ? "crash '" + base_res.crash_title + "'"
                                : std::string("no crash"))
           << " | "
           << (subj_res.crashed ? "crash '" + subj_res.crash_title + "'"
                                : std::string("no crash"));
    div.detail = detail.str();
    div.signature = "crash " + div.detail;
    return div;
  }

  if (base_trace.end_shape != subj_trace.end_shape) {
    RawDiv div;
    div.kind = Divergence::Kind::kFdShape;
    std::ostringstream detail;
    detail << "files " << base_trace.end_shape.files_open << "|"
           << subj_trace.end_shape.files_open << " sockets "
           << base_trace.end_shape.sockets_open << "|"
           << subj_trace.end_shape.sockets_open;
    div.detail = detail.str();
    div.signature = "fdshape " + div.detail;
    return div;
  }

  // Module state last: a state difference with identical results/shapes
  // is the subtlest divergence class (e.g. one personality left a port
  // bound that the other released). Shapes are normalized by slot order,
  // so fd-numbering differences between layouts stay non-divergent.
  if (base_trace.module_state != subj_trace.module_state) {
    RawDiv div;
    div.kind = Divergence::Kind::kModuleState;
    div.detail = "'" + base_trace.module_state + "' | '" +
                 subj_trace.module_state + "'";
    div.signature = "modstate " + div.detail;
    return div;
  }
  return std::nullopt;
}

const char*
KindName(Divergence::Kind kind)
{
  switch (kind) {
    case Divergence::Kind::kResult: return "result";
    case Divergence::Kind::kCrash: return "crash";
    case Divergence::Kind::kFdShape: return "fdshape";
    case Divergence::Kind::kModuleState: return "modstate";
  }
  return "?";
}

}  // namespace

std::string
DiffReport::Render() const
{
  std::ostringstream out;
  out << "differential report: " << baseline_name << " vs " << subject_name
      << "\n";
  out << "programs=" << programs << " diverging=" << diverging_programs
      << " unique=" << divergences.size() << "\n";
  for (size_t i = 0; i < divergences.size(); ++i) {
    const Divergence& d = divergences[i];
    out << "[" << i + 1 << "] " << KindName(d.kind);
    if (d.kind == Divergence::Kind::kResult) {
      out << " " << d.syscall << " call=" << d.call_index;
    }
    out << " {" << d.detail << "} x" << d.occurrences << " prog="
        << d.prog_index << " repro_calls=" << d.repro.calls.size();
    if (d.minimized) out << " minimized";
    out << "\n";
    out << d.repro_text;
    if (!d.repro_text.empty() && d.repro_text.back() != '\n') out << "\n";
  }
  return out.str();
}

DiffRunner::DiffRunner(const SpecLibrary* lib, DiffOptions options)
    : lib_(lib), options_(std::move(options))
{
}

DiffReport
DiffRunner::Run(util::Span<const Prog> corpus) const
{
  DiffReport report;
  // Names come from unbooted models, so the parallel phase needs no
  // shared model.
  report.baseline_name = MakeModel(options_.baseline, false)->policy().name;
  report.subject_name = MakeModel(options_.subject, true)->policy().name;
  report.programs = corpus.size();
  if (corpus.empty()) return report;

  // Phase 1: evaluate every program, each on fresh per-program state.
  // Workers own private model pairs and write disjoint per-index slots,
  // so the outcome is independent of the partition.
  std::vector<std::optional<RawDiv>> raw(corpus.size());
  int workers = options_.num_workers;
  if (workers < 1) workers = 1;
  if (static_cast<size_t>(workers) > corpus.size()) {
    workers = static_cast<int>(corpus.size());
  }

  auto worker_main = [&](size_t shard) {
    ModelSide base = BuildSide(options_.baseline, options_.boot, false, lib_);
    ModelSide subj = BuildSide(options_.subject, options_.boot, true, lib_);
    for (size_t i = shard; i < corpus.size();
         i += static_cast<size_t>(workers)) {
      raw[i] = Evaluate(corpus[i], base, subj, *lib_);
    }
  };

  if (workers == 1) {
    worker_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back(worker_main, static_cast<size_t>(w));
    }
    for (std::thread& t : threads) t.join();
  }

  // Phase 2 (serial): dedup by signature in corpus order.
  std::unordered_map<std::string, size_t> by_signature;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (!raw[i]) continue;
    ++report.diverging_programs;
    const RawDiv& r = *raw[i];
    auto it = by_signature.find(r.signature);
    if (it != by_signature.end()) {
      ++report.divergences[it->second].occurrences;
      continue;
    }
    Divergence d;
    d.kind = r.kind;
    d.prog_index = i;
    d.call_index = r.call_index;
    d.syscall = r.syscall;
    d.signature = r.signature;
    d.detail = r.detail;
    d.occurrences = 1;
    d.repro = corpus[i];
    by_signature.emplace(r.signature, report.divergences.size());
    report.divergences.push_back(std::move(d));
  }

  // Phase 3 (serial): shrink one reproducer per signature. The property
  // is "the models still disagree with this exact signature", evaluated
  // on a dedicated executor pair.
  if (options_.minimize && !report.divergences.empty()) {
    ModelSide base = BuildSide(options_.baseline, options_.boot, false, lib_);
    ModelSide subj = BuildSide(options_.subject, options_.boot, true, lib_);
    for (Divergence& d : report.divergences) {
      MinimizeResult min =
          MinimizeWhile(d.repro, [&](const Prog& candidate) {
            std::optional<RawDiv> got =
                Evaluate(candidate, base, subj, *lib_);
            return got && got->signature == d.signature;
          });
      d.minimize_executions = min.executions;
      if (min.reproduced) {
        d.repro = std::move(min.prog);
        d.minimized = true;
      }
    }
  }

  for (Divergence& d : report.divergences) {
    d.repro_text = FormatProg(d.repro, *lib_);
  }
  return report;
}

}  // namespace kernelgpt::fuzzer
