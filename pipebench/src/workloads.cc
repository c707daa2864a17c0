#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "checks.h"
#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "experiments/context.h"
#include "extractor/handler_finder.h"
#include "fuzzer/diff_runner.h"
#include "fuzzer/distiller.h"
#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"
#include "fuzzer/session.h"
#include "llm/registry.h"
#include "spans.h"
#include "spec_gen/kernelgpt.h"
#include "spec_gen/service.h"
#include "syzlang/printer.h"
#include "util/rng.h"
#include "util/strings.h"
#include "vkernel/kernel.h"

namespace pipebench {

using namespace kernelgpt;
using util::Format;

namespace {

// -- Workload sizes -----------------------------------------------------------
//
// Every workload is closed loop: the driver thread issues the next call
// only after the previous one returns. The timed work runs its worker
// pools (orchestrator, DiffRunner, service) on one thread. At two threads
// the wall time of a campaign round measured whether the host scheduled
// both workers at once: on a shared 4-core VM its run-to-run spread was
// 37% against 5% at one thread, and one thread was faster. Parallel
// scaling is still reported, by the traced run's 2-worker re-run.

constexpr int kSetups = 9;   ///< Set-ups per run; setup_s is their median.
constexpr int kMinReps = 3;  ///< Repetitions per run, at least.
constexpr int kWorkers = 1;  ///< Worker threads of the timed work.
constexpr int kCheckWorkers = 2;  ///< Thread count the output must not depend on.

constexpr int kCampaignRounds = 8;
constexpr int kCampaignBudget = 12000; ///< Programs per round.

constexpr int kNetRounds = 12;
constexpr int kNetBudget = 800;

/// Programs the traced run feeds each layer per round (generator, mutator,
/// executor and coverage timings).
constexpr int kLayerProgs = 256;

constexpr char kCampaignSuite[] = "Syzkaller + KernelGPT";
constexpr char kNetSuite[] = "vnet";

// -- Metric tables ------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced run), in report order.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},        {"setup_s", "s"},  {"execs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},  {"ok_ratio", "ratio"},
};

/// Per-layer metrics (traced run), in report order. Layers a workload
/// does not run report 0.
constexpr MetricDef kPerLayer[] = {
    {"coverage_blocks", "count"},
    {"unique_crashes", "count"},
    {"divergences", "count"},
    {"specs_usable", "count"},
    {"llm_tokens", "count"},
    {"ksrc.index_s", "s"},
    {"extractor.find_s", "s"},
    {"extractor.handlers", "count"},
    {"spec_gen.generate_s", "s"},
    {"spec_gen.tasks", "count"},
    {"spec_gen.valid", "count"},
    {"spec_gen.repaired", "count"},
    {"spec_gen.failed", "count"},
    {"spec_gen.failed_over", "count"},
    {"spec_gen.unserved", "count"},
    {"llm.queries", "count"},
    {"llm.input_tokens", "count"},
    {"llm.output_tokens", "count"},
    {"llm.queries_per_task", "ratio"},
    {"boot.calls", "count"},
    {"boot.busy_s", "s"},
    {"boot.p50_us", "us"},
    {"boot.share", "ratio"},
    {"orchestrator.run_s", "s"},
    {"orchestrator.self_s", "s"},
    {"orchestrator.programs", "count"},
    {"orchestrator.epochs", "count"},
    {"orchestrator.seeds_ingested", "count"},
    {"orchestrator.speedup_vs_1w", "x"},
    {"generator.us_per_prog", "us"},
    {"mutator.us_per_prog", "us"},
    {"executor.us_per_prog", "us"},
    {"executor.calls_per_prog", "count"},
    {"executor.crash_ratio", "ratio"},
    {"coverage.merge_ns", "ns"},
    {"coverage.new_block_ratio", "ratio"},
    {"distill.s", "s"},
    {"distill.self_s", "s"},
    {"distill.input_programs", "count"},
    {"distill.selected", "count"},
    {"distill.keep_ratio", "ratio"},
    {"distill.minimize_executions", "count"},
    {"diff.s", "s"},
    {"diff.self_s", "s"},
    {"diff.programs", "count"},
    {"diff.diverging_programs", "count"},
    {"diff.boots", "count"},
    {"diff.minimize_executions", "count"},
    {"snapshot.save_s", "s"},
    {"snapshot.saves", "count"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.resume_s", "s"},
    {"session.round_p50_s", "s"},
    {"session.round_max_s", "s"},
    {"session.other_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
};

// -- Helpers ------------------------------------------------------------------

/// Counts every operation and check of a run; a failure marks the run
/// incorrect and keeps a line saying what failed.
class Checker {
 public:
  explicit Checker(BenchResult* result) : result_(result) {}

  bool Check(bool ok, const std::string& what) {
    result_->ops.Add(ok);
    if (!ok) {
      result_->correct = false;
      result_->errors.push_back(what);
    }
    return ok;
  }
  bool Check(const util::Status& status, const std::string& what) {
    return Check(status.ok(), what + ": " + status.message());
  }
  /// Counts `attempted` operations of which `failed` failed.
  void Count(long attempted, long failed, const std::string& what) {
    for (long i = 0; i < attempted; ++i) result_->ops.Add(i >= failed);
    if (failed > 0) {
      result_->correct = false;
      result_->errors.push_back(what);
    }
  }
  /// "" means the comparison found no difference.
  bool CheckSame(const std::string& difference, const std::string& what) {
    return Check(difference.empty(), what + ": " + difference);
  }

 private:
  BenchResult* result_;
};

/// One repetition of a workload's fixed work.
struct Rep {
  double wall_s = 0;
  double units = 0;     ///< Programs executed, or generation tasks.
  double resume_s = 0;  ///< Session::Resume of the autosave dir (campaign).
  Outcomes outcomes;    ///< Deterministic values, equal on every repetition.
};

double
PeakRssMb()
{
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t
DirBytes(const std::string& dir)
{
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// A fresh, empty directory under the run's scratch dir.
std::string
MakeScratchDir(const std::string& root, const std::string& tag)
{
  static int counter = 0;
  const std::string dir =
      Format("%s/%s-%d-%d", root.c_str(), tag.c_str(),
             static_cast<int>(getpid()), counter++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

void
RemoveDir(const std::string& dir)
{
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Intervals of `id`'s children named `name`.
std::vector<std::pair<double, double>>
ChildIntervals(const std::vector<Span>& spans, int id, const std::string& name)
{
  std::vector<std::pair<double, double>> out;
  for (const Span& s : spans) {
    if (s.parent == id && s.name == name) out.emplace_back(s.start, s.end);
  }
  return out;
}

/// Σ self time of the spans named `name`, excluding their boot children.
double
SelfSecondsWithoutBoot(const std::vector<Span>& spans, const std::string& name)
{
  double total = 0;
  for (const Span& s : Select(spans, name)) {
    total += SelfTime(s.start, s.end, ChildIntervals(spans, s.id, "boot"));
  }
  return total;
}

void
WarmBoot()
{
  std::unique_ptr<vkernel::KernelModel> kernel = vkernel::MakeStrictModel();
  drivers::Corpus::Instance().RegisterAll(kernel.get());
}

fuzzer::Orchestrator::BootFn
CorpusBoot()
{
  return [](vkernel::KernelModel* k) {
    drivers::Corpus::Instance().RegisterAll(k);
  };
}

// -- Net seeds ------------------------------------------------------------------

size_t
FindCall(const fuzzer::SpecLibrary& lib, const char* full_name, bool* ok)
{
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    if (lib.syscalls()[i].FullName() == full_name) return i;
  }
  *ok = false;
  return 0;
}

fuzzer::Arg
Scalar(uint64_t v)
{
  fuzzer::Arg a;
  a.scalar = v;
  return a;
}

fuzzer::Arg
Ref(int call)
{
  fuzzer::Arg a;
  a.kind = fuzzer::Arg::Kind::kResourceRef;
  a.ref_call = call;
  return a;
}

fuzzer::Arg
AddrBuf(uint16_t port)
{
  fuzzer::Arg a;
  a.kind = fuzzer::Arg::Kind::kBuffer;
  a.bytes = {2, 0, static_cast<uint8_t>(port & 0xff),
             static_cast<uint8_t>(port >> 8), 0, 0, 0, 0};
  return a;
}

fuzzer::Arg
Len(uint64_t v, int of_param)
{
  fuzzer::Arg a = Scalar(v);
  a.len_of_param = of_param;
  return a;
}

/// The canonical TCP establish program (socket, bind, listen, socket,
/// connect, accept) the net-stack experiments table seeds its campaign
/// with.
std::vector<fuzzer::Prog>
NetSeeds(const fuzzer::SpecLibrary& lib, bool* ok)
{
  const size_t sock = FindCall(lib, "socket$tcp", ok);
  const size_t bind = FindCall(lib, "bind$tcp", ok);
  const size_t listen = FindCall(lib, "listen$tcp", ok);
  const size_t connect = FindCall(lib, "connect$tcp", ok);
  const size_t accept = FindCall(lib, "accept$tcp", ok);
  fuzzer::Prog establish;
  establish.calls = {
      fuzzer::Call{sock, {Scalar(2), Scalar(1), Scalar(6)}},
      fuzzer::Call{bind, {Ref(0), AddrBuf(5), Len(8, 1)}},
      fuzzer::Call{listen, {Ref(0), Scalar(0)}},
      fuzzer::Call{sock, {Scalar(2), Scalar(1), Scalar(6)}},
      fuzzer::Call{connect, {Ref(3), AddrBuf(5), Len(8, 1)}},
      fuzzer::Call{accept, {Ref(0), Scalar(0), Scalar(0)}},
  };
  return {establish};
}

// -- Workloads ------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the fixture, replacing any earlier one. In the traced run
  /// `rec` is set and the set-up also times its layers into `layers`.
  virtual void Setup(Checker* check, SpanRecorder* rec, Outcomes* layers) = 0;

  /// One untraced repetition.
  virtual Rep Run(Checker* check) = 0;

  /// One traced repetition: the same work with every layer call timed.
  virtual Rep RunTraced(Checker* check, SpanRecorder* rec,
                        Outcomes* layers) = 0;

  /// Run-level output checks after the last repetition.
  virtual void Finish(Checker*) {}

  /// What one unit of execs_per_s is.
  virtual const char* UnitName() const = 0;
};

/// campaign and oracle-net: a hash-chain Session over one suite.
class FuzzWorkload : public Workload {
 public:
  FuzzWorkload(bool net, uint64_t seed, std::string scratch)
      : net_(net),
        // The Session seed is derived from the workload seed; the salt
        // keeps the two fuzz workloads on different streams.
        session_seed_(util::HashCombine(net ? 0x6E6574ULL : 0x63616DULL, seed)),
        scratch_(std::move(scratch)) {}

  const char* UnitName() const override { return "programs executed"; }

  void Setup(Checker* check, SpanRecorder* rec, Outcomes* layers) override {
    ctx_.reset();
    lib_.reset();
    seeds_.clear();
    const drivers::Corpus& corpus = drivers::Corpus::Instance();
    if (net_) {
      std::optional<ScopedSpan> span;
      if (rec) span.emplace(rec, "ksrc.index");
      const syzlang::ConstTable consts = corpus.BuildIndex().BuildConstTable();
      span.reset();
      lib_ = std::make_unique<fuzzer::SpecLibrary>();
      lib_->SetConsts(consts);
      lib_->Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("tcp")));
      lib_->Add(drivers::GroundTruthSocketSpec(*corpus.FindSocket("udp")));
      lib_->Finalize();
      bool ok = true;
      seeds_ = NetSeeds(*lib_, &ok);
      check->Check(ok, "net suite lacks the establish program's calls");
    } else {
      check->Check(experiments::ExperimentContext::Create(
                       experiments::ContextOptions{}, &ctx_),
                   "ExperimentContext");
      if (!ctx_) return;
      lib_ = std::make_unique<fuzzer::SpecLibrary>(
          ctx_->SyzkallerPlusKernelGptSuite());
      if (rec) ReplayContextGeneration(check, rec, layers);
    }
    WarmBoot();
    if (rec) {
      const std::vector<Span> spans = rec->Snapshot();
      (*layers)["ksrc.index_s"] = TotalSeconds(Select(spans, "ksrc.index"));
      (*layers)["extractor.find_s"] =
          TotalSeconds(Select(spans, "extractor.find"));
      (*layers)["spec_gen.generate_s"] =
          TotalSeconds(Select(spans, "spec_gen.generate"));
    }
  }

  Rep Run(Checker* check) override {
    Rep rep;
    if (!lib_) return rep;
    const std::string dir = net_ ? "" : MakeScratchDir(scratch_, "campaign");
    fuzzer::Session session(Options(dir), CorpusBoot());
    if (!Start(check, &session)) return rep;
    const double start = SteadySeconds();
    for (int r = 0; r < Rounds(); ++r) {
      check->Check(session.RunRound(), Format("round %d", r));
      if (!dir.empty()) {
        check->Check(session.save_failures() == 0,
                     Format("autosave after round %d: %s", r,
                            session.last_save_error().c_str()));
      }
    }
    rep.wall_s = SteadySeconds() - start;
    const fuzzer::SuiteState& live = *session.Find(Suite());
    if (!dir.empty()) {
      rep.resume_s = CheckResume(check, live, dir, nullptr);
      RemoveDir(dir);
    }
    Finalize(check, live, &rep);
    return rep;
  }

  Rep RunTraced(Checker* check, SpanRecorder* rec, Outcomes* layers) override {
    Rep rep;
    if (!lib_) return rep;
    const size_t first_span = rec->Snapshot().size();
    const std::string dir = net_ ? "" : MakeScratchDir(scratch_, "traced");
    const fuzzer::Orchestrator::BootFn boot = TimedBoot(CorpusBoot(), rec);
    // Autosave is replaced by an explicit, timed Save after each round.
    fuzzer::Session session(Options(""), boot);
    if (!Start(check, &session)) return rep;

    Replay replay;
    replay.corpus = seeds_;
    LayerTotals totals;
    for (int r = 0; r < Rounds(); ++r) {
      const std::vector<fuzzer::Prog> carried = session.Find(Suite())->corpus;
      {
        ScopedSpan span(rec, "session.round", r);
        check->Check(session.RunRound(), Format("traced round %d", r));
      }
      if (!dir.empty()) {
        ScopedSpan span(rec, "snapshot.save", r);
        check->Check(session.Save(dir), Format("save after round %d", r));
      }
      ReplayRound(check, rec, session, r, carried, boot, &replay, layers);
      check->CheckSame(Diff(OutcomeOf(*session.Find(Suite())),
                            replay.Outcome()),
                       Format("replay of round %d differs from the Session",
                              r));
      MeasureLayers(rec, session, r, carried, &totals);
    }
    const fuzzer::SuiteState& live = *session.Find(Suite());
    if (!dir.empty()) {
      (*layers)["snapshot.bytes"] = static_cast<double>(DirBytes(dir));
      rep.resume_s = CheckResume(check, live, dir, rec);
      RemoveDir(dir);
    }

    std::vector<Span> spans = rec->Snapshot();
    spans.erase(spans.begin(), spans.begin() + static_cast<long>(first_span));
    // Span ids index the full list; re-index parents into this slice.
    for (Span& s : spans) {
      s.id -= static_cast<int>(first_span);
      s.parent = s.parent >= static_cast<int>(first_span)
                     ? s.parent - static_cast<int>(first_span)
                     : -1;
    }
    SpanLayers(spans, layers);
    totals.Write(layers);
    rep.wall_s = TotalSeconds(Select(spans, "session.round")) +
                 TotalSeconds(Select(spans, "snapshot.save"));
    Finalize(check, live, &rep);
    return rep;
  }

 private:
  /// The replayed round state: what RunRound's public entry points
  /// produced, accumulated the way the Session accumulates it.
  struct Replay {
    vkernel::Coverage coverage;
    std::set<std::string> crash_titles;
    std::vector<fuzzer::Prog> corpus;
    size_t programs_executed = 0;
    size_t divergences = 0;

    SuiteOutcome Outcome() const {
      SuiteOutcome out;
      out.coverage_blocks = coverage.Count();
      out.crash_titles.assign(crash_titles.begin(), crash_titles.end());
      out.corpus_hashes = CorpusHashes(corpus);
      out.programs_executed = programs_executed;
      out.divergences = divergences;
      return out;
    }
  };

  /// Per-layer timings over each round's own inputs.
  struct LayerTotals {
    double gen_s = 0, mut_s = 0, exec_s = 0, merge_s = 0;
    double generated = 0, mutated = 0, executed = 0, merges = 0;
    double calls = 0, crashed = 0, merges_new = 0;

    void Write(Outcomes* layers) const {
      auto per = [](double total, double n, double scale) {
        return n > 0 ? total / n * scale : 0;
      };
      (*layers)["generator.us_per_prog"] = per(gen_s, generated, 1e6);
      (*layers)["mutator.us_per_prog"] = per(mut_s, mutated, 1e6);
      (*layers)["executor.us_per_prog"] = per(exec_s, executed, 1e6);
      (*layers)["executor.calls_per_prog"] = per(calls, executed, 1);
      (*layers)["executor.crash_ratio"] = per(crashed, executed, 1);
      (*layers)["coverage.merge_ns"] = per(merge_s, merges, 1e9);
      (*layers)["coverage.new_block_ratio"] = per(merges_new, merges, 1);
    }
  };

  int Rounds() const { return net_ ? kNetRounds : kCampaignRounds; }
  const char* Suite() const { return net_ ? kNetSuite : kCampaignSuite; }

  fuzzer::SessionOptions Options(const std::string& autosave_dir) const {
    fuzzer::SessionOptions o;
    o.WithSeed(session_seed_)
        .WithRounds(Rounds())
        .WithSchedule(fuzzer::SeedSchedule::kHashChain)
        .WithCarryCorpus(true)
        .WithDistill(true)
        .WithWorkers(kWorkers)
        .WithProgramBudget(net_ ? kNetBudget : kCampaignBudget);
    if (net_) {
      o.WithDiffSubject(vkernel::MakePermissiveModel, kWorkers);
    } else {
      o.WithSnapshotCodec(fuzzer::SnapshotCodec::kBinary);
    }
    if (!autosave_dir.empty()) o.WithAutosave(autosave_dir, 1);
    return o;
  }

  /// Registers the suite (and the net seed corpus) on a fresh session.
  bool Start(Checker* check, fuzzer::Session* session) const {
    if (!check->Check(session->RegisterSuite(Suite(), lib_.get()),
                      "register suite")) {
      return false;
    }
    session->Find(Suite())->corpus = seeds_;
    return true;
  }

  /// Resumes `dir` into a fresh Session, checks it equals `live`, and
  /// returns the seconds Resume took (recorded as a span when `rec` is
  /// set).
  double CheckResume(Checker* check, const fuzzer::SuiteState& live,
                     const std::string& dir, SpanRecorder* rec) const {
    fuzzer::Session resumed(Options(dir), CorpusBoot());
    if (!check->Check(resumed.RegisterSuite(Suite(), lib_.get()),
                      "register suite for resume")) {
      return 0;
    }
    const double start = SteadySeconds();
    const util::Status status = resumed.Resume(dir);
    const double resume_s = SteadySeconds() - start;
    if (rec) rec->Record("snapshot.resume", rec->Now() - resume_s, rec->Now());
    if (check->Check(status, "resume")) {
      check->CheckSame(DiffStates(live, *resumed.Find(Suite())),
                       "resumed session differs from the live one");
    }
    return resume_s;
  }

  void Finalize(Checker* check, const fuzzer::SuiteState& live, Rep* rep) {
    rep->units = static_cast<double>(live.programs_executed);
    double divergences = 0;
    for (const fuzzer::RoundReport& round : live.rounds) {
      divergences += static_cast<double>(round.divergences);
    }
    Outcomes& o = rep->outcomes;
    o["coverage_blocks"] = static_cast<double>(live.coverage.Count());
    o["unique_crashes"] = static_cast<double>(live.crashes.size());
    o["divergences"] = divergences;
    o["programs_executed"] = static_cast<double>(live.programs_executed);
    o["corpus_programs"] = static_cast<double>(live.corpus.size());
    if (ctx_) {
      double usable = 0;
      for (const experiments::ModuleResult& m : ctx_->modules()) {
        // A module without an extracted handler keeps an empty default
        // generation; only generated specs count.
        if (!m.kernelgpt.module.empty() && m.KernelGptUsable()) usable += 1;
      }
      o["specs_usable"] = usable;
      o["llm_tokens"] = static_cast<double>(
          ctx_->meter().total_input_tokens() +
          ctx_->meter().total_output_tokens());
    }
    // The exact final corpus must repeat too, not just its size.
    const SuiteOutcome outcome = OutcomeOf(live);
    if (!first_outcome_) {
      first_outcome_ = outcome;
    } else {
      check->CheckSame(Diff(*first_outcome_, outcome),
                       "final state differs between repetitions");
    }
  }

  /// Re-runs the ExperimentContext's generation through the public entry
  /// points it calls (index build, handler extraction, KernelGpt per
  /// handler) with a span around each, and checks it reproduces the
  /// context's generation outcome and token bill.
  void ReplayContextGeneration(Checker* check, SpanRecorder* rec,
                               Outcomes* layers) const {
    const drivers::Corpus& corpus = drivers::Corpus::Instance();
    std::optional<ScopedSpan> span(std::in_place, rec, "ksrc.index");
    const ksrc::DefinitionIndex index = corpus.BuildIndex();
    span.emplace(rec, "extractor.find");
    const std::vector<extractor::DriverHandler> driver_handlers =
        extractor::FindDriverHandlers(index);
    const std::vector<extractor::SocketHandler> socket_handlers =
        extractor::FindSocketHandlers(index);
    span.emplace(rec, "spec_gen.generate");
    llm::TokenMeter meter;
    meter.SetKeepText(false);
    std::unique_ptr<llm::Backend> backend =
        llm::BackendRegistry::Default().Create("gpt-4", &index, &meter);
    spec_gen::KernelGpt kernelgpt(&index, spec_gen::Options{}, backend.get());
    // Module id -> generation, checked against the context after the span.
    std::vector<std::pair<std::string, spec_gen::HandlerGeneration>> gens;
    for (const drivers::DeviceSpec* dev : corpus.LoadedDevices()) {
      for (const extractor::DriverHandler& h : driver_handlers) {
        if (h.file_path != "drivers/" + dev->id + ".c") continue;
        if (h.reg == extractor::RegKind::kUnreferenced) continue;
        gens.emplace_back(dev->id, kernelgpt.GenerateForDriver(h));
        break;
      }
    }
    for (const drivers::SocketSpec* sock : corpus.LoadedSockets()) {
      for (const extractor::SocketHandler& h : socket_handlers) {
        if (h.file_path != "net/" + sock->id + ".c") continue;
        gens.emplace_back(sock->id, kernelgpt.GenerateForSocket(h));
        break;
      }
    }
    span.reset();

    Outcomes& l = *layers;
    size_t mismatches = 0;
    for (const auto& [id, gen] : gens) {
      l["spec_gen.tasks"] += 1;
      switch (gen.status) {
        case spec_gen::GenStatus::kValidDirect: l["spec_gen.valid"] += 1; break;
        case spec_gen::GenStatus::kRepaired: l["spec_gen.repaired"] += 1; break;
        case spec_gen::GenStatus::kFailed: l["spec_gen.failed"] += 1; break;
      }
      const experiments::ModuleResult* m = ctx_->Find(id);
      if (!m || m->kernelgpt.status != gen.status ||
          syzlang::Print(m->kernelgpt.spec) != syzlang::Print(gen.spec)) {
        ++mismatches;
      }
    }
    check->Check(mismatches == 0 &&
                     meter.total_input_tokens() ==
                         ctx_->meter().total_input_tokens() &&
                     meter.total_output_tokens() ==
                         ctx_->meter().total_output_tokens(),
                 Format("generation replay differs from the context "
                        "(%zu handlers)",
                        mismatches));
    l["extractor.handlers"] = l["spec_gen.tasks"];
    l["llm.queries"] = static_cast<double>(meter.query_count());
    l["llm.input_tokens"] = static_cast<double>(meter.total_input_tokens());
    l["llm.output_tokens"] = static_cast<double>(meter.total_output_tokens());
    l["llm.queries_per_task"] =
        l["spec_gen.tasks"] > 0 ? l["llm.queries"] / l["spec_gen.tasks"] : 0;
  }

  /// Replays round `r` through the entry points RunRound calls —
  /// RunShardedCampaign, Distiller::Distill, DiffRunner::Run — with a span
  /// around each.
  void ReplayRound(Checker* check, SpanRecorder* rec,
                   const fuzzer::Session& session, int r,
                   const std::vector<fuzzer::Prog>& carried,
                   const fuzzer::Orchestrator::BootFn& boot, Replay* replay,
                   Outcomes* layers) const {
    const fuzzer::SessionOptions& o = session.options();
    const uint64_t seed = session.RoundSeed(r);
    fuzzer::OrchestratorOptions orchestrator = o.orchestrator;
    orchestrator.campaign.seed = seed;
    if (o.carry_corpus) orchestrator.campaign.seed_corpus = carried;
    Outcomes& l = *layers;

    ScopedSpan round_span(rec, "replay", r);
    fuzzer::OrchestratorResult campaign;
    try {
      {
        ScopedSpan span(rec, "orchestrator.run");
        campaign = fuzzer::RunShardedCampaign(*lib_, boot, orchestrator);
      }
      {
        fuzzer::OrchestratorOptions more = orchestrator;
        more.num_workers = kCheckWorkers;
        ScopedSpan span(rec, "orchestrator.run_2w");
        fuzzer::RunShardedCampaign(*lib_, CorpusBoot(), more);
      }
      fuzzer::DistillResult distilled;
      {
        ScopedSpan span(rec, "distill");
        distilled = fuzzer::Distiller(lib_.get(), boot, o.distill)
                        .Distill(campaign.corpus);
      }
      fuzzer::DiffReport diff;
      if (o.diff_subject) {
        // The probe batch RunRound appends to the distilled corpus.
        std::vector<fuzzer::Prog> progs = distilled.corpus;
        util::Rng probe_rng(util::HashCombine(seed, 0xD1FFu));
        fuzzer::Generator probe_generator(lib_.get(), &probe_rng);
        fuzzer::Mutator probe_mutator(lib_.get(), &probe_generator,
                                      &probe_rng);
        for (int p = 0; p < o.diff_probe_budget; ++p) {
          fuzzer::Prog prog = probe_generator.Generate(6);
          probe_mutator.Mutate(&prog);
          if (!prog.empty()) progs.push_back(std::move(prog));
        }
        fuzzer::DiffOptions options;
        options.baseline = o.orchestrator.model_factory;
        options.subject = o.diff_subject;
        options.boot = boot;
        options.num_workers = o.diff_workers;
        ScopedSpan span(rec, "diff");
        diff = fuzzer::DiffRunner(lib_.get(), options).Run(progs);
      }

      replay->coverage.Merge(campaign.coverage);
      for (const auto& [title, count] : campaign.crashes) {
        replay->crash_titles.insert(title);
      }
      replay->corpus = std::move(distilled.corpus);
      replay->programs_executed += campaign.programs_executed;
      replay->divergences = diff.UniqueDivergenceCount();

      l["orchestrator.programs"] += static_cast<double>(campaign.programs_executed);
      l["orchestrator.epochs"] += static_cast<double>(campaign.epochs.size());
      for (const fuzzer::ShardStats& shard : campaign.shards) {
        l["orchestrator.seeds_ingested"] +=
            static_cast<double>(shard.seeds_ingested);
      }
      l["distill.input_programs"] +=
          static_cast<double>(distilled.stats.input_programs);
      l["distill.selected"] += static_cast<double>(distilled.stats.selected);
      l["distill.minimize_executions"] +=
          static_cast<double>(distilled.stats.minimize_executions);
      l["diff.programs"] += static_cast<double>(diff.programs);
      l["diff.diverging_programs"] +=
          static_cast<double>(diff.diverging_programs);
      for (const fuzzer::Divergence& d : diff.divergences) {
        l["diff.minimize_executions"] +=
            static_cast<double>(d.minimize_executions);
      }
    } catch (const std::exception& e) {
      check->Check(false, Format("replay of round %d threw: %s", r, e.what()));
    }
  }

  /// Times Generator::Generate, Mutator::Mutate, Executor::RunBatch and
  /// Coverage::Merge over round `r`'s inputs: programs generated from the
  /// round seed and mutants of the corpus the round was seeded with.
  void MeasureLayers(SpanRecorder* rec, const fuzzer::Session& session, int r,
                     const std::vector<fuzzer::Prog>& carried,
                     LayerTotals* t) const {
    const fuzzer::SessionOptions& o = session.options();
    ScopedSpan layers_span(rec, "layers", r);
    util::Rng rng(util::HashCombine(session.RoundSeed(r), 0x1A7E5ULL));
    fuzzer::Generator generator(lib_.get(), &rng);
    fuzzer::Mutator mutator(lib_.get(), &generator, &rng);
    const int max_len = o.orchestrator.campaign.max_prog_len;

    std::vector<fuzzer::Prog> progs;
    progs.reserve(2 * kLayerProgs);
    double start = SteadySeconds();
    for (int i = 0; i < kLayerProgs; ++i) progs.push_back(generator.Generate(max_len));
    t->gen_s += SteadySeconds() - start;
    t->generated += kLayerProgs;

    const std::vector<fuzzer::Prog>& base = carried.empty() ? progs : carried;
    std::vector<fuzzer::Prog> mutants;
    mutants.reserve(kLayerProgs);
    for (int i = 0; i < kLayerProgs; ++i) {
      mutants.push_back(base[static_cast<size_t>(i) % base.size()]);
    }
    start = SteadySeconds();
    for (fuzzer::Prog& p : mutants) mutator.Mutate(&p);
    t->mut_s += SteadySeconds() - start;
    t->mutated += kLayerProgs;
    for (fuzzer::Prog& p : mutants) progs.push_back(std::move(p));

    std::unique_ptr<vkernel::KernelModel> kernel =
        o.orchestrator.model_factory ? o.orchestrator.model_factory()
                                     : vkernel::MakeStrictModel();
    drivers::Corpus::Instance().RegisterAll(kernel.get());
    fuzzer::Executor executor(kernel.get(), lib_.get());
    vkernel::Coverage total;
    start = SteadySeconds();
    const std::vector<fuzzer::ExecResult> results =
        executor.RunBatch(util::Span<const fuzzer::Prog>(progs), &total);
    t->exec_s += SteadySeconds() - start;
    t->executed += static_cast<double>(progs.size());
    for (const fuzzer::ExecResult& res : results) {
      t->calls += static_cast<double>(res.calls_executed);
      if (res.crashed) t->crashed += 1;
    }

    // Per-program signatures (untimed), then the timed merges.
    vkernel::Coverage scratch;
    std::vector<vkernel::Coverage> signatures;
    executor.RunBatch(util::Span<const fuzzer::Prog>(progs), &scratch,
                      &signatures);
    vkernel::Coverage merged;
    size_t merges_new = 0;
    start = SteadySeconds();
    for (const vkernel::Coverage& sig : signatures) {
      if (merged.Merge(sig) > 0) ++merges_new;
    }
    t->merge_s += SteadySeconds() - start;
    t->merges += static_cast<double>(signatures.size());
    t->merges_new += static_cast<double>(merges_new);
  }

  /// Per-layer values that come from the traced repetition's spans.
  static void SpanLayers(const std::vector<Span>& spans, Outcomes* layers) {
    Outcomes& l = *layers;
    const std::vector<Span> rounds = Select(spans, "session.round");
    const std::vector<double> round_s = Durations(rounds);
    const double rounds_total = TotalSeconds(rounds);
    l["session.round_p50_s"] = Median(round_s);
    l["session.round_max_s"] =
        round_s.empty() ? 0 : *std::max_element(round_s.begin(), round_s.end());
    // RunRound is one call: its time not spent in the replayed stages is
    // the Session's own work (seed copies, probes, commit, trend record).
    double stages = 0;
    for (const char* stage : {"orchestrator.run", "distill", "diff"}) {
      stages += TotalSeconds(Select(spans, stage));
    }
    l["session.other_s"] = rounds_total - stages;

    const std::vector<Span> boots = Select(spans, "boot", "session.round");
    std::vector<double> boot_us = Durations(boots);
    for (double& us : boot_us) us *= 1e6;
    l["boot.calls"] = static_cast<double>(boots.size());
    l["boot.busy_s"] = TotalSeconds(boots);
    l["boot.p50_us"] = Median(boot_us);
    l["boot.share"] = rounds_total > 0 ? l["boot.busy_s"] / rounds_total : 0;

    const double run_s = TotalSeconds(Select(spans, "orchestrator.run"));
    const double run_2w_s = TotalSeconds(Select(spans, "orchestrator.run_2w"));
    l["orchestrator.run_s"] = run_s;
    l["orchestrator.self_s"] = SelfSecondsWithoutBoot(spans, "orchestrator.run");
    l["orchestrator.speedup_vs_1w"] = run_2w_s > 0 ? run_s / run_2w_s : 0;
    l["distill.s"] = TotalSeconds(Select(spans, "distill"));
    l["distill.self_s"] = SelfSecondsWithoutBoot(spans, "distill");
    l["distill.keep_ratio"] =
        l["distill.input_programs"] > 0
            ? l["distill.selected"] / l["distill.input_programs"]
            : 0;
    l["diff.s"] = TotalSeconds(Select(spans, "diff"));
    l["diff.self_s"] = SelfSecondsWithoutBoot(spans, "diff");
    l["diff.boots"] =
        static_cast<double>(Select(spans, "boot", "diff").size());
    l["snapshot.save_s"] = TotalSeconds(Select(spans, "snapshot.save"));
    l["snapshot.saves"] =
        static_cast<double>(Select(spans, "snapshot.save").size());
    l["snapshot.resume_s"] = TotalSeconds(Select(spans, "snapshot.resume"));
  }

  const bool net_;
  const uint64_t session_seed_;
  const std::string scratch_;
  std::unique_ptr<experiments::ExperimentContext> ctx_;
  std::unique_ptr<fuzzer::SpecLibrary> lib_;
  std::vector<fuzzer::Prog> seeds_;
  std::optional<SuiteOutcome> first_outcome_;
};

/// specgen: SpecGenService over every registered backend and every
/// extracted handler. Independent of the seed.
class SpecgenWorkload : public Workload {
 public:
  const char* UnitName() const override { return "generation tasks"; }

  void Setup(Checker*, SpanRecorder* rec, Outcomes* layers) override {
    index_.reset();
    drivers_.clear();
    sockets_.clear();
    std::optional<ScopedSpan> span;
    if (rec) span.emplace(rec, "ksrc.index");
    index_ = std::make_unique<ksrc::DefinitionIndex>(
        drivers::Corpus::Instance().BuildIndex());
    if (rec) span.emplace(rec, "extractor.find");
    for (extractor::DriverHandler& h : extractor::FindDriverHandlers(*index_)) {
      if (h.reg == extractor::RegKind::kUnreferenced) continue;
      drivers_.push_back(std::move(h));
    }
    sockets_ = extractor::FindSocketHandlers(*index_);
    span.reset();
    backends_ = llm::BackendRegistry::Default().Names();
    if (rec) {
      const std::vector<Span> spans = rec->Snapshot();
      (*layers)["ksrc.index_s"] = TotalSeconds(Select(spans, "ksrc.index"));
      (*layers)["extractor.find_s"] =
          TotalSeconds(Select(spans, "extractor.find"));
      (*layers)["extractor.handlers"] =
          static_cast<double>(drivers_.size() + sockets_.size());
    }
  }

  Rep Run(Checker* check) override {
    Rep rep;
    const double start = SteadySeconds();
    const spec_gen::ServiceResult result = Generate(kWorkers);
    rep.wall_s = SteadySeconds() - start;
    Tally(check, result, &rep, nullptr);
    return rep;
  }

  Rep RunTraced(Checker* check, SpanRecorder* rec, Outcomes* layers) override {
    Rep rep;
    spec_gen::ServiceResult result;
    {
      ScopedSpan span(rec, "spec_gen.generate");
      result = Generate(kWorkers);
    }
    const Span span = Select(rec->Snapshot(), "spec_gen.generate").back();
    rep.wall_s = span.end - span.start;
    (*layers)["spec_gen.generate_s"] = rep.wall_s;
    Tally(check, result, &rep, layers);
    return rep;
  }

  void Finish(Checker* check) override {
    // The service's output must not depend on its thread count.
    check->Check(SpecsHash(Generate(kCheckWorkers)) == specs_hash_,
                 "specs rendered at 1 and 2 threads differ");
  }

 private:
  spec_gen::ServiceResult Generate(int threads) const {
    spec_gen::ServiceOptions options;
    options.backends = backends_;
    options.num_threads = threads;
    spec_gen::SpecGenService service(index_.get(), options);
    return service.Generate(drivers_, sockets_);
  }

  static uint64_t SpecsHash(const spec_gen::ServiceResult& result) {
    uint64_t h = 0;
    for (const spec_gen::BackendRun& run : result.runs) {
      h = util::HashCombine(h, util::StableHash(run.backend));
      for (const spec_gen::HandlerGeneration& gen : run.generations) {
        h = util::HashCombine(h, util::StableHash(syzlang::Print(gen.spec)));
        h = util::HashCombine(h, static_cast<uint64_t>(gen.status));
      }
    }
    return h;
  }

  void Tally(Checker* check, const spec_gen::ServiceResult& result, Rep* rep,
             Outcomes* layers) {
    const uint64_t hash = SpecsHash(result);
    if (specs_hash_ == 0) specs_hash_ = hash;
    check->Check(hash == specs_hash_, "specs differ between repetitions");
    Outcomes& o = rep->outcomes;
    Outcomes l;
    for (const spec_gen::BackendRun& run : result.runs) {
      const spec_gen::BackendReport& r = run.report;
      // Every (backend, handler) task is one operation; an unserved task
      // is a failed one.
      check->Count(static_cast<long>(r.handlers),
                   static_cast<long>(r.unserved),
                   Format("%s: %zu tasks unserved (%s)", r.backend.c_str(),
                          r.unserved, r.last_error.c_str()));
      rep->units += static_cast<double>(r.handlers);
      o["specs_usable"] += static_cast<double>(r.valid + r.repaired);
      o["llm_tokens"] += static_cast<double>(r.input_tokens + r.output_tokens);
      l["spec_gen.tasks"] += static_cast<double>(r.handlers);
      l["spec_gen.valid"] += static_cast<double>(r.valid);
      l["spec_gen.repaired"] += static_cast<double>(r.repaired);
      l["spec_gen.failed"] += static_cast<double>(r.failed);
      l["spec_gen.failed_over"] += static_cast<double>(r.failed_over);
      l["spec_gen.unserved"] += static_cast<double>(r.unserved);
      l["llm.queries"] += static_cast<double>(r.queries);
      l["llm.input_tokens"] += static_cast<double>(r.input_tokens);
      l["llm.output_tokens"] += static_cast<double>(r.output_tokens);
    }
    if (!layers) return;
    l["llm.queries_per_task"] =
        l["spec_gen.tasks"] > 0 ? l["llm.queries"] / l["spec_gen.tasks"] : 0;
    for (const auto& [name, value] : l) (*layers)[name] = value;
  }

  std::unique_ptr<ksrc::DefinitionIndex> index_;
  std::vector<extractor::DriverHandler> drivers_;
  std::vector<extractor::SocketHandler> sockets_;
  std::vector<std::string> backends_;
  uint64_t specs_hash_ = 0;
};

std::unique_ptr<Workload>
MakeWorkload(const BenchOptions& options)
{
  if (options.workload == "campaign") {
    return std::make_unique<FuzzWorkload>(false, options.seed,
                                          options.scratch_dir);
  }
  if (options.workload == "oracle-net") {
    return std::make_unique<FuzzWorkload>(true, options.seed,
                                          options.scratch_dir);
  }
  if (options.workload == "specgen") return std::make_unique<SpecgenWorkload>();
  return nullptr;
}

void
AddMetric(BenchResult* result, const MetricDef& def, double value)
{
  result->metrics.push_back(Metric{def.name, value, def.unit});
}

}  // namespace

double
SteadySeconds()
{
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BenchResult
RunBenchmark(const BenchOptions& options)
{
  BenchResult result;
  Checker check(&result);
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (!workload) {
    check.Check(false, "unknown workload '" + options.workload + "'");
    return result;
  }
  if (options.workload == "specgen") {
    result.notes.push_back("specgen does not depend on the seed");
  }

  std::vector<Rep> reps;
  auto check_repeat = [&](const Rep& rep) {
    if (!reps.empty()) {
      check.CheckSame(DiffOutcomes(reps.front().outcomes, rep.outcomes),
                      "deterministic outcome differs between repetitions");
    }
  };

  if (!options.trace) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
      const double start = k == 0 ? options.process_start : SteadySeconds();
      workload->Setup(&check, nullptr, nullptr);
      setups.push_back(SteadySeconds() - start);
    }
    const double start = SteadySeconds();
    while (static_cast<int>(reps.size()) < kMinReps ||
           SteadySeconds() - start < options.seconds) {
      Rep rep = workload->Run(&check);
      check_repeat(rep);
      reps.push_back(std::move(rep));
      if (!result.correct) break;
    }
    workload->Finish(&check);

    std::vector<double> walls;
    std::vector<double> rates;
    for (const Rep& rep : reps) {
      walls.push_back(rep.wall_s);
      rates.push_back(rep.wall_s > 0 ? rep.units / rep.wall_s : 0);
    }
    AddMetric(&result, kEndToEnd[0], Median(walls));
    AddMetric(&result, kEndToEnd[1], Median(setups));
    AddMetric(&result, kEndToEnd[2], Median(rates));
    AddMetric(&result, kEndToEnd[3], PeakRssMb());
    AddMetric(&result, kEndToEnd[4], result.ops.OkRatio());
    const std::array<double, 3> q = Quartiles(walls);
    result.notes.push_back(Format(
        "%zu repetitions, %d set-ups; wall_s quartiles %.4f / %.4f / %.4f s; "
        "one unit of execs_per_s is one of the %s",
        reps.size(), kSetups, q[0], q[1], q[2], workload->UnitName()));
    std::vector<double> resumes;
    for (const Rep& rep : reps) resumes.push_back(rep.resume_s);
    if (Median(resumes) > 0) {
      result.notes.push_back(Format("resume_s median %.6f", Median(resumes)));
    }
  } else {
    SpanRecorder rec;
    Outcomes setup_layers;
    workload->Setup(&check, &rec, &setup_layers);
    std::vector<double> untraced;
    std::vector<Outcomes> traced_layers;
    std::vector<double> traced;
    const double start = SteadySeconds();
    while (traced.empty() || SteadySeconds() - start < options.seconds) {
      Rep plain = workload->Run(&check);
      check_repeat(plain);
      untraced.push_back(plain.wall_s);
      reps.push_back(std::move(plain));
      Outcomes layers = setup_layers;
      Rep rep = workload->RunTraced(&check, &rec, &layers);
      check_repeat(rep);
      traced.push_back(rep.wall_s);
      reps.push_back(std::move(rep));
      traced_layers.push_back(std::move(layers));
      if (!result.correct) break;
    }
    workload->Finish(&check);

    // Per-layer values: the median over traced repetitions.
    Outcomes layers;
    std::set<std::string> names;
    for (const Outcomes& l : traced_layers) {
      for (const auto& [name, value] : l) names.insert(name);
    }
    for (const std::string& name : names) {
      std::vector<double> values;
      for (const Outcomes& l : traced_layers) {
        auto it = l.find(name);
        values.push_back(it == l.end() ? 0 : it->second);
      }
      layers[name] = Median(values);
    }
    for (const auto& [name, value] : reps.front().outcomes) {
      layers[name] = value;
    }
    layers["trace.wall_s"] = Median(traced);
    layers["trace.overhead_s"] = Median(traced) - Median(untraced);
    for (const MetricDef& def : kPerLayer) {
      auto it = layers.find(def.name);
      AddMetric(&result, def, it == layers.end() ? 0 : it->second);
    }
    if (!options.spans_path.empty()) {
      check.Check(rec.WriteJson(options.spans_path), "write spans");
      result.notes.push_back("spans written to " + options.spans_path);
    }
    result.notes.push_back(
        Format("%zu traced repetitions; untraced wall_s median %.6f",
               traced.size(), Median(untraced)));
  }

  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      check.Check(false, "metric " + m.name + " is not finite");
      m.value = 0;
    }
  }
  if (!reps.empty()) {
    for (const auto& [name, value] : reps.front().outcomes) {
      result.notes.push_back(Format("%s = %.17g", name.c_str(), value));
    }
  }
  return result;
}

}  // namespace pipebench
