/// \file
/// The unified campaign-service API: one persistent object that owns spec
/// suites, kernel boot, orchestrator/distiller wiring, and round
/// scheduling — the syzkaller-manager analog for the whole fuzzing
/// lifecycle (fuzz -> distill -> re-seed, round over round). The
/// experiment harness (`ExperimentContext::Fuzz`) drives a Session; a
/// single fuzzing run is a one-round session with distillation off, whose
/// round 0 runs on the master seed itself.
///
/// A session schedules rounds deterministically from a single master
/// seed. Two seed schedules cover the two historical pipelines:
///  - kHashChain: round r runs on HashCombine(seed, r) (r = 0 keeps the
///    seed) with the previous round's distilled corpus re-seeding every
///    shard — the campaign-of-campaigns corpus lifecycle.
///  - kArithmetic: round r runs on seed + r * stride with independent
///    rounds — the experiment harness's repetition semantics.
///
/// `Save(dir)` persists the complete durable state (distilled corpora,
/// minimized reproducers, cumulative coverage, crash tallies, trend
/// records, schedule position) into one versioned KGPB file;
/// `Resume(dir)` restores it into a fresh process, after which the
/// session continues the exact RNG-deterministic schedule: an interrupted
/// run and a straight-through run of the same total rounds produce
/// bit-identical corpora, coverage, and crash titles (session_test pins
/// this).
///
/// All failure modes — empty or duplicate suites, malformed or
/// version-mismatched snapshots, suites whose specs drifted since the
/// snapshot was taken — surface as util::Status returns, never aborts or
/// silent fallbacks.

#ifndef KERNELGPT_FUZZER_SESSION_H_
#define KERNELGPT_FUZZER_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fuzzer/diff_runner.h"
#include "fuzzer/distiller.h"
#include "fuzzer/orchestrator.h"
#include "fuzzer/snapshot.h"

namespace kernelgpt::fuzzer {

/// How a session derives each round's campaign master seed.
enum class SeedSchedule {
  kHashChain,   ///< round r: HashCombine(seed, r); r = 0 keeps the seed.
  kArithmetic,  ///< round r: seed + r * seed_stride.
};

/// Session parameters. Plain members with builder-style chainers so call
/// sites read as one declarative expression:
///
///   Session session(SessionOptions()
///                       .WithSeed(42)
///                       .WithRounds(4)
///                       .WithWorkers(8)
///                       .WithPlateau(2),
///                   boot);
struct SessionOptions {
  uint64_t seed = 1;

  /// Rounds one Run() call executes (<= 0 means "until the plateau rule
  /// fires"; Run() rejects an unbounded session with no plateau rule).
  /// Counted per Run() call, so a resumed session runs `rounds` MORE
  /// rounds on top of its restored schedule position.
  int rounds = 2;

  SeedSchedule schedule = SeedSchedule::kHashChain;
  /// Per-round seed increment under kArithmetic (ignored by kHashChain).
  uint64_t seed_stride = 7919;

  /// Re-seed every shard of round r+1 with round r's resulting corpus.
  bool carry_corpus = true;
  /// Distill each round's merged corpus (minimal covering subset + one
  /// minimized reproducer per crash title) before it is carried/stored;
  /// off stores the raw merged corpus and collects no reproducers.
  bool distill_between_rounds = true;

  /// Coverage-plateau stop rule: stop once the summed cumulative-coverage
  /// delta across suites has been below `plateau_min_gain` for
  /// `plateau_rounds` consecutive rounds. 0 disables the rule.
  int plateau_rounds = 0;
  size_t plateau_min_gain = 1;

  /// Autosave: when > 0, RunRound persists the session into
  /// `autosave_dir` every `autosave_every` rounds, so the orchestrator
  /// loop is crash-resumable without any caller involvement.
  int autosave_every = 0;
  std::string autosave_dir;

  /// Differential oracle: when set, every round ends with a DiffRunner
  /// pass comparing the session's kernel (orchestrator.model_factory,
  /// default strict) against this subject personality. The pass
  /// runs over the round's resulting corpus PLUS `diff_probe_budget`
  /// freshly generated probe programs — the corpus alone is blind to
  /// kernel-level error paths (coverage is only recorded inside driver
  /// handlers, so EBADF/ENOENT-style programs never survive
  /// distillation), and error paths are exactly where personalities
  /// disagree. Probes are seeded from the round seed, so a retried or
  /// resumed round regenerates the identical report. The
  /// unique-divergence count lands in the round's trend record
  /// (RoundReport::divergences) and the full report in
  /// SuiteState::last_diff. Null disables the pass.
  vkernel::ModelFactory diff_subject;
  /// DiffRunner worker threads (the report is byte-identical for any
  /// value).
  int diff_workers = 1;
  /// Probe programs generated per differential pass (0 = corpus only).
  int diff_probe_budget = 256;

  /// Per-round orchestrator parameters. `orchestrator.campaign.seed` and
  /// `.seed_corpus` are owned by the session's scheduler and overwritten
  /// every round.
  OrchestratorOptions orchestrator;
  DistillOptions distill;

  SessionOptions& WithSeed(uint64_t v) { seed = v; return *this; }
  SessionOptions& WithRounds(int v) { rounds = v; return *this; }
  SessionOptions& WithSchedule(SeedSchedule v) { schedule = v; return *this; }
  SessionOptions& WithSeedStride(uint64_t v) { seed_stride = v; return *this; }
  SessionOptions& WithCarryCorpus(bool v) { carry_corpus = v; return *this; }
  SessionOptions& WithDistill(bool v) { distill_between_rounds = v; return *this; }
  SessionOptions& WithPlateau(int rounds_stale, size_t min_gain = 1) {
    plateau_rounds = rounds_stale;
    plateau_min_gain = min_gain;
    return *this;
  }
  SessionOptions& WithOrchestrator(OrchestratorOptions v) {
    orchestrator = std::move(v);
    return *this;
  }
  SessionOptions& WithDistillOptions(DistillOptions v) {
    distill = v;
    return *this;
  }
  SessionOptions& WithAutosave(std::string dir, int every = 1) {
    autosave_dir = std::move(dir);
    autosave_every = every;
    return *this;
  }
  /// No-op: KGPB is the only snapshot codec. Kept because pipebench
  /// still calls it.
  SessionOptions& WithSnapshotCodec(SnapshotCodec) { return *this; }
  /// Selects the kernel personality every stage (orchestrator workers,
  /// distiller replays, diff baseline) builds its models from.
  SessionOptions& WithModelFactory(vkernel::ModelFactory factory) {
    orchestrator.model_factory = factory;
    distill.model_factory = std::move(factory);
    return *this;
  }
  SessionOptions& WithDiffSubject(vkernel::ModelFactory factory,
                                  int workers = 1) {
    diff_subject = std::move(factory);
    diff_workers = workers;
    return *this;
  }
  SessionOptions& WithWorkers(int v) { orchestrator.num_workers = v; return *this; }
  SessionOptions& WithProgramBudget(int v) {
    orchestrator.campaign.program_budget = v;
    return *this;
  }
};

/// One registered suite's live state. Cumulative across rounds (and
/// across Save/Resume); `corpus` is the current seed corpus — the last
/// round's distilled set with distillation on, its raw merged corpus
/// otherwise.
struct SuiteState {
  std::string name;
  vkernel::Coverage coverage;          ///< Union across all rounds.
  std::map<std::string, int> crashes;  ///< Title -> occurrences, summed.
  /// One minimized reproducer per title (newest round wins; titles are
  /// deterministic, so collisions are identical programs anyway).
  std::map<std::string, Prog> crash_reproducers;
  std::vector<Prog> corpus;
  size_t programs_executed = 0;
  double wall_seconds = 0;
  std::vector<RoundReport> rounds;  ///< Trend records, oldest first.
  /// Latest round's differential report (empty with the oracle off).
  /// In-memory observability like RoundReport::epochs — not persisted;
  /// a resumed session regenerates it on its next round.
  DiffReport last_diff;
};

/// A persistent fuzzing-campaign service over one or more spec suites.
/// Not thread-safe itself (drive it from one thread); each round's
/// parallelism lives inside the orchestrator it owns.
class Session {
 public:
  Session(SessionOptions options, Orchestrator::BootFn boot);

  /// Registers a suite the session does not own (`lib` must outlive the
  /// session and be finalized). Suites run each round in registration
  /// order. Fails on empty/duplicate names, a library with no syscalls,
  /// or registration after the schedule has started.
  util::Status RegisterSuite(const std::string& name, const SpecLibrary* lib);

  /// Owning overload: the session keeps the library alive.
  util::Status RegisterSuite(const std::string& name, SpecLibrary lib);

  /// Runs one round: for every suite, a sharded campaign on this round's
  /// seed (re-seeded from the suite's corpus when carrying), then a
  /// distillation pass, then the trend record. Advances the schedule.
  ///
  /// Failure-atomic: a failed round (a worker exception surfaced by the
  /// orchestrator, converted here to a Status) leaves the session state
  /// exactly as it was, so a supervisor can retry the round and — the
  /// schedule being seed-deterministic — converge on the identical
  /// result. util::InjectedCrash is NOT converted: it simulates process
  /// death, and propagates so a supervisor restarts from the snapshot.
  ///
  /// Autosave failures degrade instead of killing the round loop: the
  /// error is recorded (last_save_error / save_failures), the directory
  /// keeps the last committed save, and the next autosave writes the
  /// whole session again. Fuzzing state is never lost to a full disk —
  /// only its durability lags.
  util::Status RunRound();

  /// Runs `options.rounds` rounds (or until the plateau rule fires).
  util::Status Run();

  /// Persists the session under `dir` (created if missing) as one file,
  /// `dir/session.manifest`: the manifest section, then every suite's
  /// sections, written by one util::AtomicWriteFile. Its rename is the
  /// only commit point, so a crash at any instant leaves the directory
  /// resumable at the last committed save. Save -> Resume -> Save
  /// round-trips bit-identically.
  util::Status Save(const std::string& dir);

  /// Restores a Save()d session from `dir/session.manifest`. Any damage
  /// to the file — truncation, a flipped bit, a trailing byte, another
  /// version — is a Status error, never a crash or silent data loss, and
  /// Resume writes nothing, whether it succeeds or fails. Call on a
  /// fresh session after registering the same suites under the same
  /// names: the manifest's seed/schedule and every suite's spec
  /// fingerprint must match, or the resume is rejected with a Status
  /// describing the mismatch.
  util::Status Resume(const std::string& dir);

  /// Distills an externally merged corpus against a registered suite
  /// using the session's distiller wiring (does not touch suite state).
  util::Status DistillInto(const std::string& name,
                           const std::vector<Prog>& merged,
                           DistillResult* out) const;

  /// The seed round `round` runs on, per the configured schedule.
  uint64_t RoundSeed(int round) const;

  int rounds_completed() const { return rounds_completed_; }
  /// True once the plateau rule (if enabled) has fired.
  bool Plateaued() const {
    return options_.plateau_rounds > 0 &&
           stale_rounds_ >= options_.plateau_rounds;
  }

  const SessionOptions& options() const { return options_; }

  /// Save-degradation telemetry for supervisors. `save_failures` counts
  /// consecutive failed persistence attempts (reset by a success);
  /// `pending_rounds` counts the rounds completed since the last
  /// successful Save or Resume — how far durability lags the live state.
  int save_failures() const { return save_failures_; }
  const std::string& last_save_error() const { return last_save_error_; }
  int pending_rounds() const { return rounds_completed_ - durable_rounds_; }

  std::vector<std::string> SuiteNames() const;
  const SuiteState* Find(const std::string& name) const;
  SuiteState* Find(const std::string& name);
  size_t suite_count() const { return suites_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const SpecLibrary> lib;  // Aliased no-op for non-owning.
    /// SuiteFingerprint(*lib), computed once at registration: printing
    /// and hashing every declaration costs milliseconds, and every Save
    /// and Resume needs it.
    uint64_t fingerprint = 0;
    SuiteState state;
  };

  util::Status Register(const std::string& name,
                        std::shared_ptr<const SpecLibrary> lib);
  /// Save() minus the degradation bookkeeping.
  util::Status SaveInner(const std::string& dir);

  SessionOptions options_;
  Orchestrator::BootFn boot_;
  std::vector<Entry> suites_;
  int rounds_completed_ = 0;
  int stale_rounds_ = 0;

  /// Rounds the last successful Save or Resume covers.
  int durable_rounds_ = 0;
  int save_failures_ = 0;
  std::string last_save_error_;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_SESSION_H_
