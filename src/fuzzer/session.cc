#include "fuzzer/session.h"

#include <filesystem>
#include <utility>

#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kernelgpt::fuzzer {
namespace {

const char*
ScheduleName(SeedSchedule schedule)
{
  return schedule == SeedSchedule::kHashChain ? "hash-chain" : "arithmetic";
}

}  // namespace

Session::Session(SessionOptions options, Orchestrator::BootFn boot)
    : options_(std::move(options)), boot_(std::move(boot))
{
  if (options_.orchestrator.num_workers < 1) {
    options_.orchestrator.num_workers = 1;
  }
}

util::Status
Session::Register(const std::string& name,
                  std::shared_ptr<const SpecLibrary> lib)
{
  if (name.empty()) {
    return util::Status::Error("session: suite name must not be empty");
  }
  if (rounds_completed_ > 0) {
    return util::Status::Error(util::Format(
        "session: cannot register suite '%s' after round %d has run "
        "(register every suite before Run/Resume)",
        name.c_str(), rounds_completed_));
  }
  for (const Entry& e : suites_) {
    if (e.state.name == name) {
      return util::Status::Error(
          util::Format("session: suite '%s' already registered", name.c_str()));
    }
  }
  if (!lib) {
    return util::Status::Error(
        util::Format("session: suite '%s' has no spec library", name.c_str()));
  }
  if (lib->syscalls().empty()) {
    // The old free functions fell through to an empty result here; a
    // service must refuse the misconfiguration instead.
    return util::Status::Error(util::Format(
        "session: suite '%s' has no syscalls (empty or unfinalized library)",
        name.c_str()));
  }
  Entry entry;
  entry.lib = std::move(lib);
  entry.fingerprint = SuiteFingerprint(*entry.lib);
  entry.state.name = name;
  suites_.push_back(std::move(entry));
  return util::Status::Ok();
}

util::Status
Session::RegisterSuite(const std::string& name, const SpecLibrary* lib)
{
  // Aliasing shared_ptr with an empty control block: non-owning view.
  return Register(name,
                  std::shared_ptr<const SpecLibrary>(
                      std::shared_ptr<const SpecLibrary>(), lib));
}

util::Status
Session::RegisterSuite(const std::string& name, SpecLibrary lib)
{
  return Register(name,
                  std::make_shared<const SpecLibrary>(std::move(lib)));
}

uint64_t
Session::RoundSeed(int round) const
{
  const uint64_t r = static_cast<uint64_t>(round);
  switch (options_.schedule) {
    case SeedSchedule::kHashChain:
      // Round 0 keeps the master seed so a 1-round hash-chain session is
      // bit-identical to a plain sharded campaign on that seed.
      return round == 0 ? options_.seed : util::HashCombine(options_.seed, r);
    case SeedSchedule::kArithmetic:
      return options_.seed + r * options_.seed_stride;
  }
  return options_.seed;
}

util::Status
Session::RunRound()
{
  if (suites_.empty()) {
    return util::Status::Error("session: no suites registered");
  }
  const int round = rounds_completed_;
  const uint64_t seed = RoundSeed(round);
  size_t total_delta = 0;

  // Phase 1 — run every suite's campaign (and distillation) into staging,
  // touching no session state. The seed corpus is copied, not moved, so a
  // failure anywhere in the phase leaves the session exactly as it was
  // and a supervisor can retry the round: the rerun consumes the same
  // seed and the same corpus and reproduces the same result bit for bit.
  // A worker exception surfaced by the orchestrator becomes a Status
  // here; util::InjectedCrash deliberately does not — it simulates
  // process death, and the only correct response is a restart from the
  // durable snapshot, which "handling" it in place would mask.
  struct StagedSuite {
    OrchestratorResult campaign;
    DistillResult distilled;
    DiffReport diff;
  };
  std::vector<StagedSuite> staged(suites_.size());
  for (size_t i = 0; i < suites_.size(); ++i) {
    Entry& e = suites_[i];
    OrchestratorOptions orchestrator = options_.orchestrator;
    orchestrator.campaign.seed = seed;
    if (options_.carry_corpus) {
      orchestrator.campaign.seed_corpus = e.state.corpus;
    }
    try {
      staged[i].campaign = RunShardedCampaign(*e.lib, boot_, orchestrator);
      if (options_.distill_between_rounds) {
        Distiller distiller(e.lib.get(), boot_, options_.distill);
        staged[i].distilled = distiller.Distill(staged[i].campaign.corpus);
      }
      if (options_.diff_subject) {
        // The differential pass runs over the round's resulting corpus
        // plus a batch of freshly generated probes. Both inputs are
        // deterministic functions of the round seed, so a retried or
        // resumed round regenerates the identical report. The probes
        // matter: coverage is only recorded inside driver handlers, so
        // programs that die on kernel-level error paths (stale fds,
        // unknown paths) never survive into the corpus — and those are
        // exactly the calls where personalities disagree.
        std::vector<Prog> progs = options_.distill_between_rounds
                                      ? staged[i].distilled.corpus
                                      : staged[i].campaign.corpus;
        util::Rng probe_rng(util::HashCombine(seed, 0xD1FFu));
        Generator probe_generator(e.lib.get(), &probe_rng);
        Mutator probe_mutator(e.lib.get(), &probe_generator, &probe_rng);
        for (int p = 0; p < options_.diff_probe_budget; ++p) {
          Prog prog = probe_generator.Generate(6);
          // Mutation (notably RemoveCall orphaning a resource producer)
          // is what manufactures the stale-fd and dangling-ref programs
          // the personalities disagree on; pristine generations resolve
          // every resource ref and rarely leave the happy path.
          probe_mutator.Mutate(&prog);
          if (!prog.empty()) progs.push_back(std::move(prog));
        }
        DiffOptions diff;
        diff.baseline = options_.orchestrator.model_factory;
        diff.subject = options_.diff_subject;
        diff.boot = boot_;
        diff.num_workers = options_.diff_workers;
        DiffRunner runner(e.lib.get(), diff);
        staged[i].diff = runner.Run(progs);
      }
    } catch (const util::InjectedCrash&) {
      throw;
    } catch (const std::exception& ex) {
      return util::Status::Error(
          util::Format("session: round %d suite '%s' failed: %s", round,
                       e.state.name.c_str(), ex.what()));
    }
  }

  // Phase 2 — commit: merge the staged results into suite state. Nothing
  // below can fail, so a RunRound that returns an error has merged
  // nothing and a retried round can never double-count.
  for (size_t i = 0; i < suites_.size(); ++i) {
    Entry& e = suites_[i];
    OrchestratorResult& campaign = staged[i].campaign;
    DistillResult& distilled = staged[i].distilled;

    RoundReport report;
    report.round = round;
    report.seed = seed;
    report.programs_executed = campaign.programs_executed;
    report.round_coverage = campaign.coverage.Count();
    report.round_unique_crashes = campaign.crashes.size();
    report.coverage_delta = e.state.coverage.Merge(campaign.coverage);
    report.cumulative_coverage = e.state.coverage.Count();
    for (const auto& [title, count] : campaign.crashes) {
      e.state.crashes[title] += count;
    }
    report.cumulative_unique_crashes = e.state.crashes.size();
    report.merged_corpus = campaign.corpus.size();
    report.wall_seconds = campaign.wall_seconds;
    report.epochs = std::move(campaign.epochs);
    if (options_.diff_subject) {
      report.divergences = staged[i].diff.UniqueDivergenceCount();
      e.state.last_diff = std::move(staged[i].diff);
    }

    e.state.programs_executed += campaign.programs_executed;
    e.state.wall_seconds += campaign.wall_seconds;

    if (options_.distill_between_rounds) {
      for (auto& [title, prog] : distilled.crash_reproducers) {
        e.state.crash_reproducers[title] = std::move(prog);
      }
      report.distilled_corpus = distilled.corpus.size();
      e.state.corpus = std::move(distilled.corpus);
    } else {
      report.distilled_corpus = campaign.corpus.size();
      e.state.corpus = std::move(campaign.corpus);
    }

    total_delta += report.coverage_delta;
    e.state.rounds.push_back(std::move(report));
  }

  stale_rounds_ =
      total_delta < options_.plateau_min_gain ? stale_rounds_ + 1 : 0;
  ++rounds_completed_;

  // Autosave degrades instead of killing the round loop: a failed save
  // records the error (save_failures / last_save_error, for supervisors
  // to report) and the next autosave writes the whole session again. The
  // fuzzing state itself is never at risk — only its durability lags
  // until the disk recovers.
  if (options_.autosave_every > 0 && !options_.autosave_dir.empty() &&
      rounds_completed_ % options_.autosave_every == 0) {
    (void)Save(options_.autosave_dir);
  }
  return util::Status::Ok();
}

util::Status
Session::Run()
{
  if (suites_.empty()) {
    return util::Status::Error("session: no suites registered");
  }
  if (options_.rounds <= 0 && options_.plateau_rounds <= 0) {
    return util::Status::Error(
        "session: unbounded schedule (rounds <= 0 with no plateau rule)");
  }
  int ran = 0;
  while (true) {
    if (options_.rounds > 0 && ran >= options_.rounds) break;
    if (Plateaued()) break;
    util::Status status = RunRound();
    if (!status.ok()) return status;
    ++ran;
  }
  return util::Status::Ok();
}

util::Status
Session::Save(const std::string& dir)
{
  util::Status status = SaveInner(dir);
  if (status.ok()) {
    save_failures_ = 0;
    last_save_error_.clear();
  } else {
    ++save_failures_;
    last_save_error_ = status.message();
  }
  return status;
}

util::Status
Session::SaveInner(const std::string& dir)
{
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::Error(util::Format(
        "session: cannot create '%s': %s", dir.c_str(),
        ec.message().c_str()));
  }

  SessionManifest manifest;
  manifest.seed = options_.seed;
  manifest.schedule = ScheduleName(options_.schedule);
  manifest.seed_stride = options_.seed_stride;
  manifest.carry_corpus = options_.carry_corpus;
  manifest.distill = options_.distill_between_rounds;
  manifest.rounds_completed = rounds_completed_;
  manifest.stale_rounds = stale_rounds_;
  for (const Entry& e : suites_) {
    manifest.suites.emplace_back(e.fingerprint, e.state.name);
  }
  std::string file = SerializeManifest(manifest);
  for (const Entry& e : suites_) {
    SuiteSnapshot snapshot;
    snapshot.name = e.state.name;
    snapshot.fingerprint = e.fingerprint;
    snapshot.programs_executed = e.state.programs_executed;
    snapshot.wall_seconds = e.state.wall_seconds;
    snapshot.coverage = e.state.coverage.SortedBlocks();
    snapshot.crashes = e.state.crashes;
    snapshot.corpus = e.state.corpus;
    snapshot.crash_reproducers = e.state.crash_reproducers;
    snapshot.rounds = e.state.rounds;
    AppendSuite(snapshot, *e.lib, &file);
  }
  util::Status status =
      util::AtomicWriteFile(dir + "/session.manifest", file);
  if (!status.ok()) return status;
  durable_rounds_ = rounds_completed_;
  return util::Status::Ok();
}

util::Status
Session::Resume(const std::string& dir)
{
  if (rounds_completed_ > 0) {
    return util::Status::Error(
        "session: Resume requires a fresh session (rounds already run)");
  }
  if (suites_.empty()) {
    return util::Status::Error(
        "session: register the snapshot's suites before Resume");
  }

  std::string file;
  util::Status status =
      util::ReadFileToString(dir + "/session.manifest", &file);
  if (!status.ok()) return status;
  SessionManifest manifest;
  std::vector<SuiteSections> sections;
  status = ParseSession(file, &manifest, &sections);
  if (!status.ok()) return status;

  if (manifest.seed != options_.seed) {
    return util::Status::Error(util::Format(
        "session: snapshot was taken at seed %llx but this session is "
        "configured with seed %llx",
        static_cast<unsigned long long>(manifest.seed),
        static_cast<unsigned long long>(options_.seed)));
  }
  if (manifest.schedule != ScheduleName(options_.schedule) ||
      (options_.schedule == SeedSchedule::kArithmetic &&
       manifest.seed_stride != options_.seed_stride)) {
    return util::Status::Error(util::Format(
        "session: snapshot schedule %s/stride %llu does not match the "
        "configured %s/stride %llu",
        manifest.schedule.c_str(),
        static_cast<unsigned long long>(manifest.seed_stride),
        ScheduleName(options_.schedule),
        static_cast<unsigned long long>(options_.seed_stride)));
  }
  if (manifest.carry_corpus != options_.carry_corpus ||
      manifest.distill != options_.distill_between_rounds) {
    return util::Status::Error(
        "session: snapshot corpus lifecycle (carry/distill) does not match "
        "the configured options — the continuation would diverge from an "
        "uninterrupted run");
  }
  if (manifest.suites.size() != suites_.size()) {
    return util::Status::Error(util::Format(
        "session: snapshot has %zu suites but %zu are registered",
        manifest.suites.size(), suites_.size()));
  }
  for (size_t i = 0; i < suites_.size(); ++i) {
    if (manifest.suites[i].second != suites_[i].state.name) {
      return util::Status::Error(util::Format(
          "session: suite %zu is '%s' in the snapshot but '%s' here",
          i, manifest.suites[i].second.c_str(),
          suites_[i].state.name.c_str()));
    }
    if (manifest.suites[i].first != suites_[i].fingerprint) {
      return util::Status::Error(util::Format(
          "session: suite '%s' specs drifted since the snapshot "
          "(fingerprint %016llx vs %016llx) — its programs would not "
          "replay identically",
          suites_[i].state.name.c_str(),
          static_cast<unsigned long long>(manifest.suites[i].first),
          static_cast<unsigned long long>(suites_[i].fingerprint)));
    }
  }

  // Decode every suite off to the side before touching any live state,
  // so a damaged suite leaves the session exactly as it was (a
  // half-restored session would match neither a fresh nor a resumed run).
  std::vector<SuiteState> states(suites_.size());
  for (size_t i = 0; i < suites_.size(); ++i) {
    SuiteSnapshot snapshot;
    status = ParseSuite(sections[i], *suites_[i].lib, &snapshot);
    if (!status.ok()) {
      return util::Status::Error(util::Format(
          "session: suite '%s': %s", suites_[i].state.name.c_str(),
          status.message().c_str()));
    }
    if (snapshot.rounds.size() !=
        static_cast<size_t>(manifest.rounds_completed)) {
      return util::Status::Error(util::Format(
          "session: suite '%s' holds %zu rounds but the manifest committed "
          "%d",
          snapshot.name.c_str(), snapshot.rounds.size(),
          manifest.rounds_completed));
    }
    SuiteState& state = states[i];
    state.name = std::move(snapshot.name);
    for (uint64_t block : snapshot.coverage) state.coverage.Hit(block);
    state.crashes = std::move(snapshot.crashes);
    state.crash_reproducers = std::move(snapshot.crash_reproducers);
    state.corpus = std::move(snapshot.corpus);
    state.programs_executed = snapshot.programs_executed;
    state.wall_seconds = snapshot.wall_seconds;
    state.rounds = std::move(snapshot.rounds);
  }

  for (size_t i = 0; i < suites_.size(); ++i) {
    suites_[i].state = std::move(states[i]);
  }
  rounds_completed_ = manifest.rounds_completed;
  stale_rounds_ = manifest.stale_rounds;
  durable_rounds_ = manifest.rounds_completed;
  save_failures_ = 0;
  last_save_error_.clear();
  return util::Status::Ok();
}

util::Status
Session::DistillInto(const std::string& name, const std::vector<Prog>& merged,
                     DistillResult* out) const
{
  for (const Entry& e : suites_) {
    if (e.state.name != name) continue;
    Distiller distiller(e.lib.get(), boot_, options_.distill);
    *out = distiller.Distill(merged);
    return util::Status::Ok();
  }
  return util::Status::Error(
      util::Format("session: no suite named '%s'", name.c_str()));
}

std::vector<std::string>
Session::SuiteNames() const
{
  std::vector<std::string> names;
  names.reserve(suites_.size());
  for (const Entry& e : suites_) names.push_back(e.state.name);
  return names;
}

const SuiteState*
Session::Find(const std::string& name) const
{
  for (const Entry& e : suites_) {
    if (e.state.name == name) return &e.state;
  }
  return nullptr;
}

SuiteState*
Session::Find(const std::string& name)
{
  for (Entry& e : suites_) {
    if (e.state.name == name) return &e.state;
  }
  return nullptr;
}

}  // namespace kernelgpt::fuzzer
