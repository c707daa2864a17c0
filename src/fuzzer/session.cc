#include "fuzzer/session.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <filesystem>
#include <unordered_map>
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

std::string
SuiteFileName(size_t index)
{
  // Indexed, not name-derived: suite names are free-form display strings
  // ("Syzkaller + KernelGPT") and the registration order is already the
  // deterministic identity the manifest records.
  return util::Format("suite_%zu.snap", index);
}

std::string
JournalFileName(size_t index)
{
  return util::Format("suite_%zu.journal", index);
}

/// True for "suite_<digits>.snap" / "suite_<digits>.journal"; yields the
/// index so Save can remove files orphaned by a smaller suite roster.
bool
ParseSuiteFileIndex(const std::string& name, size_t* index)
{
  if (!util::StartsWith(name, "suite_")) return false;
  const size_t dot = name.find('.', 6);
  if (dot == std::string::npos || dot == 6) return false;
  const std::string ext = name.substr(dot);
  if (ext != ".snap" && ext != ".journal") return false;
  const std::string digits = name.substr(6, dot - 6);
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *index = static_cast<size_t>(std::strtoull(digits.c_str(), nullptr, 10));
  return true;
}

/// Removes suite files beyond the current roster (a previous save with
/// more suites would otherwise leave orphans a later Resume could
/// mis-bind) and stray .tmp leftovers from crashed atomic writers.
void
PruneStaleFiles(const std::string& dir, size_t suite_count)
{
  std::error_code ec;
  std::vector<std::filesystem::path> doomed;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    size_t index = 0;
    if (util::EndsWith(name, ".tmp") ||
        (ParseSuiteFileIndex(name, &index) && index >= suite_count)) {
      doomed.push_back(it->path());
    }
  }
  for (const std::filesystem::path& path : doomed) {
    std::filesystem::remove(path, ec);
  }
}

/// Replays one journal delta onto a suite's live state. The recorded
/// cumulative counters double as integrity checks: a record that merged
/// into a state it was not written against is reported, never applied
/// silently wrong.
util::Status
ApplyDeltaToState(const SuiteDelta& delta, SuiteState* state)
{
  if (delta.report.round != static_cast<int>(state->rounds.size())) {
    return util::Status::Error(util::Format(
        "journal replays round %d onto %zu completed rounds",
        delta.report.round, state->rounds.size()));
  }
  for (uint64_t block : delta.new_coverage) state->coverage.Hit(block);
  if (state->coverage.Count() != delta.report.cumulative_coverage) {
    return util::Status::Error(util::Format(
        "coverage diverged replaying round %d (%zu blocks vs %zu recorded)",
        delta.report.round, state->coverage.Count(),
        delta.report.cumulative_coverage));
  }
  for (const auto& [title, inc] : delta.crash_increments) {
    // The decoders bound base counts and increments to [0, INT_MAX];
    // only their sum can overflow.
    int& count = state->crashes[title];
    if (inc > INT_MAX - count) {
      return util::Status::Error(util::Format(
          "crash count of '%s' overflows replaying round %d (%d + %d)",
          title.c_str(), delta.report.round, count, inc));
    }
    count += inc;
  }
  if (state->crashes.size() != delta.report.cumulative_unique_crashes) {
    return util::Status::Error(util::Format(
        "crash titles diverged replaying round %d (%zu vs %zu recorded)",
        delta.report.round, state->crashes.size(),
        delta.report.cumulative_unique_crashes));
  }
  for (const auto& [title, prog] : delta.new_reproducers) {
    state->crash_reproducers[title] = prog;
  }
  if (!delta.corpus_unchanged) {
    std::vector<Prog> next;
    next.reserve(delta.corpus.size());
    for (const SuiteDelta::CorpusEntry& entry : delta.corpus) {
      if (entry.kept_index >= 0) {
        if (static_cast<size_t>(entry.kept_index) >= state->corpus.size()) {
          return util::Status::Error(util::Format(
              "round %d keeps corpus index %d but the previous corpus has "
              "%zu programs",
              delta.report.round, entry.kept_index, state->corpus.size()));
        }
        next.push_back(state->corpus[entry.kept_index]);
      } else {
        next.push_back(entry.prog);
      }
    }
    state->corpus = std::move(next);
  }
  state->programs_executed += delta.report.programs_executed;
  state->wall_seconds += delta.report.wall_seconds;
  state->rounds.push_back(delta.report);
  return util::Status::Ok();
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
  // Deltas are only worth capturing once the session is bound to a
  // snapshot directory — before the first Save there is no journal for
  // them to land in, and SaveFull never needs them.
  const bool capture = !bound_dir_.empty();

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

    std::vector<uint64_t> prev_hashes;
    if (capture) {
      prev_hashes.reserve(e.state.corpus.size());
      for (const Prog& p : e.state.corpus) prev_hashes.push_back(HashProg(p));
    }

    SuiteDelta delta;
    if (capture) {
      for (uint64_t block : campaign.coverage.SortedBlocks()) {
        if (!e.state.coverage.Contains(block)) {
          delta.new_coverage.push_back(block);
        }
      }
      delta.crash_increments = campaign.crashes;
    }

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
        if (capture) {
          auto it = e.state.crash_reproducers.find(title);
          if (it == e.state.crash_reproducers.end() ||
              HashProg(it->second) != HashProg(prog)) {
            delta.new_reproducers[title] = prog;
          }
        }
        e.state.crash_reproducers[title] = std::move(prog);
      }
      report.distilled_corpus = distilled.corpus.size();
      e.state.corpus = std::move(distilled.corpus);
    } else {
      report.distilled_corpus = campaign.corpus.size();
      e.state.corpus = std::move(campaign.corpus);
    }

    if (capture) {
      // Encode the corpus as a diff against the previous round: either
      // "unchanged" (the steady state once distillation converges), or a
      // list of kept-index references plus the genuinely new programs.
      std::vector<uint64_t> hashes;
      hashes.reserve(e.state.corpus.size());
      for (const Prog& p : e.state.corpus) hashes.push_back(HashProg(p));
      delta.corpus_unchanged = hashes == prev_hashes;
      if (!delta.corpus_unchanged) {
        std::unordered_map<uint64_t, int> prev_index;
        for (size_t k = 0; k < prev_hashes.size(); ++k) {
          prev_index.emplace(prev_hashes[k], static_cast<int>(k));
        }
        delta.corpus.resize(e.state.corpus.size());
        for (size_t k = 0; k < e.state.corpus.size(); ++k) {
          auto it = prev_index.find(hashes[k]);
          if (it != prev_index.end()) {
            delta.corpus[k].kept_index = it->second;
          } else {
            delta.corpus[k].prog = e.state.corpus[k];
          }
        }
      }
      delta.report = report;
      delta.report.epochs.clear();  // Never persisted (RoundReport::epochs).
      e.pending.push_back(std::move(delta));
    }

    total_delta += report.coverage_delta;
    e.state.rounds.push_back(std::move(report));
  }

  stale_rounds_ =
      total_delta < options_.plateau_min_gain ? stale_rounds_ + 1 : 0;
  ++rounds_completed_;

  // Autosave and backlog flush degrade instead of killing the round
  // loop: a failed save leaves the round's deltas queued in the pending
  // backlog, records the error (save_failures / last_save_error, for
  // supervisors to report), and retries on the next save trigger. The
  // fuzzing state itself is never at risk — only its durability lags
  // until the disk recovers.
  if (options_.autosave_every > 0 && !options_.autosave_dir.empty() &&
      rounds_completed_ % options_.autosave_every == 0) {
    (void)Save(options_.autosave_dir);
  }
  // Bound-session backlog flush: rather than drop pending deltas (which
  // would force the next Save to rewrite a committed base non-atomically
  // across files), persist them once the backlog hits the horizon. This
  // keeps pending memory bounded AND guarantees a bound directory only
  // ever advances through the crash-safe incremental path.
  const int flush_horizon = std::max(1, options_.journal_compact_every) * 4;
  if (!bound_dir_.empty() &&
      rounds_completed_ - durable_rounds_ >= flush_horizon) {
    (void)Save(bound_dir_);
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

SessionManifest
Session::MakeManifest() const
{
  SessionManifest manifest;
  manifest.seed = options_.seed;
  manifest.schedule = ScheduleName(options_.schedule);
  manifest.seed_stride = options_.seed_stride;
  manifest.carry_corpus = options_.carry_corpus;
  manifest.distill = options_.distill_between_rounds;
  manifest.rounds_completed = rounds_completed_;
  manifest.stale_rounds = stale_rounds_;
  for (const Entry& e : suites_) {
    manifest.suites.emplace_back(SuiteFingerprint(*e.lib), e.state.name);
  }
  return manifest;
}

util::Status
Session::WriteManifestFile(const std::string& dir) const
{
  return WriteStringToFile(dir + "/session.manifest",
                           SerializeManifest(MakeManifest()));
}

bool
Session::HasPendingRange() const
{
  for (const Entry& e : suites_) {
    int need = durable_rounds_;
    for (const SuiteDelta& d : e.pending) {
      if (d.report.round < need) continue;
      if (d.report.round != need) return false;
      ++need;
    }
    if (need < rounds_completed_) return false;
  }
  return true;
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

  // Incremental path: same directory as the last save/resume, and every
  // round since then is still held as a pending delta. Anything else
  // (first save, new directory, pruned deltas — or a journal left in an
  // unknown state by an earlier failure) rewrites the full base.
  if (dir != bound_dir_ || force_full_save_ || !HasPendingRange()) {
    return SaveFull(dir);
  }
  if (durable_rounds_ == rounds_completed_) return util::Status::Ok();

  // Append the new rounds' records, fsynced, BEFORE the manifest names
  // them: the manifest rename is the commit point, so a crash in between
  // merely leaves an uncommitted tail Resume truncates away (and a
  // deterministic re-run re-appends byte-identical records, which replay
  // skips as already folded in).
  for (size_t i = 0; i < suites_.size(); ++i) {
    Entry& e = suites_[i];
    std::string batch;
    for (const SuiteDelta& d : e.pending) {
      if (d.report.round < durable_rounds_) continue;
      batch += FrameJournalRecord(SerializeDelta(d, *e.lib));
    }
    if (batch.empty()) continue;
    const std::string journal_path = dir + "/" + JournalFileName(i);
    std::error_code size_ec;
    const uintmax_t intact_size =
        std::filesystem::file_size(journal_path, size_ec);
    util::Status status = util::AppendFileDurable(journal_path, batch);
    if (!status.ok()) {
      // Heal in place: a failed append may have landed partial bytes,
      // and the journal scanner stops at a torn record — leaving it
      // would strand every later append behind the tear. Truncate back
      // to the pre-append size; if even that fails (or the size was
      // unknowable), the next save must rebuild a fresh base instead of
      // appending after damage it cannot see.
      std::error_code trunc_ec;
      if (!size_ec) {
        std::filesystem::resize_file(journal_path, intact_size, trunc_ec);
      }
      if (size_ec || trunc_ec) force_full_save_ = true;
      return status;
    }
  }
  util::Status status = WriteManifestFile(dir);
  if (!status.ok()) return status;
  durable_rounds_ = rounds_completed_;
  for (Entry& e : suites_) {
    e.pending.erase(
        std::remove_if(e.pending.begin(), e.pending.end(),
                       [this](const SuiteDelta& d) {
                         return d.report.round < durable_rounds_;
                       }),
        e.pending.end());
  }

  if (rounds_completed_ - base_rounds_ >=
      std::max(1, options_.journal_compact_every)) {
    // Compaction: fold the journal into a fresh base. The directory is
    // already resumable at this round, so a crash anywhere inside
    // SaveFull loses nothing — replay just skips records the new base
    // already folds in.
    return SaveFull(dir);
  }
  return util::Status::Ok();
}

util::Status
Session::SaveFull(const std::string& dir)
{
  util::Status status = util::Status::Ok();
  for (size_t i = 0; i < suites_.size(); ++i) {
    const Entry& e = suites_[i];
    SuiteSnapshot snapshot;
    snapshot.name = e.state.name;
    snapshot.fingerprint = SuiteFingerprint(*e.lib);
    snapshot.programs_executed = e.state.programs_executed;
    snapshot.wall_seconds = e.state.wall_seconds;
    snapshot.coverage = e.state.coverage.SortedBlocks();
    snapshot.crashes = e.state.crashes;
    snapshot.corpus = e.state.corpus;
    snapshot.crash_reproducers = e.state.crash_reproducers;
    snapshot.rounds = e.state.rounds;
    status = WriteStringToFile(dir + "/" + SuiteFileName(i),
                               SerializeSuite(snapshot, *e.lib));
    if (!status.ok()) return status;

    JournalHeader header;
    header.fingerprint = snapshot.fingerprint;
    header.suite_name = e.state.name;
    header.base_rounds = rounds_completed_;
    status = WriteStringToFile(dir + "/" + JournalFileName(i),
                               SerializeJournalHeader(header));
    if (!status.ok()) return status;
  }
  PruneStaleFiles(dir, suites_.size());
  // Manifest last: it is the commit point, and everything it names is
  // already durable when it lands.
  status = WriteManifestFile(dir);
  if (!status.ok()) return status;

  bound_dir_ = dir;
  base_rounds_ = rounds_completed_;
  durable_rounds_ = rounds_completed_;
  force_full_save_ = false;
  for (Entry& e : suites_) e.pending.clear();
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

  std::string text;
  util::Status status = ReadFileToString(dir + "/session.manifest", &text);
  if (!status.ok()) return status;
  SessionManifest manifest;
  status = ParseManifest(text, &manifest);
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
    const uint64_t fingerprint = SuiteFingerprint(*suites_[i].lib);
    if (manifest.suites[i].first != fingerprint) {
      return util::Status::Error(util::Format(
          "session: suite '%s' specs drifted since the snapshot "
          "(fingerprint %016llx vs %016llx) — its programs would not "
          "replay identically",
          suites_[i].state.name.c_str(),
          static_cast<unsigned long long>(manifest.suites[i].first),
          static_cast<unsigned long long>(fingerprint)));
    }
  }

  // Parse and validate every suite file — base snapshot plus journal
  // replay — before touching any live state, so a corrupt or missing
  // file leaves the session exactly as it was (a half-restored session
  // would match neither a fresh nor a resumed run).
  struct LoadedSuite {
    SuiteSnapshot base;
    int base_rounds = 0;             ///< Rounds the base folds in.
    std::vector<SuiteDelta> deltas;  ///< To replay, in round order.
    std::string journal_path;
    bool rewrite_journal = false;  ///< Missing/corrupt but not needed.
    size_t truncate_to = 0;        ///< > 0: drop the uncommitted tail.
  };
  std::vector<LoadedSuite> loaded(suites_.size());
  for (size_t i = 0; i < suites_.size(); ++i) {
    LoadedSuite& l = loaded[i];
    status = ReadFileToString(dir + "/" + SuiteFileName(i), &text);
    if (!status.ok()) return status;
    status = ParseSuite(text, *suites_[i].lib, &l.base);
    if (!status.ok()) return status;
    if (l.base.name != suites_[i].state.name ||
        l.base.fingerprint != manifest.suites[i].first) {
      return util::Status::Error(util::Format(
          "session: %s does not belong to this snapshot (suite '%s')",
          SuiteFileName(i).c_str(), suites_[i].state.name.c_str()));
    }
    const int base_rounds = l.base_rounds =
        static_cast<int>(l.base.rounds.size());
    if (base_rounds > manifest.rounds_completed) {
      return util::Status::Error(util::Format(
          "session: %s folds in %d rounds but the manifest only committed "
          "%d — the directory mixes snapshot generations",
          SuiteFileName(i).c_str(), base_rounds, manifest.rounds_completed));
    }

    // Scan the journal. Header-level damage (missing file, wrong suite,
    // version mismatch) makes the whole journal unusable; record-level
    // damage ends the scan at the last intact record. Either way, what
    // matters is whether the usable records reach the committed round.
    l.journal_path = dir + "/" + JournalFileName(i);
    std::string jtext;
    JournalScan scan;
    bool have_scan = false;
    std::string journal_error;
    util::Status jstatus = ReadFileToString(l.journal_path, &jtext);
    if (jstatus.ok()) {
      util::Status sstatus = ScanJournal(jtext, &scan);
      if (!sstatus.ok()) {
        journal_error = sstatus.message();
      } else if (scan.header.fingerprint != manifest.suites[i].first ||
                 scan.header.suite_name != suites_[i].state.name) {
        journal_error = "journal belongs to a different suite";
      } else if (scan.header.base_rounds > base_rounds) {
        journal_error = util::Format(
            "journal expects a base of %d rounds but %s has %d",
            scan.header.base_rounds, SuiteFileName(i).c_str(), base_rounds);
      } else {
        have_scan = true;
      }
    } else {
      journal_error = jstatus.message();
    }

    // Replay plan: skip records the base already folds in (they survive
    // a crash mid-compaction), apply in strict round order up to the
    // committed round, and treat everything past it — torn or intact —
    // as an uncommitted tail to truncate away.
    int current = base_rounds;
    size_t keep_end = scan.header_end;
    std::string record_error = have_scan ? scan.tail_error : journal_error;
    if (have_scan) {
      for (auto& [payload, end_offset] : scan.records) {
        SuiteDelta delta;
        util::Status dstatus = ParseDelta(payload, *suites_[i].lib, &delta);
        if (!dstatus.ok()) {
          record_error = dstatus.message();
          break;
        }
        if (delta.report.round < current) {
          keep_end = end_offset;
          continue;
        }
        if (delta.report.round > current) {
          record_error = util::Format(
              "journal gap: expected round %d, found round %d", current,
              delta.report.round);
          break;
        }
        if (current >= manifest.rounds_completed) break;
        l.deltas.push_back(std::move(delta));
        keep_end = end_offset;
        ++current;
      }
    }
    if (current < manifest.rounds_completed) {
      // The damage reaches into committed state: refuse rather than
      // resume a session that would silently diverge.
      return util::Status::Error(util::Format(
          "session: suite '%s' is committed through round %d but its base "
          "folds in %d rounds and the journal only replays to round %d "
          "(%s)",
          suites_[i].state.name.c_str(), manifest.rounds_completed,
          base_rounds, current,
          record_error.empty() ? "journal ends early"
                               : record_error.c_str()));
    }
    if (!have_scan) {
      // Unusable journal, but the base alone covers the commit (e.g. a
      // pre-journal snapshot, or a crash mid-compaction after the new
      // base landed): start a fresh journal over this base.
      l.rewrite_journal = true;
    } else if (keep_end < jtext.size()) {
      l.truncate_to = keep_end;
    }
  }

  // Heal the on-disk journals before mutating session state — these are
  // pure disk operations, so a failure still leaves the session object
  // untouched. Truncating the uncommitted tail is what makes future
  // appends land after the last committed record instead of after
  // garbage.
  for (size_t i = 0; i < suites_.size(); ++i) {
    LoadedSuite& l = loaded[i];
    if (l.rewrite_journal) {
      JournalHeader header;
      header.fingerprint = manifest.suites[i].first;
      header.suite_name = suites_[i].state.name;
      header.base_rounds = l.base_rounds;
      status = WriteStringToFile(l.journal_path,
                                 SerializeJournalHeader(header));
      if (!status.ok()) return status;
    } else if (l.truncate_to > 0) {
      std::error_code ec;
      std::filesystem::resize_file(l.journal_path, l.truncate_to, ec);
      if (ec) {
        return util::Status::Error(util::Format(
            "session: cannot truncate torn tail of '%s': %s",
            l.journal_path.c_str(), ec.message().c_str()));
      }
    }
  }

  // Build every suite's state off to the side, then install: journal
  // replay can still fail (e.g. a kept-index out of range), and the
  // no-partial-restore guarantee must hold through it.
  std::vector<SuiteState> states(suites_.size());
  for (size_t i = 0; i < suites_.size(); ++i) {
    SuiteSnapshot& snapshot = loaded[i].base;
    SuiteState& state = states[i];
    state.name = suites_[i].state.name;
    for (uint64_t block : snapshot.coverage) state.coverage.Hit(block);
    state.crashes = std::move(snapshot.crashes);
    state.crash_reproducers = std::move(snapshot.crash_reproducers);
    state.corpus = std::move(snapshot.corpus);
    state.programs_executed = snapshot.programs_executed;
    state.wall_seconds = snapshot.wall_seconds;
    state.rounds = std::move(snapshot.rounds);
    for (const SuiteDelta& delta : loaded[i].deltas) {
      status = ApplyDeltaToState(delta, &state);
      if (!status.ok()) {
        return util::Status::Error(util::Format(
            "session: suite '%s': %s", state.name.c_str(),
            status.message().c_str()));
      }
    }
    if (static_cast<int>(state.rounds.size()) != manifest.rounds_completed) {
      return util::Status::Error(util::Format(
          "session: suite '%s' replayed to %zu rounds but the manifest "
          "committed %d",
          state.name.c_str(), state.rounds.size(),
          manifest.rounds_completed));
    }
  }

  int min_base_rounds = manifest.rounds_completed;
  for (size_t i = 0; i < suites_.size(); ++i) {
    suites_[i].state = std::move(states[i]);
    suites_[i].pending.clear();
    min_base_rounds = std::min(min_base_rounds, loaded[i].base_rounds);
  }
  rounds_completed_ = manifest.rounds_completed;
  stale_rounds_ = manifest.stale_rounds;
  bound_dir_ = dir;
  base_rounds_ = min_base_rounds;
  durable_rounds_ = manifest.rounds_completed;
  force_full_save_ = false;
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
