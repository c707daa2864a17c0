// Tests for the Session campaign-service API and its snapshot
// persistence layer:
//  - program/suite serialization is a byte-for-byte serialize -> parse ->
//    serialize fixpoint for programs from every corpus spec;
//  - snapshots with a mismatched version, corrupted content, or drifted
//    suite specs are rejected with a Status (never a crash);
//  - a session interrupted by Save and continued by Resume in a fresh
//    session is bit-identical to an uninterrupted run of the same total
//    rounds;
//  - the hash-chain schedule reproduces the legacy inline campaign loop
//    exactly, and the arithmetic schedule reproduces independent
//    repetition campaigns exactly (the ExperimentContext::Fuzz contract);
//  - misconfiguration (empty/duplicate suites, unbounded schedules,
//    late registration) surfaces as Status errors, while any suite name,
//    line breaks included, saves and resumes bit-identically;
//  - the coverage-plateau stop rule ends the schedule early.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"
#include "fuzzer/session.h"
#include "util/fileio.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    consts_ = new syzlang::ConstTable(
        Corpus::Instance().BuildIndex().BuildConstTable());
  }
  static void TearDownTestSuite() {
    delete consts_;
    consts_ = nullptr;
  }

  static SpecLibrary MakeLibrary(const syzlang::SpecFile& spec) {
    SpecLibrary lib;
    lib.SetConsts(*consts_);
    lib.Add(spec);
    lib.Finalize();
    return lib;
  }

  static SpecLibrary DmLibrary() {
    return MakeLibrary(
        drivers::GroundTruthDeviceSpec(*Corpus::Instance().FindDevice("dm")));
  }

  static void Boot(vkernel::KernelModel* kernel) {
    Corpus::Instance().RegisterAll(kernel);
  }

  /// Short 2-worker per-round options shared by the determinism tests.
  static OrchestratorOptions SmallRound() {
    OrchestratorOptions options;
    options.campaign.program_budget = 6000;
    options.num_workers = 2;
    options.sync_interval = 200;
    return options;
  }

  static Session MakeSession(SessionOptions options) {
    return Session(std::move(options), Boot);
  }

  /// Fresh per-test scratch directory under the gtest temp root.
  static std::string ScratchDir(const std::string& leaf) {
    const std::string dir =
        ::testing::TempDir() + "kernelgpt_session_test/" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
  }

  static std::string MustRead(const std::string& path) {
    std::string bytes;
    const util::Status status = util::ReadFileToString(path, &bytes);
    EXPECT_TRUE(status.ok()) << status.message();
    return bytes;
  }

  /// The names of the files in `dir`, sorted.
  static std::vector<std::string> FileNames(const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  static void ExpectSameProgs(const std::vector<Prog>& a,
                              const std::vector<Prog>& b,
                              const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(HashProg(a[i]), HashProg(b[i])) << label << " program " << i;
    }
  }

  static void ExpectSameState(const SuiteState& a, const SuiteState& b,
                              const std::string& label) {
    EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks()) << label;
    EXPECT_EQ(a.crashes, b.crashes) << label;
    EXPECT_EQ(a.programs_executed, b.programs_executed) << label;
    ExpectSameProgs(a.corpus, b.corpus, label + " corpus");
    ASSERT_EQ(a.crash_reproducers.size(), b.crash_reproducers.size()) << label;
    for (const auto& [title, prog] : a.crash_reproducers) {
      auto it = b.crash_reproducers.find(title);
      ASSERT_NE(it, b.crash_reproducers.end()) << label << " " << title;
      EXPECT_EQ(HashProg(prog), HashProg(it->second)) << label << " " << title;
    }
  }

  static syzlang::ConstTable* consts_;
};

syzlang::ConstTable* SessionTest::consts_ = nullptr;

// -- Snapshot serialization --------------------------------------------------

TEST_F(SessionTest, ProgSerializationIsAFixpointForEveryCorpusSpec)
{
  // Generated AND mutated programs from every ground-truth spec in the
  // corpus must round-trip byte- and hash-identically.
  size_t specs_checked = 0;
  auto check_spec = [&](const syzlang::SpecFile& spec,
                        const std::string& label) {
    SpecLibrary lib = MakeLibrary(spec);
    if (lib.syscalls().empty()) return;
    util::Rng rng(util::StableHash(label));
    Generator generator(&lib, &rng);
    Mutator mutator(&lib, &generator, &rng);
    SuiteSnapshot suite;
    for (int i = 0; i < 32; ++i) {
      Prog prog = generator.Generate(6);
      if (prog.empty()) continue;
      suite.corpus.push_back(prog);
      mutator.Mutate(&prog);
      if (!prog.empty()) suite.corpus.push_back(std::move(prog));
    }
    if (suite.corpus.empty()) return;
    ++specs_checked;

    const std::string once = SerializeSuite(suite, lib);
    SuiteSnapshot parsed;
    util::Status status = ParseSuite(once, lib, &parsed);
    ASSERT_TRUE(status.ok()) << label << ": " << status.message();
    ExpectSameProgs(suite.corpus, parsed.corpus, label);
    EXPECT_EQ(once, SerializeSuite(parsed, lib))
        << label << ": serialize -> parse -> serialize not a fixpoint";
  };

  for (const auto& dev : Corpus::Instance().devices()) {
    check_spec(drivers::GroundTruthDeviceSpec(dev), "gt:" + dev.id);
  }
  for (const auto& sock : Corpus::Instance().sockets()) {
    check_spec(drivers::GroundTruthSocketSpec(sock), "gt:" + sock.id);
  }
  EXPECT_GT(specs_checked, 4u);  // The corpus ships several modules.
}

TEST_F(SessionTest, SuiteSnapshotIsAByteFixpointIncludingReproducersAndRounds)
{
  SpecLibrary lib = DmLibrary();
  SessionOptions options;
  options.WithSeed(5).WithRounds(2).WithOrchestrator(SmallRound());
  Session session = MakeSession(options);
  ASSERT_TRUE(session.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(session.Run().ok());
  const SuiteState& state = *session.Find("dm");
  ASSERT_FALSE(state.corpus.empty());
  ASSERT_FALSE(state.crash_reproducers.empty());  // dm crashes readily.

  SuiteSnapshot snapshot;
  snapshot.name = "dm suite with spaces";  // Names are free-form text.
  snapshot.fingerprint = SuiteFingerprint(lib);
  snapshot.programs_executed = state.programs_executed;
  snapshot.wall_seconds = state.wall_seconds;
  snapshot.coverage = state.coverage.SortedBlocks();
  snapshot.crashes = state.crashes;
  snapshot.corpus = state.corpus;
  snapshot.crash_reproducers = state.crash_reproducers;
  snapshot.rounds = state.rounds;

  const std::string once = SerializeSuite(snapshot, lib);
  SuiteSnapshot parsed;
  util::Status status = ParseSuite(once, lib, &parsed);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(parsed.name, snapshot.name);
  EXPECT_EQ(parsed.fingerprint, snapshot.fingerprint);
  EXPECT_EQ(parsed.programs_executed, snapshot.programs_executed);
  EXPECT_EQ(parsed.wall_seconds, snapshot.wall_seconds);  // Raw bits.
  EXPECT_EQ(parsed.coverage, snapshot.coverage);
  EXPECT_EQ(parsed.crashes, snapshot.crashes);
  ExpectSameProgs(parsed.corpus, snapshot.corpus, "corpus");
  ASSERT_EQ(parsed.rounds.size(), snapshot.rounds.size());
  for (size_t i = 0; i < parsed.rounds.size(); ++i) {
    EXPECT_EQ(parsed.rounds[i].seed, snapshot.rounds[i].seed);
    EXPECT_EQ(parsed.rounds[i].wall_seconds, snapshot.rounds[i].wall_seconds);
    EXPECT_EQ(parsed.rounds[i].cumulative_coverage,
              snapshot.rounds[i].cumulative_coverage);
  }
  // The dump renders every field, reproducers included, so a mismatch
  // prints as a readable diff.
  EXPECT_EQ(DumpSuite(parsed, lib), DumpSuite(snapshot, lib));
  EXPECT_EQ(once, SerializeSuite(parsed, lib))
      << "suite snapshot serialize -> parse -> serialize not a fixpoint";
}

TEST_F(SessionTest, VersionMismatchIsRejectedWithBothVersionsNamed)
{
  const std::string current = "v" + std::to_string(kSnapshotVersion);
  auto expect_mismatch = [&current](const util::Status& status,
                                    const std::string& file_version,
                                    const std::string& label) {
    EXPECT_FALSE(status.ok()) << label;
    EXPECT_NE(status.message().find("version mismatch"), std::string::npos)
        << label << ": " << status.message();
    EXPECT_NE(status.message().find(file_version), std::string::npos)
        << label << ": " << status.message();
    EXPECT_NE(status.message().find(current), std::string::npos)
        << label << ": " << status.message();
  };

  // Every file's version varint sits just past the 4-byte magic; both
  // versions encode in one byte.
  SpecLibrary lib = DmLibrary();
  SuiteSnapshot suite;
  std::string data = SerializeSuite(suite, lib);
  ASSERT_EQ(data[4], kSnapshotVersion);
  data[4] = 99;
  expect_mismatch(ParseSuite(data, lib, &suite), "v99", "suite");

  SessionManifest manifest;
  std::vector<SuiteSections> sections;
  data = SerializeManifest(manifest);
  ASSERT_EQ(data[4], kSnapshotVersion);
  data[4] = 99;
  expect_mismatch(ParseSession(data, &manifest, &sections), "v99",
                  "session file");

  // A v4 directory, whose manifest committed a per-suite journal, is
  // refused at that manifest by Resume, which leaves the file as it was.
  ASSERT_EQ(kSnapshotVersion, 5);
  const std::string dir = ScratchDir("v4");
  std::filesystem::create_directories(dir);
  data = SerializeManifest(manifest);
  data[4] = 4;
  ASSERT_TRUE(util::AtomicWriteFile(dir + "/session.manifest", data).ok());
  Session resumed = MakeSession(SessionOptions());
  ASSERT_TRUE(resumed.RegisterSuite("dm", &lib).ok());
  expect_mismatch(resumed.Resume(dir), "v4", "v4 manifest");
  EXPECT_EQ(resumed.rounds_completed(), 0);
  EXPECT_EQ(MustRead(dir + "/session.manifest"), data);

  // A v3 directory is refused at its manifest, which was still text.
  const std::string v3 =
      "kernelgpt-session v3\n"
      "seed 7\n"
      "schedule hash-chain\n"
      "seed_stride 7919\n"
      "carry_corpus 1\n"
      "distill 1\n"
      "rounds_completed 2\n"
      "stale_rounds 0\n"
      "suites 1\n"
      "suite 0 1234567890abcdef dm\n"
      "end\n";
  expect_mismatch(ParseSession(v3, &manifest, &sections), "v3",
                  "text manifest");
}

TEST_F(SessionTest, CorruptSnapshotsReturnStatusNotCrash)
{
  SpecLibrary lib = DmLibrary();

  // A real snapshot to corrupt.
  SessionOptions options;
  options.WithSeed(9).WithRounds(1).WithOrchestrator(SmallRound());
  Session session = MakeSession(options);
  ASSERT_TRUE(session.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(session.Run().ok());
  SuiteSnapshot snapshot;
  snapshot.corpus = session.Find("dm")->corpus;
  snapshot.coverage = session.Find("dm")->coverage.SortedBlocks();
  const std::string good = SerializeSuite(snapshot, lib);
  SuiteSnapshot out;

  // Not a snapshot at all.
  EXPECT_FALSE(ParseSuite("garbage\nmore garbage", lib, &out).ok());
  EXPECT_FALSE(ParseSuite("", lib, &out).ok());
  EXPECT_FALSE(ParseSuite(std::string("KGPB"), lib, &out).ok());
  // Truncation at every quarter of the file, and at every byte of the
  // final framed section (the torn-write shapes a crash can leave).
  for (size_t cut = 1; cut < 4; ++cut) {
    EXPECT_FALSE(ParseSuite(good.substr(0, good.size() * cut / 4), lib, &out)
                     .ok())
        << "cut at quarter " << cut;
  }
  for (size_t cut = good.size() - 32; cut < good.size(); ++cut) {
    EXPECT_FALSE(ParseSuite(good.substr(0, cut), lib, &out).ok())
        << "cut at byte " << cut;
  }
  // Bit corruption anywhere in a section payload trips that section's
  // CRC32 (flip a byte past the header, clear of the length varints).
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x40;
  EXPECT_FALSE(ParseSuite(flipped, lib, &out).ok());
  // Trailing garbage after the last section is damage, not slack.
  EXPECT_FALSE(ParseSuite(good + "x", lib, &out).ok());
  // A crash count outside [0, INT_MAX] (a negative one encodes above
  // INT_MAX) is damage, not a count to wrap.
  SuiteSnapshot counted;
  counted.crashes["KASAN: negative"] = -1;
  EXPECT_FALSE(ParseSuite(SerializeSuite(counted, lib), lib, &out).ok());

  // Programs resolve by name: parsing against a suite that lacks the
  // referenced syscalls is a Status naming the missing call.
  SpecLibrary hpet = MakeLibrary(drivers::GroundTruthDeviceSpec(
      *Corpus::Instance().FindDevice("hpet")));
  util::Status status = ParseSuite(good, hpet, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("absent"), std::string::npos)
      << status.message();

  SessionManifest manifest;
  std::vector<SuiteSections> sections;
  EXPECT_FALSE(ParseSession("", &manifest, &sections).ok());  // Empty input.
  // A CRC-valid round counter above INT_MAX (what a negative int
  // encodes) is damage, not a count to wrap.
  manifest.schedule = "hash-chain";
  manifest.rounds_completed = -1;
  EXPECT_FALSE(
      ParseSession(SerializeManifest(manifest), &manifest, &sections).ok());
  // A suite file is never misread as a session file.
  EXPECT_FALSE(ParseSession(good, &manifest, &sections).ok());
  // A manifest that counts a suite the file does not hold is truncated.
  manifest = SessionManifest{};
  manifest.schedule = "hash-chain";
  manifest.suites.emplace_back(0, "dm");
  EXPECT_FALSE(
      ParseSession(SerializeManifest(manifest), &manifest, &sections).ok());
}

TEST_F(SessionTest, FailedResumeLeavesTheSessionUntouched)
{
  SpecLibrary dm = DmLibrary();
  SpecLibrary hpet = MakeLibrary(drivers::GroundTruthDeviceSpec(
      *Corpus::Instance().FindDevice("hpet")));
  const std::string dir = ScratchDir("partial_resume");
  SessionOptions options;
  options.WithSeed(29).WithRounds(1).WithOrchestrator(SmallRound());

  Session saved = MakeSession(options);
  ASSERT_TRUE(saved.RegisterSuite("dm", &dm).ok());
  ASSERT_TRUE(saved.RegisterSuite("hpet", &hpet).ok());
  ASSERT_TRUE(saved.Run().ok());
  ASSERT_TRUE(saved.Save(dir).ok());

  // Rewrite the file with the SECOND suite's trend records dropped, every
  // section still checksum-valid: the first suite decodes fine, but the
  // failed resume must not leak its state into the live session.
  const std::string path = dir + "/session.manifest";
  const std::string file = MustRead(path);
  SessionManifest manifest;
  std::vector<SuiteSections> sections;
  ASSERT_TRUE(ParseSession(file, &manifest, &sections).ok());
  SuiteSnapshot first, second;
  ASSERT_TRUE(ParseSuite(sections[0], dm, &first).ok());
  ASSERT_TRUE(ParseSuite(sections[1], hpet, &second).ok());
  second.rounds.clear();
  std::string damaged = SerializeManifest(manifest);
  AppendSuite(first, dm, &damaged);
  AppendSuite(second, hpet, &damaged);
  ASSERT_TRUE(util::AtomicWriteFile(path, damaged).ok());

  Session resumed = MakeSession(options);
  ASSERT_TRUE(resumed.RegisterSuite("dm", &dm).ok());
  ASSERT_TRUE(resumed.RegisterSuite("hpet", &hpet).ok());
  util::Status status = resumed.Resume(dir);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("holds 0 rounds"), std::string::npos)
      << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 0);
  EXPECT_EQ(resumed.Find("dm")->coverage.Count(), 0u);
  EXPECT_TRUE(resumed.Find("dm")->corpus.empty());
  EXPECT_TRUE(resumed.Find("dm")->crashes.empty());
  // And the untouched session can still run a clean fresh schedule.
  ASSERT_TRUE(resumed.Run().ok());
  ExpectSameState(*resumed.Find("dm"), *saved.Find("dm"), "fresh after fail");
}

// -- Session semantics -------------------------------------------------------

TEST_F(SessionTest, HashChainSessionMatchesLegacyInlineLoop)
{
  // The pre-Session inline loop (orchestrator + distiller chained by
  // hand), kept here as the reference the redesign must not drift from.
  SpecLibrary lib = DmLibrary();
  const int rounds = 3;
  const uint64_t master_seed = 31;

  vkernel::Coverage ref_coverage;
  std::map<std::string, int> ref_crashes;
  std::vector<Prog> ref_corpus;
  size_t ref_programs = 0;
  Distiller distiller(&lib, Boot);
  for (int round = 0; round < rounds; ++round) {
    OrchestratorOptions orchestrator = SmallRound();
    orchestrator.campaign.seed =
        round == 0 ? master_seed
                   : util::HashCombine(master_seed,
                                       static_cast<uint64_t>(round));
    orchestrator.campaign.seed_corpus = std::move(ref_corpus);
    OrchestratorResult campaign = RunShardedCampaign(lib, Boot, orchestrator);
    ref_coverage.Merge(campaign.coverage);
    for (const auto& [title, count] : campaign.crashes) {
      ref_crashes[title] += count;
    }
    ref_programs += campaign.programs_executed;
    ref_corpus = distiller.Distill(campaign.corpus).corpus;
  }

  SessionOptions options;
  options.WithSeed(master_seed)
      .WithRounds(rounds)
      .WithOrchestrator(SmallRound());
  Session session = MakeSession(options);
  ASSERT_TRUE(session.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(session.Run().ok());

  const SuiteState& state = *session.Find("dm");
  EXPECT_EQ(state.coverage.blocks(), ref_coverage.blocks());
  EXPECT_EQ(state.crashes, ref_crashes);
  EXPECT_EQ(state.programs_executed, ref_programs);
  ExpectSameProgs(state.corpus, ref_corpus, "legacy loop corpus");
  ASSERT_EQ(state.rounds.size(), static_cast<size_t>(rounds));
  EXPECT_EQ(state.rounds.back().cumulative_coverage, ref_coverage.Count());
}

TEST_F(SessionTest, ArithmeticSessionMatchesIndependentRepetitions)
{
  // The ExperimentContext::Fuzz contract: rounds are independent
  // campaigns at seed + r * stride, no carry, no distillation.
  SpecLibrary lib = DmLibrary();
  const uint64_t seed_base = 1000;
  const int reps = 3;

  SessionOptions options;
  options.WithSeed(seed_base)
      .WithRounds(reps)
      .WithSchedule(SeedSchedule::kArithmetic)
      .WithSeedStride(7919)
      .WithCarryCorpus(false)
      .WithDistill(false)
      .WithOrchestrator(SmallRound());
  Session session = MakeSession(options);
  ASSERT_TRUE(session.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(session.Run().ok());
  const SuiteState& state = *session.Find("dm");

  vkernel::Coverage ref_merged;
  for (int rep = 0; rep < reps; ++rep) {
    OrchestratorOptions orchestrator = SmallRound();
    orchestrator.campaign.seed =
        seed_base + static_cast<uint64_t>(rep) * 7919;
    OrchestratorResult campaign = RunShardedCampaign(lib, Boot, orchestrator);
    ref_merged.Merge(campaign.coverage);
    ASSERT_LT(static_cast<size_t>(rep), state.rounds.size());
    EXPECT_EQ(state.rounds[rep].seed, orchestrator.campaign.seed);
    EXPECT_EQ(state.rounds[rep].round_coverage, campaign.coverage.Count());
    EXPECT_EQ(state.rounds[rep].round_unique_crashes,
              campaign.crashes.size());
    if (rep == reps - 1) {
      ExpectSameProgs(state.corpus, campaign.corpus, "last rep corpus");
    }
  }
  EXPECT_EQ(state.coverage.blocks(), ref_merged.blocks());
}

TEST_F(SessionTest, ResumedSessionIsBitIdenticalToUninterruptedRun)
{
  SpecLibrary lib = DmLibrary();
  const std::string dir = ScratchDir("resume_determinism");
  auto session_options = [&] {
    SessionOptions options;
    options.WithSeed(7).WithRounds(2).WithOrchestrator(SmallRound());
    return options;
  };

  // Interrupted: 2 rounds, Save, fresh session, Resume, 2 more rounds.
  Session first = MakeSession(session_options());
  ASSERT_TRUE(first.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(first.Run().ok());
  ASSERT_TRUE(first.Save(dir).ok());

  // Save writes the one codec.
  EXPECT_EQ(MustRead(dir + "/session.manifest").substr(0, 4), "KGPB");

  Session resumed = MakeSession(session_options());
  ASSERT_TRUE(resumed.RegisterSuite("dm", &lib).ok());
  util::Status status = resumed.Resume(dir);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 2);
  ASSERT_TRUE(resumed.Run().ok());
  EXPECT_EQ(resumed.rounds_completed(), 4);

  // Uninterrupted: 4 rounds in one session.
  Session straight = MakeSession(session_options().WithRounds(4));
  ASSERT_TRUE(straight.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(straight.Run().ok());

  ExpectSameState(*resumed.Find("dm"), *straight.Find("dm"),
                  "resumed vs straight");
}

TEST_F(SessionTest, SaveResumeSaveRoundTripsBitIdentically)
{
  SpecLibrary lib = DmLibrary();
  const std::string dir_a = ScratchDir("save_a");
  const std::string dir_b = ScratchDir("save_b");
  SessionOptions options;
  options.WithSeed(13).WithRounds(2).WithOrchestrator(SmallRound());

  Session first = MakeSession(options);
  ASSERT_TRUE(first.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(first.Run().ok());
  ASSERT_TRUE(first.Save(dir_a).ok());

  Session second = MakeSession(options);
  ASSERT_TRUE(second.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(second.Resume(dir_a).ok());
  ASSERT_TRUE(second.Save(dir_b).ok());

  // Each directory holds the one file, and the two files are the same.
  for (const std::string& dir : {dir_a, dir_b}) {
    EXPECT_EQ(FileNames(dir), std::vector<std::string>{"session.manifest"})
        << dir;
  }
  EXPECT_EQ(MustRead(dir_a + "/session.manifest"),
            MustRead(dir_b + "/session.manifest"))
      << "session file changed across Save -> Resume -> Save";
}

TEST_F(SessionTest, ResumeRejectsMismatchedConfigurationAndDriftedSuites)
{
  SpecLibrary lib = DmLibrary();
  const std::string dir = ScratchDir("resume_mismatch");
  SessionOptions options;
  options.WithSeed(21).WithRounds(1).WithOrchestrator(SmallRound());
  Session saved = MakeSession(options);
  ASSERT_TRUE(saved.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(saved.Run().ok());
  ASSERT_TRUE(saved.Save(dir).ok());

  // Different master seed -> different schedule -> rejected.
  Session wrong_seed = MakeSession(SessionOptions()
                                       .WithSeed(22)
                                       .WithRounds(1)
                                       .WithOrchestrator(SmallRound()));
  ASSERT_TRUE(wrong_seed.RegisterSuite("dm", &lib).ok());
  util::Status status = wrong_seed.Resume(dir);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("seed"), std::string::npos);

  // Different suite name -> rejected.
  Session wrong_name = MakeSession(options);
  ASSERT_TRUE(wrong_name.RegisterSuite("not-dm", &lib).ok());
  EXPECT_FALSE(wrong_name.Resume(dir).ok());

  // Same name, drifted specs (a different module) -> fingerprint reject.
  SpecLibrary other = MakeLibrary(drivers::GroundTruthDeviceSpec(
      *Corpus::Instance().FindDevice("hpet")));
  Session drifted = MakeSession(options);
  ASSERT_TRUE(drifted.RegisterSuite("dm", &other).ok());
  status = drifted.Resume(dir);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("drifted"), std::string::npos)
      << status.message();

  // Missing snapshot directory -> IO error, not a crash.
  Session missing = MakeSession(options);
  ASSERT_TRUE(missing.RegisterSuite("dm", &lib).ok());
  EXPECT_FALSE(missing.Resume(dir + "_nope").ok());
}

TEST_F(SessionTest, MisconfigurationSurfacesAsStatusErrors)
{
  SpecLibrary lib = DmLibrary();
  SpecLibrary empty;
  empty.Finalize();

  Session session = MakeSession(SessionOptions().WithRounds(1)
                                    .WithOrchestrator(SmallRound()));
  EXPECT_FALSE(session.Run().ok());  // No suites registered.
  EXPECT_FALSE(session.RegisterSuite("", &lib).ok());
  EXPECT_FALSE(session.RegisterSuite("empty", &empty).ok());
  EXPECT_FALSE(session.RegisterSuite("null", nullptr).ok());
  ASSERT_TRUE(session.RegisterSuite("dm", &lib).ok());
  EXPECT_FALSE(session.RegisterSuite("dm", &lib).ok());  // Duplicate.

  DistillResult distilled;
  EXPECT_FALSE(session.DistillInto("nope", {}, &distilled).ok());
  EXPECT_TRUE(session.DistillInto("dm", {}, &distilled).ok());

  ASSERT_TRUE(session.Run().ok());
  EXPECT_FALSE(session.RegisterSuite("late", &lib).ok());
  EXPECT_FALSE(session.Resume("/nonexistent").ok());  // Mid-schedule.

  // Unbounded schedule with no stop rule is refused up front.
  Session unbounded = MakeSession(SessionOptions().WithRounds(0));
  ASSERT_TRUE(unbounded.RegisterSuite("dm", &lib).ok());
  EXPECT_FALSE(unbounded.Run().ok());
}

TEST_F(SessionTest, AnySuiteNameSavesAndResumesBitIdentically)
{
  // Snapshot files prefix every name with its length, so a line break in
  // a suite name is just another byte.
  SpecLibrary lib = DmLibrary();
  const std::string name = "dm\nextra";
  const std::string dir_a = ScratchDir("line_break_a");
  const std::string dir_b = ScratchDir("line_break_b");
  SessionOptions options;
  options.WithSeed(19).WithRounds(2).WithOrchestrator(SmallRound());

  Session first = MakeSession(options);
  ASSERT_TRUE(first.RegisterSuite(name, &lib).ok());
  ASSERT_TRUE(first.Run().ok());
  ASSERT_TRUE(first.Save(dir_a).ok());

  Session second = MakeSession(options);
  ASSERT_TRUE(second.RegisterSuite(name, &lib).ok());
  util::Status status = second.Resume(dir_a);
  ASSERT_TRUE(status.ok()) << status.message();
  ExpectSameState(*second.Find(name), *first.Find(name), "resumed");
  ASSERT_TRUE(second.Save(dir_b).ok());
  EXPECT_EQ(MustRead(dir_a + "/session.manifest"),
            MustRead(dir_b + "/session.manifest"))
      << "session file changed across Save -> Resume -> Save";
}

TEST_F(SessionTest, CoveragePlateauStopsTheSchedule)
{
  SpecLibrary lib = DmLibrary();

  // An unreachable gain target makes every round stale: the rule must
  // fire after exactly plateau_rounds rounds despite rounds = 10.
  SessionOptions options;
  options.WithSeed(3)
      .WithRounds(10)
      .WithPlateau(2, static_cast<size_t>(-1))
      .WithOrchestrator(SmallRound());
  Session session = MakeSession(options);
  ASSERT_TRUE(session.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(session.Run().ok());
  EXPECT_EQ(session.rounds_completed(), 2);
  EXPECT_TRUE(session.Plateaued());

  // With the natural gain target the dm suite saturates quickly: the
  // session must stop well short of its 10-round budget, one round
  // after two consecutive no-gain rounds.
  Session natural = MakeSession(SessionOptions()
                                    .WithSeed(3)
                                    .WithRounds(10)
                                    .WithPlateau(2)
                                    .WithOrchestrator(SmallRound()));
  ASSERT_TRUE(natural.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(natural.Run().ok());
  EXPECT_LT(natural.rounds_completed(), 10);
  EXPECT_TRUE(natural.Plateaued());
  // The plateau state survives Save/Resume: a resumed session must not
  // restart a finished schedule.
  const std::string dir = ScratchDir("plateau");
  ASSERT_TRUE(natural.Save(dir).ok());
  Session resumed = MakeSession(SessionOptions()
                                    .WithSeed(3)
                                    .WithRounds(10)
                                    .WithPlateau(2)
                                    .WithOrchestrator(SmallRound()));
  ASSERT_TRUE(resumed.RegisterSuite("dm", &lib).ok());
  ASSERT_TRUE(resumed.Resume(dir).ok());
  ASSERT_TRUE(resumed.Run().ok());
  EXPECT_EQ(resumed.rounds_completed(), natural.rounds_completed());
}

TEST_F(SessionTest, MultiSuiteSessionsPersistEverySuite)
{
  SpecLibrary dm = DmLibrary();
  SpecLibrary hpet_lib = MakeLibrary(drivers::GroundTruthDeviceSpec(
      *Corpus::Instance().FindDevice("hpet")));
  const std::string dir = ScratchDir("multi_suite");
  SessionOptions options;
  options.WithSeed(17).WithRounds(2).WithOrchestrator(SmallRound());

  Session session = MakeSession(options);
  ASSERT_TRUE(session.RegisterSuite("device mapper", &dm).ok());
  ASSERT_TRUE(session.RegisterSuite("hpet device", &hpet_lib).ok());
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Save(dir).ok());

  Session resumed = MakeSession(options);
  ASSERT_TRUE(resumed.RegisterSuite("device mapper", &dm).ok());
  ASSERT_TRUE(resumed.RegisterSuite("hpet device", &hpet_lib).ok());
  util::Status status = resumed.Resume(dir);
  ASSERT_TRUE(status.ok()) << status.message();
  for (const char* name : {"device mapper", "hpet device"}) {
    ExpectSameState(*session.Find(name), *resumed.Find(name), name);
  }
  ASSERT_EQ(resumed.SuiteNames().size(), 2u);
}

}  // namespace
}  // namespace kernelgpt::fuzzer
