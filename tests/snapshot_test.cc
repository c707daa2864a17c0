// Crash-consistency battery for the one-file snapshot layer:
//  - CRC32 and atomic-write primitives behave as specified (known-answer
//    vector, no .tmp leftovers);
//  - the session file is a byte fixpoint whatever bytes a suite name
//    holds, and a section length near 2^64 is refused instead of wrapping;
//  - every truncation of the session file, a bit flip in every byte of
//    it (every bit of the manifest section) and a trailing byte are each
//    a Status that leaves a refused Resume's directory byte-identical,
//    and a successful Resume writes nothing either (regression: the text
//    manifest carried no checksum, so a flip of its round or plateau
//    counter resumed a different session);
//  - autosave keeps the directory resumable every round;
//  - a session saved into a directory that held a larger one replaces
//    it whole.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/session.h"
#include "fuzzer/snapshot.h"
#include "util/fileio.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using drivers::Corpus;

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    consts_ = new syzlang::ConstTable(
        Corpus::Instance().BuildIndex().BuildConstTable());
    lib_ = new SpecLibrary(MakeLibrary(
        drivers::GroundTruthDeviceSpec(*Corpus::Instance().FindDevice("dm"))));
  }
  static void TearDownTestSuite() {
    delete lib_;
    lib_ = nullptr;
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

  static void Boot(vkernel::KernelModel* kernel) {
    Corpus::Instance().RegisterAll(kernel);
  }

  /// Short deterministic per-round options; small budget keeps the
  /// byte-boundary sweeps fast.
  static SessionOptions SmallSession() {
    SessionOptions options;
    options.seed = 77;
    options.orchestrator.campaign.program_budget = 2500;
    options.orchestrator.num_workers = 2;
    options.orchestrator.sync_interval = 200;
    return options;
  }

  static Session MakeSession(SessionOptions options) {
    return Session(std::move(options), Boot);
  }

  /// A fresh session registered on the shared suite, resumed from `dir`.
  static Session ResumeFresh(const std::string& dir, util::Status* status,
                             SessionOptions options = SmallSession()) {
    Session session = MakeSession(std::move(options));
    EXPECT_TRUE(session.RegisterSuite("dm", lib_).ok());
    *status = session.Resume(dir);
    return session;
  }

  static std::string ScratchDir(const std::string& leaf) {
    const std::string dir =
        ::testing::TempDir() + "kernelgpt_snapshot_test/" + leaf;
    std::filesystem::remove_all(dir);
    return dir;
  }

  static std::string MustRead(const std::string& path) {
    std::string text;
    util::Status status = util::ReadFileToString(path, &text);
    EXPECT_TRUE(status.ok()) << status.message();
    return text;
  }

  static void ExpectSameState(const SuiteState& a, const SuiteState& b,
                              const std::string& label) {
    EXPECT_EQ(a.coverage.blocks(), b.coverage.blocks()) << label;
    EXPECT_EQ(a.crashes, b.crashes) << label;
    EXPECT_EQ(a.programs_executed, b.programs_executed) << label;
    ASSERT_EQ(a.corpus.size(), b.corpus.size()) << label;
    for (size_t i = 0; i < a.corpus.size(); ++i) {
      EXPECT_EQ(HashProg(a.corpus[i]), HashProg(b.corpus[i]))
          << label << " program " << i;
    }
    ASSERT_EQ(a.crash_reproducers.size(), b.crash_reproducers.size()) << label;
    for (const auto& [title, prog] : a.crash_reproducers) {
      auto it = b.crash_reproducers.find(title);
      ASSERT_NE(it, b.crash_reproducers.end()) << label << " " << title;
      EXPECT_EQ(HashProg(prog), HashProg(it->second)) << label << " " << title;
    }
    ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  }

  static syzlang::ConstTable* consts_;
  static SpecLibrary* lib_;
};

syzlang::ConstTable* SnapshotTest::consts_ = nullptr;
SpecLibrary* SnapshotTest::lib_ = nullptr;

/// LEB128, as the KGPB encoder writes it — for crafting damaged payloads.
std::string
Varint(uint64_t v)
{
  std::string out;
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
  return out;
}

/// The bytes of every file in `dir`, by name.
std::map<std::string, std::string>
DirBytes(const std::string& dir)
{
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string bytes;
    EXPECT_TRUE(util::ReadFileToString(entry.path().string(), &bytes).ok());
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

/// Replaces `path` without the fsyncs of util::AtomicWriteFile, for
/// batteries that install thousands of damaged files.
void
OverwriteFile(const std::string& path, const std::string& bytes)
{
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// -- Primitives --------------------------------------------------------------

TEST_F(SnapshotTest, Crc32MatchesTheStandardCheckValue)
{
  // The canonical CRC-32/ISO-HDLC check vector.
  EXPECT_EQ(util::Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(util::Crc32(""), 0u);
  EXPECT_NE(util::Crc32("torn"), util::Crc32("tore"));
}

TEST_F(SnapshotTest, AtomicWriteReplacesWithoutLeavingTmpFiles)
{
  const std::string dir = ScratchDir("atomic");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/file";
  ASSERT_TRUE(util::AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(util::AtomicWriteFile(path, "second").ok());
  EXPECT_EQ(MustRead(path), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// -- Manifest ----------------------------------------------------------------

TEST_F(SnapshotTest, ManifestIsAByteFixpointForAnySuiteName)
{
  // Names are length-prefixed bytes: digits that look like an index or a
  // fingerprint (the text manifest once anchored a name by searching for
  // the fingerprint and found it inside the index "12"), spaces and line
  // breaks all survive. Each name and fingerprint is stored once, in its
  // suite's meta section, and the manifest reads them back from there.
  SessionManifest manifest;
  manifest.seed = 0x2a;
  manifest.schedule = "arithmetic";
  manifest.seed_stride = 7919;
  manifest.carry_corpus = false;
  manifest.rounds_completed = 12;
  manifest.stale_rounds = 2;
  std::vector<SuiteSnapshot> suites;
  for (const char* name :
       {"12", "2 name12", "Syzkaller + KernelGPT", "dm\nextra"}) {
    SuiteSnapshot suite;
    suite.name = name;
    suite.fingerprint = 0x2 + manifest.suites.size();
    suite.coverage = {0x10, 0x2f};
    manifest.suites.emplace_back(suite.fingerprint, suite.name);
    suites.push_back(suite);
  }
  std::string once = SerializeManifest(manifest);
  for (const SuiteSnapshot& suite : suites) AppendSuite(suite, *lib_, &once);

  SessionManifest parsed;
  std::vector<SuiteSections> sections;
  util::Status status = ParseSession(once, &parsed, &sections);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(parsed.seed, manifest.seed);
  EXPECT_EQ(parsed.schedule, manifest.schedule);
  EXPECT_EQ(parsed.seed_stride, manifest.seed_stride);
  EXPECT_EQ(parsed.carry_corpus, manifest.carry_corpus);
  EXPECT_EQ(parsed.distill, manifest.distill);
  EXPECT_EQ(parsed.rounds_completed, manifest.rounds_completed);
  EXPECT_EQ(parsed.stale_rounds, manifest.stale_rounds);
  EXPECT_EQ(parsed.suites, manifest.suites);
  ASSERT_EQ(sections.size(), suites.size());

  std::string twice = SerializeManifest(parsed);
  for (const SuiteSections& suite_sections : sections) {
    SuiteSnapshot suite;
    status = ParseSuite(suite_sections, *lib_, &suite);
    ASSERT_TRUE(status.ok()) << status.message();
    AppendSuite(suite, *lib_, &twice);
  }
  EXPECT_EQ(twice, once);
}

TEST_F(SnapshotTest, AWrappingSectionLengthIsRefused)
{
  // Regression: a framed length near 2^64 wrapped `payload_at + len` back
  // onto the section's own start, passed the bounds check and matched
  // the empty payload's CRC of 0. The frame is crafted here, in place of
  // the first suite's meta section: a ten-byte varint length and the
  // empty payload's CRC.
  SessionManifest manifest;
  manifest.schedule = "hash-chain";
  manifest.suites.emplace_back(0, "dm");
  const std::string file = SerializeManifest(manifest) +
                           Varint(18446744073709551582ull) +
                           std::string(4, '\0');
  std::vector<SuiteSections> sections;
  util::Status status = ParseSession(file, &manifest, &sections);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("torn payload"), std::string::npos)
      << status.message();
}

TEST_F(SnapshotTest, ADamagedManifestRefusesResumeAndTouchesNoFile)
{
  // The directory of a plateau-ruled session after three autosaved
  // rounds: one file, the manifest section followed by the suite's
  // sections. The text manifest of older versions once resumed after a
  // one-bit flip of the round counter (3 -> 2) or of the plateau counter
  // (2 -> 3: it resumed a plateaued session). Now every truncation of the
  // file, a flip of one bit in every byte (of every bit in the manifest
  // section) and a trailing byte are each refused with a Status, and the
  // refused Resume leaves the directory as it was.
  const std::string dir = ScratchDir("damaged-manifest");
  auto options = [&dir] {
    return SmallSession().WithRounds(3).WithAutosave(dir, 1).WithPlateau(3);
  };
  {
    Session session = MakeSession(options());
    ASSERT_TRUE(session.RegisterSuite("dm", lib_).ok());
    ASSERT_TRUE(session.Run().ok());
  }
  const std::string path = dir + "/session.manifest";
  const std::string good = MustRead(path);
  SessionManifest manifest;
  std::vector<SuiteSections> sections;
  ASSERT_TRUE(ParseSession(good, &manifest, &sections).ok());
  ASSERT_EQ(manifest.rounds_completed, 3);
  ASSERT_EQ(manifest.stale_rounds, 2);
  const std::map<std::string, std::string> before = DirBytes(dir);
  ASSERT_EQ(before.size(), 1u);
  // The file opens with SerializeManifest's rendering.
  const size_t manifest_end = SerializeManifest(manifest).size();
  ASSERT_EQ(good.substr(0, manifest_end), SerializeManifest(manifest));

  // The probe's flips, on this format: the byte holding the counter
  // changed by the one bit that turns 3 into 2, and 2 into 3.
  auto probe_flip = [&good, &manifest](int SessionManifest::*field,
                                       int value) {
    SessionManifest flipped = manifest;
    flipped.*field = value;
    const std::string other = SerializeManifest(flipped);
    size_t at = 0;
    while (good[at] == other[at]) ++at;
    EXPECT_EQ(good[at] ^ other[at], 1);
    std::string damaged = good;
    damaged[at] = other[at];
    return damaged;
  };
  std::vector<std::pair<std::string, std::string>> damaged = {
      {"rounds_completed 3 -> 2",
       probe_flip(&SessionManifest::rounds_completed, 2)},
      {"stale_rounds 2 -> 3", probe_flip(&SessionManifest::stale_rounds, 3)},
  };
  for (size_t cut = 0; cut < good.size(); ++cut) {
    damaged.emplace_back("cut at byte " + std::to_string(cut),
                         good.substr(0, cut));
  }
  for (size_t at = 0; at < good.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      // Past the manifest section, one bit per byte, rotating.
      if (at >= manifest_end && bit != static_cast<int>(at % 8)) continue;
      std::string flipped = good;
      flipped[at] ^= static_cast<char>(1 << bit);
      damaged.emplace_back("flip of bit " + std::to_string(bit) +
                               " of byte " + std::to_string(at),
                           flipped);
    }
  }
  damaged.emplace_back("a trailing byte", good + '\0');

  for (const auto& [label, bytes] : damaged) {
    OverwriteFile(path, bytes);
    util::Status status = util::Status::Ok();
    Session resumed = ResumeFresh(dir, &status, options());
    EXPECT_FALSE(status.ok()) << label;
    EXPECT_EQ(resumed.rounds_completed(), 0) << label;
    const std::map<std::string, std::string> expected = {
        {"session.manifest", bytes}};
    EXPECT_EQ(DirBytes(dir), expected) << label;
  }

  // The intact file still resumes the committed round, and writes
  // nothing either.
  OverwriteFile(path, good);
  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir, &status, options());
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 3);
  EXPECT_EQ(DirBytes(dir), before);
}

TEST_F(SnapshotTest, AutosaveKeepsTheDirectoryResumableEveryRound)
{
  const std::string dir = ScratchDir("autosave");
  Session session = MakeSession(
      SmallSession().WithRounds(3).WithAutosave(dir, 1));
  ASSERT_TRUE(session.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(session.Run().ok());

  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir, &status,
                                SmallSession().WithRounds(3).WithAutosave(dir, 1));
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 3);
  ExpectSameState(*resumed.Find("dm"), *session.Find("dm"), "autosaved");
}

// -- Directory hygiene -------------------------------------------------------

TEST_F(SnapshotTest, SaveIntoAReusedDirectoryReplacesTheWholeSession)
{
  // A 3-suite session's directory, then a 2-suite session saved over it:
  // the directory resumes as the 2 suites and refuses the 3.
  const std::string dir = ScratchDir("reused");
  {
    Session three = MakeSession(SmallSession());
    for (const char* name : {"dm", "dm-b", "dm-c"}) {
      ASSERT_TRUE(three.RegisterSuite(name, lib_).ok());
    }
    ASSERT_TRUE(three.RunRound().ok());
    ASSERT_TRUE(three.Save(dir).ok());
  }
  Session two = MakeSession(SmallSession());
  ASSERT_TRUE(two.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(two.RegisterSuite("dm-b", lib_).ok());
  ASSERT_TRUE(two.RunRound().ok());
  ASSERT_TRUE(two.RunRound().ok());
  ASSERT_TRUE(two.Save(dir).ok());
  const std::map<std::string, std::string> saved = DirBytes(dir);
  ASSERT_EQ(saved.size(), 1u);

  Session resumed = MakeSession(SmallSession());
  ASSERT_TRUE(resumed.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(resumed.RegisterSuite("dm-b", lib_).ok());
  util::Status status = resumed.Resume(dir);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 2);
  for (const char* name : {"dm", "dm-b"}) {
    ExpectSameState(*resumed.Find(name), *two.Find(name), name);
  }

  Session refused = MakeSession(SmallSession());
  for (const char* name : {"dm", "dm-b", "dm-c"}) {
    ASSERT_TRUE(refused.RegisterSuite(name, lib_).ok());
  }
  status = refused.Resume(dir);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("2 suites but 3"), std::string::npos)
      << status.message();
  EXPECT_EQ(refused.rounds_completed(), 0);
  EXPECT_EQ(DirBytes(dir), saved);
}

}  // namespace
}  // namespace kernelgpt::fuzzer
