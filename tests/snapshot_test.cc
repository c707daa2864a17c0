// Crash-consistency battery for the incremental snapshot layer:
//  - CRC32 and atomic-write primitives behave as specified (known-answer
//    vector, no .tmp leftovers, old content survives a failed write);
//  - journal record framing + KGPB delta records are byte fixpoints, a
//    framed length near 2^64 ends the scan instead of wrapping, and every
//    damaged record payload is a util::Status, never a crash;
//  - the KGPB manifest is a byte fixpoint whatever bytes a suite name
//    holds, and every truncation and single-bit flip of it is a Status
//    that leaves a refused Resume's directory byte-identical (regression:
//    the text manifest carried no checksum, so a flip of its round or
//    plateau counter resumed a different session);
//  - an incremental Save appends to the journal without rewriting the
//    base snapshot, and the journal replay is bit-identical to an
//    uninterrupted run;
//  - Resume recovers from a torn or uncommitted journal tail truncated
//    at EVERY byte boundary, never crashing or dropping committed data;
//  - damage to a committed record (one flipped byte per record, a
//    wrapping length, a crash increment that overflows its count) is a
//    precise util::Status error that leaves the session untouched;
//  - Save into a reused directory prunes orphaned suite files and stray
//    .tmp leftovers; journalless (pre-journal) directories still resume.

#include <gtest/gtest.h>

#include <climits>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "drivers/corpus.h"
#include "drivers/model_spec.h"
#include "fuzzer/session.h"
#include "fuzzer/snapshot.h"
#include "util/fileio.h"
#include "util/strings.h"
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
    util::Status status = ReadFileToString(path, &text);
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
    EXPECT_TRUE(ReadFileToString(entry.path().string(), &bytes).ok());
    files[entry.path().filename().string()] = std::move(bytes);
  }
  return files;
}

/// Replaces `path` without the fsyncs of WriteStringToFile, for batteries
/// that install hundreds of damaged files.
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

  ASSERT_TRUE(util::AppendFileDurable(path, " third").ok());
  EXPECT_EQ(MustRead(path), "second third");
}

// -- Journal framing and delta serialization ---------------------------------

TEST_F(SnapshotTest, JournalFramingRoundTripsAndFlagsEveryTornTail)
{
  JournalHeader header;
  header.fingerprint = 0xabcdef;
  header.suite_name = "dm suite";
  header.base_rounds = 3;
  std::string text = SerializeJournalHeader(header);
  // The second payload is long enough for a two-byte length varint, so a
  // cut can fall inside a frame header.
  const std::string r1 = "payload one\n";
  const std::string r2 = std::string(200, 'x') + "\n";
  text += FrameJournalRecord(r1);
  text += FrameJournalRecord(r2);

  JournalScan scan;
  util::Status status = ScanJournal(text, &scan);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(scan.header.fingerprint, header.fingerprint);
  EXPECT_EQ(scan.header.suite_name, header.suite_name);
  EXPECT_EQ(scan.header.base_rounds, header.base_rounds);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].first, r1);
  EXPECT_EQ(scan.records[1].first, r2);
  EXPECT_EQ(scan.records[1].second, text.size());
  EXPECT_TRUE(scan.tail_error.empty()) << scan.tail_error;

  // Every truncation point inside the record region loses only the tail:
  // scanning never errors, and every record wholly before the cut
  // survives.
  for (size_t cut = scan.header_end; cut < text.size(); ++cut) {
    JournalScan torn;
    status = ScanJournal(text.substr(0, cut), &torn);
    ASSERT_TRUE(status.ok()) << "cut " << cut << ": " << status.message();
    const size_t expect =
        cut >= scan.records[1].second ? 2 : cut >= scan.records[0].second ? 1
                                                                          : 0;
    EXPECT_EQ(torn.records.size(), expect) << "cut " << cut;
    // A cut exactly on a record boundary looks like a crash between
    // appends — clean EOF; anywhere else must be flagged as torn, and
    // say whether the frame header or the payload was cut.
    const bool boundary =
        cut == scan.header_end || cut == scan.records[0].second;
    EXPECT_EQ(torn.tail_error.empty(), boundary) << "cut " << cut;
    if (boundary) continue;
    const char* why = cut == scan.records[0].second + 1
                          ? "truncated frame header"
                          : "torn payload";
    EXPECT_NE(torn.tail_error.find(why), std::string::npos)
        << "cut " << cut << ": " << torn.tail_error;
  }

  // A flipped payload byte fails the checksum and ends the scan there.
  std::string corrupt = text;
  corrupt[scan.records[0].second + 20] ^= 0x40;
  JournalScan damaged;
  ASSERT_TRUE(ScanJournal(corrupt, &damaged).ok());
  EXPECT_EQ(damaged.records.size(), 1u);
  EXPECT_NE(damaged.tail_error.find("checksum mismatch"), std::string::npos)
      << damaged.tail_error;

  // Header damage is a Status error — there is nothing to recover onto:
  // text, a truncated header, a flipped binding byte, another file kind.
  EXPECT_FALSE(ScanJournal("not a journal\n", &damaged).ok());
  for (size_t cut = 0; cut < scan.header_end; ++cut) {
    EXPECT_FALSE(ScanJournal(text.substr(0, cut), &damaged).ok())
        << "cut " << cut;
  }
  corrupt = text;
  corrupt[scan.header_end - 5] ^= 0x01;
  EXPECT_FALSE(ScanJournal(corrupt, &damaged).ok());
  EXPECT_FALSE(ScanJournal(SerializeManifest(SessionManifest{}), &damaged)
                   .ok());
}

TEST_F(SnapshotTest, AWrappingRecordLengthEndsTheScan)
{
  // Regression: a framed length near 2^64 wrapped `payload_at + len` back
  // onto the record's own start (34 bytes earlier), passed the bounds
  // check, matched the empty payload's CRC of 0 and rescanned the same
  // record forever. The frame is crafted here: a ten-byte varint length
  // and the empty payload's CRC.
  JournalHeader header;
  header.fingerprint = 0xabcdef;
  header.suite_name = "dm";
  const std::string text = SerializeJournalHeader(header) +
                           Varint(18446744073709551582ull) +
                           std::string(4, '\0');
  JournalScan scan;
  ASSERT_TRUE(ScanJournal(text, &scan).ok());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_NE(scan.tail_error.find("torn payload"), std::string::npos)
      << scan.tail_error;
}

TEST_F(SnapshotTest, DeltaSerializationIsAByteFixpoint)
{
  // Real programs: take the corpus a short campaign round distills.
  Session session = MakeSession(SmallSession());
  ASSERT_TRUE(session.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(session.RunRound().ok());
  const SuiteState* state = session.Find("dm");
  ASSERT_NE(state, nullptr);
  ASSERT_GE(state->corpus.size(), 3u);

  auto round_trip = [](const SuiteDelta& delta, const std::string& label) {
    const std::string once = SerializeDelta(delta, *lib_);
    SuiteDelta parsed;
    util::Status status = ParseDelta(once, *lib_, &parsed);
    EXPECT_TRUE(status.ok()) << label << ": " << status.message();
    EXPECT_EQ(SerializeDelta(parsed, *lib_), once) << label;
    EXPECT_EQ(parsed.corpus_unchanged, delta.corpus_unchanged) << label;
    EXPECT_EQ(parsed.corpus.size(), delta.corpus.size()) << label;
    return parsed;
  };

  SuiteDelta delta;
  delta.report = state->rounds.back();
  delta.report.epochs.clear();
  delta.new_coverage = {0x10, 0x2f, 0xdeadbeef};
  delta.crash_increments = {{"KASAN: use-after-free", 2}, {"WARNING", 1}};
  delta.new_reproducers["WARNING"] = state->corpus[0];
  delta.corpus.resize(3);
  delta.corpus[0].kept_index = 2;
  delta.corpus[1].prog = state->corpus[1];
  delta.corpus[2].kept_index = 0;

  // Kept and inline entries.
  SuiteDelta parsed = round_trip(delta, "kept and inline");
  EXPECT_EQ(parsed.report.seed, delta.report.seed);
  EXPECT_EQ(parsed.report.wall_seconds, delta.report.wall_seconds);
  EXPECT_EQ(parsed.new_coverage, delta.new_coverage);
  EXPECT_EQ(parsed.crash_increments, delta.crash_increments);
  EXPECT_EQ(HashProg(parsed.new_reproducers["WARNING"]),
            HashProg(state->corpus[0]));
  ASSERT_EQ(parsed.corpus.size(), 3u);
  EXPECT_EQ(parsed.corpus[0].kept_index, 2);
  EXPECT_EQ(parsed.corpus[1].kept_index, -1);
  EXPECT_EQ(HashProg(parsed.corpus[1].prog), HashProg(delta.corpus[1].prog));
  EXPECT_EQ(parsed.corpus[2].kept_index, 0);

  // A changed corpus may be empty (tag n+1 = 1); it must not read back as
  // unchanged (tag 0, the steady state once distillation converges, which
  // carries no programs at all).
  delta.corpus.clear();
  delta.new_reproducers.clear();
  EXPECT_EQ(SerializeDelta(delta, *lib_).back(), 1);
  round_trip(delta, "empty corpus");
  delta.corpus_unchanged = true;
  EXPECT_EQ(SerializeDelta(delta, *lib_).back(), 0);
  round_trip(delta, "unchanged corpus");
}

TEST_F(SnapshotTest, DamagedDeltaRecordsAreAStatusNeverACrash)
{
  Session session = MakeSession(SmallSession());
  ASSERT_TRUE(session.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(session.RunRound().ok());
  const SuiteState& state = *session.Find("dm");
  ASSERT_FALSE(state.corpus.empty());

  // The record ends in an inline program of one call with one default
  // arg, so the arg's fields are one byte each at fixed offsets from the
  // end: kind (6), scalar (5), dir (4), zigzag ref_call (3), zigzag
  // len_of_param (2), byte count (1).
  SuiteDelta delta;
  delta.report.round = 1;
  delta.new_coverage = {0x10, 0x2f};
  delta.crash_increments = {{"WARNING", 1}};
  delta.new_reproducers["WARNING"] = state.corpus[0];
  delta.corpus.resize(2);
  delta.corpus[0].kept_index = 0;
  delta.corpus[1].prog.calls.resize(1);
  delta.corpus[1].prog.calls[0].args.resize(1);
  const std::string good = SerializeDelta(delta, *lib_);
  SuiteDelta out;
  ASSERT_TRUE(ParseDelta(good, *lib_, &out).ok());
  ASSERT_EQ(good[good.size() - 2], 1);  // zigzag(-1): the default link.
  auto rejected = [&out](const std::string& payload) {
    return !ParseDelta(payload, *lib_, &out).ok();
  };
  auto patched = [&good](size_t from_end, uint8_t byte) {
    std::string payload = good;
    payload[payload.size() - from_end] = static_cast<char>(byte);
    return payload;
  };

  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_TRUE(rejected(good.substr(0, cut))) << "cut at byte " << cut;
  }
  EXPECT_TRUE(rejected(good + '\0')) << "one trailing byte";
  EXPECT_TRUE(rejected(patched(6, 3))) << "kind > 2";
  EXPECT_TRUE(rejected(patched(4, 3))) << "dir > 2";
  EXPECT_TRUE(rejected(patched(2, 5))) << "len_of_param -3 < kBrokenLenLink";

  // A call the library does not define (an index past its end renders as
  // "#<n>") comes back as a Status naming it.
  SuiteDelta unknown = delta;
  unknown.corpus[1].prog.calls[0].syscall_index = lib_->syscalls().size();
  util::Status status =
      ParseDelta(SerializeDelta(unknown, *lib_), *lib_, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("absent"), std::string::npos)
      << status.message();

  // The corpus closes the record, so its last entry's tag can be
  // replaced: a kept index above INT_MAX, and a count larger than the
  // bytes that remain (it would otherwise size a huge allocation).
  SuiteDelta kept;
  kept.corpus.resize(1);
  kept.corpus[0].kept_index = 0;
  std::string payload = SerializeDelta(kept, *lib_);
  ASSERT_EQ(payload.back(), 1);
  payload.pop_back();
  EXPECT_FALSE(rejected(payload + Varint(uint64_t{INT_MAX} + 1)));
  EXPECT_TRUE(rejected(payload + Varint(uint64_t{INT_MAX} + 2)))
      << "kept index above INT_MAX";
  payload.pop_back();  // The corpus count tag (2).
  EXPECT_TRUE(rejected(payload + Varint(uint64_t{1} << 40) + Varint(1)))
      << "corpus count larger than the bytes that remain";

  // Out-of-range rounds and crash increments (a negative increment
  // encodes above INT_MAX).
  SuiteDelta bad;
  bad.report.round = -1;
  EXPECT_TRUE(rejected(SerializeDelta(bad, *lib_))) << "negative round";
  bad.report.round = 1;
  bad.crash_increments["WARNING"] = -1;
  EXPECT_TRUE(rejected(SerializeDelta(bad, *lib_))) << "negative increment";
}

// -- Manifest ----------------------------------------------------------------

TEST_F(SnapshotTest, ManifestIsAByteFixpointForAnySuiteName)
{
  // Names are length-prefixed bytes: digits that look like an index or a
  // fingerprint (the text manifest once anchored a name by searching for
  // the fingerprint and found it inside the index "12"), spaces and line
  // breaks all survive.
  SessionManifest manifest;
  manifest.seed = 0x2a;
  manifest.schedule = "arithmetic";
  manifest.seed_stride = 7919;
  manifest.carry_corpus = false;
  manifest.rounds_completed = 12;
  manifest.stale_rounds = 2;
  for (const char* name :
       {"12", "2 name12", "Syzkaller + KernelGPT", "dm\nextra"}) {
    manifest.suites.emplace_back(0x2, name);
  }
  const std::string once = SerializeManifest(manifest);
  SessionManifest parsed;
  util::Status status = ParseManifest(once, &parsed);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(parsed.seed, manifest.seed);
  EXPECT_EQ(parsed.schedule, manifest.schedule);
  EXPECT_EQ(parsed.seed_stride, manifest.seed_stride);
  EXPECT_EQ(parsed.carry_corpus, manifest.carry_corpus);
  EXPECT_EQ(parsed.distill, manifest.distill);
  EXPECT_EQ(parsed.rounds_completed, manifest.rounds_completed);
  EXPECT_EQ(parsed.stale_rounds, manifest.stale_rounds);
  EXPECT_EQ(parsed.suites, manifest.suites);
  EXPECT_EQ(SerializeManifest(parsed), once);
}

TEST_F(SnapshotTest, ADamagedManifestRefusesResumeAndTouchesNoFile)
{
  // The directory of a plateau-ruled session after three autosaved
  // rounds. Its text manifest once resumed after a one-bit flip of the
  // round counter (3 -> 2: Resume then truncated the committed round-3
  // record) or of the plateau counter (2 -> 3: it resumed a plateaued
  // session). Now every truncation and every single-bit flip of the
  // manifest is refused with a Status, and the refused Resume leaves
  // every file in the directory as it was.
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
  ASSERT_TRUE(ParseManifest(good, &manifest).ok());
  ASSERT_EQ(manifest.rounds_completed, 3);
  ASSERT_EQ(manifest.stale_rounds, 2);
  const std::map<std::string, std::string> before = DirBytes(dir);

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
  for (size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string flipped = good;
    flipped[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    damaged.emplace_back("flip of bit " + std::to_string(bit), flipped);
  }
  damaged.emplace_back("a trailing byte", good + '\0');

  for (const auto& [label, bytes] : damaged) {
    OverwriteFile(path, bytes);
    util::Status status = util::Status::Ok();
    Session resumed = ResumeFresh(dir, &status, options());
    EXPECT_FALSE(status.ok()) << label;
    EXPECT_EQ(resumed.rounds_completed(), 0) << label;
    std::map<std::string, std::string> expected = before;
    expected["session.manifest"] = bytes;
    EXPECT_EQ(DirBytes(dir), expected) << label;
  }

  // The intact manifest still resumes the committed round.
  OverwriteFile(path, good);
  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir, &status, options());
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 3);
  EXPECT_EQ(DirBytes(dir), before);
}

// -- Incremental save --------------------------------------------------------

TEST_F(SnapshotTest, IncrementalSaveAppendsWithoutRewritingTheBase)
{
  const std::string dir = ScratchDir("incremental");
  Session session = MakeSession(
      SmallSession().WithRounds(1).WithJournalCompaction(100));
  ASSERT_TRUE(session.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(session.RunRound().ok());
  ASSERT_TRUE(session.Save(dir).ok());

  const std::string base = MustRead(dir + "/suite_0.snap");
  const std::string journal_after_full = MustRead(dir + "/suite_0.journal");

  ASSERT_TRUE(session.RunRound().ok());
  ASSERT_TRUE(session.Save(dir).ok());
  ASSERT_TRUE(session.RunRound().ok());
  ASSERT_TRUE(session.Save(dir).ok());

  // The base is untouched — the new rounds live in the journal.
  EXPECT_EQ(MustRead(dir + "/suite_0.snap"), base);
  const std::string journal = MustRead(dir + "/suite_0.journal");
  EXPECT_GT(journal.size(), journal_after_full.size());
  EXPECT_TRUE(util::StartsWith(journal, journal_after_full));

  JournalScan scan;
  ASSERT_TRUE(ScanJournal(journal, &scan).ok());
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_TRUE(scan.tail_error.empty()) << scan.tail_error;

  // Replaying base + journal is bit-identical to an uninterrupted run.
  Session straight = MakeSession(SmallSession());
  ASSERT_TRUE(straight.RegisterSuite("dm", lib_).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(straight.RunRound().ok());

  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir, &status);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 3);
  ExpectSameState(*resumed.Find("dm"), *straight.Find("dm"), "resumed");

  // And the continuation stays on the deterministic schedule.
  ASSERT_TRUE(resumed.RunRound().ok());
  ASSERT_TRUE(straight.RunRound().ok());
  ExpectSameState(*resumed.Find("dm"), *straight.Find("dm"), "continued");
}

TEST_F(SnapshotTest, CompactionFoldsTheJournalIntoAFreshBase)
{
  const std::string dir = ScratchDir("compaction");
  Session session = MakeSession(SmallSession().WithJournalCompaction(2));
  ASSERT_TRUE(session.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(session.RunRound().ok());
  ASSERT_TRUE(session.Save(dir).ok());
  const std::string base = MustRead(dir + "/suite_0.snap");

  // Two more rounds hit the compaction horizon: the journal folds into a
  // fresh base and restarts empty.
  ASSERT_TRUE(session.RunRound().ok());
  ASSERT_TRUE(session.RunRound().ok());
  ASSERT_TRUE(session.Save(dir).ok());
  EXPECT_NE(MustRead(dir + "/suite_0.snap"), base);
  JournalScan scan;
  ASSERT_TRUE(ScanJournal(MustRead(dir + "/suite_0.journal"), &scan).ok());
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_EQ(scan.header.base_rounds, 3);

  Session straight = MakeSession(SmallSession());
  ASSERT_TRUE(straight.RegisterSuite("dm", lib_).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(straight.RunRound().ok());
  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir, &status,
                                SmallSession().WithJournalCompaction(2));
  ASSERT_TRUE(status.ok()) << status.message();
  ExpectSameState(*resumed.Find("dm"), *straight.Find("dm"), "compacted");
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

// -- Torn-tail recovery ------------------------------------------------------

class TornTailTest : public SnapshotTest {
 protected:
  /// Builds a directory committed at round 1 whose journal carries one
  /// intact-but-uncommitted record for round 1 (the on-disk picture of a
  /// crash after the journal append fsynced but before the manifest
  /// rename landed), plus a reference session at the committed round.
  void SetUpDir(const std::string& leaf) {
    dir_ = ScratchDir(leaf);
    Session session = MakeSession(SmallSession().WithJournalCompaction(100));
    EXPECT_TRUE(session.RegisterSuite("dm", lib_).ok());
    EXPECT_TRUE(session.RunRound().ok());
    EXPECT_TRUE(session.Save(dir_).ok());
    committed_manifest_ = MustRead(dir_ + "/session.manifest");
    EXPECT_TRUE(session.RunRound().ok());
    EXPECT_TRUE(session.Save(dir_).ok());
    full_journal_ = MustRead(dir_ + "/suite_0.journal");

    // Roll the manifest back to the committed round: the appended record
    // is now an uncommitted tail.
    EXPECT_TRUE(
        WriteStringToFile(dir_ + "/session.manifest", committed_manifest_)
            .ok());

    reference_ = std::make_unique<Session>(SmallSession(), Boot);
    EXPECT_TRUE(reference_->RegisterSuite("dm", lib_).ok());
    EXPECT_TRUE(reference_->RunRound().ok());
  }

  /// Re-saves dir_ with both rounds committed (one journal record for
  /// round 1 on a one-round base) and returns the journal.
  std::string CommitBothRounds() {
    Session session = MakeSession(SmallSession().WithJournalCompaction(100));
    EXPECT_TRUE(session.RegisterSuite("dm", lib_).ok());
    EXPECT_TRUE(session.RunRound().ok());
    EXPECT_TRUE(session.Save(dir_).ok());
    EXPECT_TRUE(session.RunRound().ok());
    EXPECT_TRUE(session.Save(dir_).ok());
    return MustRead(dir_ + "/suite_0.journal");
  }

  /// Installs `journal` and checks that Resume refuses it with a Status
  /// and leaves the fresh session untouched.
  void ExpectResumeRefused(const std::string& journal,
                           const std::string& label) {
    ASSERT_TRUE(WriteStringToFile(dir_ + "/suite_0.journal", journal).ok());
    Session fresh = MakeSession(SmallSession());
    ASSERT_TRUE(fresh.RegisterSuite("dm", lib_).ok());
    util::Status status = fresh.Resume(dir_);
    EXPECT_FALSE(status.ok()) << label;
    EXPECT_EQ(fresh.rounds_completed(), 0) << label;
    EXPECT_TRUE(fresh.Find("dm")->corpus.empty()) << label;
    EXPECT_TRUE(fresh.Find("dm")->crashes.empty()) << label;
  }

  std::string dir_;
  std::string committed_manifest_;
  std::string full_journal_;
  std::unique_ptr<Session> reference_;
};

TEST_F(TornTailTest, ResumeDropsAnUncommittedTailAndTruncatesIt)
{
  SetUpDir("uncommitted");
  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir_, &status);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(resumed.rounds_completed(), 1);
  ExpectSameState(*resumed.Find("dm"), *reference_->Find("dm"), "recovered");

  // The uncommitted record was physically truncated away, so future
  // appends land after the last committed byte, not after garbage.
  const std::string healed = MustRead(dir_ + "/suite_0.journal");
  EXPECT_LT(healed.size(), full_journal_.size());
  JournalScan scan;
  ASSERT_TRUE(ScanJournal(healed, &scan).ok());
  EXPECT_TRUE(scan.tail_error.empty()) << scan.tail_error;
  EXPECT_EQ(scan.records.size(), 0u);

  // The recovered session keeps saving incrementally and stays on the
  // deterministic schedule.
  ASSERT_TRUE(resumed.RunRound().ok());
  ASSERT_TRUE(resumed.Save(dir_).ok());
  ASSERT_TRUE(reference_->RunRound().ok());
  util::Status again_status = util::Status::Ok();
  Session again = ResumeFresh(dir_, &again_status);
  ASSERT_TRUE(again_status.ok()) << again_status.message();
  EXPECT_EQ(again.rounds_completed(), 2);
  ExpectSameState(*again.Find("dm"), *reference_->Find("dm"), "resaved");
}

TEST_F(TornTailTest, ResumeRecoversFromTruncationAtEveryByteBoundary)
{
  SetUpDir("every-byte");
  // Cut the journal at EVERY byte boundary — torn header, torn record
  // framing, torn payload — and resume each time. The committed round
  // must come back bit-identical in every case; a cut inside the header
  // region loses the whole journal, which the base alone covers.
  const SuiteState& want = *reference_->Find("dm");
  for (size_t cut = 0; cut <= full_journal_.size(); ++cut) {
    ASSERT_TRUE(WriteStringToFile(dir_ + "/suite_0.journal",
                                  full_journal_.substr(0, cut))
                    .ok());
    util::Status status = util::Status::Ok();
    Session resumed = ResumeFresh(dir_, &status);
    ASSERT_TRUE(status.ok()) << "cut " << cut << ": " << status.message();
    ASSERT_EQ(resumed.rounds_completed(), 1) << "cut " << cut;
    const SuiteState* got = resumed.Find("dm");
    ASSERT_NE(got, nullptr);
    // Spot-check cheaply per cut; the full state comparison above
    // already pinned one recovery end-to-end.
    ASSERT_EQ(got->coverage.Count(), want.coverage.Count()) << "cut " << cut;
    ASSERT_EQ(got->corpus.size(), want.corpus.size()) << "cut " << cut;
    ASSERT_EQ(got->programs_executed, want.programs_executed)
        << "cut " << cut;
  }
}

TEST_F(TornTailTest, DamageToACommittedRecordIsAStatusError)
{
  SetUpDir("committed-damage");
  // Commit round 2 (both records now committed), then flip one byte per
  // record: the loss reaches committed state, so Resume must refuse with
  // a Status — and leave the session untouched — rather than resume a
  // silently diverged session.
  const std::string journal = CommitBothRounds();
  JournalScan scan;
  ASSERT_TRUE(ScanJournal(journal, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);

  const size_t record_begin = scan.header_end;
  const size_t record_mid = (record_begin + journal.size()) / 2;
  for (size_t at : {record_begin, record_mid, journal.size() - 2}) {
    std::string corrupt = journal;
    corrupt[at] ^= 0x01;
    ExpectResumeRefused(corrupt, "flip at " + std::to_string(at));
  }
}

TEST_F(TornTailTest, CraftedCommittedRecordsAreAStatusError)
{
  SetUpDir("committed-crafted");
  const std::string journal = CommitBothRounds();
  JournalScan scan;
  ASSERT_TRUE(ScanJournal(journal, &scan).ok());
  ASSERT_EQ(scan.records.size(), 1u);
  const std::string header = journal.substr(0, scan.header_end);

  // The committed record replaced by one whose framed length wraps.
  ExpectResumeRefused(
      header + Varint(18446744073709551582ull) + std::string(4, '\0'),
      "wrapping length");

  // The committed record re-framed with a CRC-valid INT_MAX increment for
  // a title the base already counts: the sum would overflow the int.
  SuiteDelta delta;
  ASSERT_TRUE(ParseDelta(scan.records[0].first, *lib_, &delta).ok());
  const std::map<std::string, int>& base = reference_->Find("dm")->crashes;
  ASSERT_FALSE(base.empty());
  delta.crash_increments[base.begin()->first] = INT_MAX;
  ExpectResumeRefused(header + FrameJournalRecord(SerializeDelta(delta, *lib_)),
                      "INT_MAX increment");
}

// -- Directory hygiene -------------------------------------------------------

TEST_F(SnapshotTest, SaveIntoAReusedDirectoryPrunesOrphanedSuiteFiles)
{
  const std::string dir = ScratchDir("reused");
  {
    Session two = MakeSession(SmallSession());
    ASSERT_TRUE(two.RegisterSuite("dm", lib_).ok());
    ASSERT_TRUE(two.RegisterSuite("dm-b", lib_).ok());
    ASSERT_TRUE(two.RunRound().ok());
    ASSERT_TRUE(two.Save(dir).ok());
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/suite_1.snap"));
  // A stray tmp file from a crashed atomic writer.
  ASSERT_TRUE(
      util::AppendFileDurable(dir + "/suite_0.snap.tmp", "garbage").ok());

  Session one = MakeSession(SmallSession());
  ASSERT_TRUE(one.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(one.RunRound().ok());
  ASSERT_TRUE(one.Save(dir).ok());

  EXPECT_FALSE(std::filesystem::exists(dir + "/suite_1.snap"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/suite_1.journal"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/suite_0.snap.tmp"));

  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir, &status);
  ASSERT_TRUE(status.ok()) << status.message();
  ExpectSameState(*resumed.Find("dm"), *one.Find("dm"), "pruned");
}

TEST_F(SnapshotTest, JournallessDirectoriesStillResume)
{
  // A directory written before the journal existed (or whose journal was
  // deleted) has a base that already covers the committed round: Resume
  // accepts it and lays down a fresh journal for future appends.
  const std::string dir = ScratchDir("journalless");
  Session session = MakeSession(SmallSession());
  ASSERT_TRUE(session.RegisterSuite("dm", lib_).ok());
  ASSERT_TRUE(session.RunRound().ok());
  ASSERT_TRUE(session.Save(dir).ok());
  std::filesystem::remove(dir + "/suite_0.journal");

  util::Status status = util::Status::Ok();
  Session resumed = ResumeFresh(dir, &status);
  ASSERT_TRUE(status.ok()) << status.message();
  ExpectSameState(*resumed.Find("dm"), *session.Find("dm"), "journalless");

  JournalScan scan;
  ASSERT_TRUE(ScanJournal(MustRead(dir + "/suite_0.journal"), &scan).ok());
  EXPECT_EQ(scan.header.base_rounds, 1);
  EXPECT_EQ(scan.records.size(), 0u);
}

}  // namespace
}  // namespace kernelgpt::fuzzer
