/// \file
/// Durable session state — the versioned KGPB binary serialization of
/// everything a long-running campaign-of-campaigns service must carry
/// across process runs: distilled Prog corpora, minimized crash
/// reproducers, cumulative coverage, crash tallies, and per-round trend
/// records. The encoding is deterministic (maps serialize in key order,
/// doubles as raw bit patterns), so serialize -> parse -> serialize is a
/// byte-for-byte fixpoint. DumpSuite renders the same state as text for
/// humans and test diagnostics; nothing parses that rendering.
///
/// Programs are stored call-by-call against their suite's SpecLibrary:
/// each call names its syscall by syzlang full name (the same rendering
/// the syzlang printer uses for declarations) through an interned name
/// table, and is re-resolved by name on load, so a snapshot survives
/// syscall reordering between builds as long as the suite still defines
/// every referenced call. A per-suite fingerprint — a stable hash over the
/// printer's rendering of every syscall declaration — rejects resuming
/// against a suite whose specs drifted.
///
/// Every parse path reports malformed input as a util::Status (never a
/// crash or abort): snapshots are user-supplied files.
///
/// Crash safety (PR 6): full-file snapshot writes go through
/// util::AtomicWriteFile (write-tmp, fsync, rename), so a crash at any
/// instant leaves either the old or the new file, never a torn one. On
/// top of the base snapshot sits a per-suite append-only journal
/// (`suite_<i>.journal`): each round's *delta* (new coverage blocks,
/// crash-count increments, new reproducers, the corpus diff, the trend
/// record) is a KGPB payload framed as a length-prefixed CRC32-checksummed
/// record and appended with fsync, so saving round k costs O(round-k
/// delta) instead of O(whole corpus). The session manifest is the commit
/// point: records are durable before the manifest names their round, so a
/// torn or uncommitted journal tail is recovered by truncating back to the
/// last record the manifest committed. Every file is KGPB: the manifest
/// and the journal header are one checksummed section each, and every
/// journal record is framed like a suite-file section.

#ifndef KERNELGPT_FUZZER_SNAPSHOT_H_
#define KERNELGPT_FUZZER_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fuzzer/orchestrator.h"
#include "fuzzer/prog.h"
#include "util/status.h"

namespace kernelgpt::fuzzer {

/// Bump when any on-disk encoding changes incompatibly. Parsers reject any
/// other version with a Status error naming both versions. v2 added the
/// round record's differential-divergence counter; v3 made journal records
/// KGPB payloads and dropped the text codec; v4 made the manifest, the
/// journal header and the record frames KGPB.
inline constexpr int kSnapshotVersion = 4;

/// One round's trend record — the durable round-over-round report a
/// session emits. Everything except `epochs` round-trips through
/// snapshots (the sync schedule is observability detail, kept in-memory
/// only).
struct RoundReport {
  int round = 0;       ///< Absolute round index within the session.
  uint64_t seed = 0;   ///< The round's campaign master seed.
  size_t programs_executed = 0;
  size_t round_coverage = 0;        ///< This round's own union coverage.
  size_t round_unique_crashes = 0;  ///< This round's own unique titles.
  size_t coverage_delta = 0;  ///< New blocks added to the cumulative union.
  size_t cumulative_coverage = 0;
  size_t cumulative_unique_crashes = 0;
  size_t merged_corpus = 0;     ///< Merged corpus size after the round.
  size_t distilled_corpus = 0;  ///< After distillation (== merged when off).
  /// Unique divergence signatures this round's differential pass found
  /// (0 with the diff oracle off). Round-scoped, not cumulative: a
  /// resumed session carries no cross-round divergence state, so a
  /// running total would break resume bit-identity.
  size_t divergences = 0;
  double wall_seconds = 0;
  std::vector<EpochStats> epochs;  ///< Sync schedule; not persisted.
};

/// One suite's durable state — what Session::Save writes per suite.
struct SuiteSnapshot {
  std::string name;
  uint64_t fingerprint = 0;  ///< SuiteFingerprint() of the suite's library.
  size_t programs_executed = 0;
  double wall_seconds = 0;
  std::vector<uint64_t> coverage;  ///< Covered block ids, sorted ascending.
  std::map<std::string, int> crashes;  ///< Title -> occurrence count.
  std::vector<Prog> corpus;            ///< Current (distilled) seed corpus.
  std::map<std::string, Prog> crash_reproducers;
  std::vector<RoundReport> rounds;  ///< Trend records, oldest first.
};

/// The session-level half of a snapshot: the scheduling state a resumed
/// session needs to continue the exact RNG-deterministic round schedule,
/// plus the suite roster it must be re-registered with.
struct SessionManifest {
  uint64_t seed = 0;
  std::string schedule;  ///< "hash-chain" or "arithmetic".
  uint64_t seed_stride = 0;
  bool carry_corpus = true;
  bool distill = true;
  int rounds_completed = 0;
  int stale_rounds = 0;  ///< Plateau-rule state (consecutive stale rounds).
  /// (fingerprint, name) per suite, in registration order.
  std::vector<std::pair<uint64_t, std::string>> suites;
};

/// Stable hash over the syzlang printer's rendering of every syscall
/// declaration of `lib`, in library order. Two libraries fingerprint
/// equal iff they expose the same syscall surface in the same order —
/// the precondition for a snapshot's programs to replay identically.
uint64_t SuiteFingerprint(const SpecLibrary& lib);

// -- KGPB files ---------------------------------------------------------------
// Every file opens with the same header, checked by one reader:
//
//   magic "KGPB"            4 bytes
//   version                 varint (kSnapshotVersion)
//
// A suite file then holds
//
//   sections                in fixed order: meta (name, fingerprint,
//                           counters, interned call-name table), coverage
//                           (delta-encoded sorted ids), crashes, corpus,
//                           repros, rounds
//
// Every section is framed `varint payload_len | payload | u32le CRC32`,
// reusing util::Crc32 — truncation at any byte and bit corruption both
// surface as a Status, never a crash. All integers are LEB128 varints
// (zigzag for the signed round, ref_call and len_of_param; crash counts
// are unsigned and at most INT_MAX), doubles are raw little-endian bit
// patterns (bit-exact, so serialize -> parse -> serialize is a byte
// fixpoint), and program calls reference the meta section's string table
// by index while still resolving BY NAME against the suite library on
// load.

/// The on-disk codecs. KGPB is the only one; the enum and
/// SessionOptions::WithSnapshotCodec stay because pipebench names both.
enum class SnapshotCodec {
  kBinary,  ///< KGPB varint sections.
};

/// Renders one suite's durable state in the KGPB format.
std::string SerializeSuite(const SuiteSnapshot& suite, const SpecLibrary& lib);

/// Parses a SerializeSuite rendering. Truncation, checksum damage,
/// version mismatches, out-of-range counts and unknown syscall names all
/// yield an error Status — snapshots are user-supplied files.
util::Status ParseSuite(std::string_view data, const SpecLibrary& lib,
                        SuiteSnapshot* out);

/// Renders one suite's state as line-oriented text (hex block ids, one
/// line per call and argument, hexfloat doubles) for humans and test
/// diagnostics. Nothing parses it back.
std::string DumpSuite(const SuiteSnapshot& suite, const SpecLibrary& lib);

/// Renders the session manifest: the KGPB header, then one section
/// holding every field in declaration order (strings length-prefixed, so
/// a suite name may hold any bytes).
std::string SerializeManifest(const SessionManifest& manifest);

/// Parses a SerializeManifest rendering. Truncation, checksum damage,
/// trailing bytes, out-of-range fields and another version (including
/// the text manifest written before v4) are all an error Status; so is a
/// suite file (more than one section) or a journal (more sections, or a
/// binding section too short for the manifest's fields).
util::Status ParseManifest(std::string_view data, SessionManifest* out);

// -- Incremental journal -----------------------------------------------------

/// One round's durable delta for one suite — what Session::Save appends
/// to the suite's journal instead of re-serializing the whole suite.
struct SuiteDelta {
  /// The round's trend record; `report.round` doubles as the record's
  /// position in the schedule (replay applies records in round order).
  RoundReport report;
  /// Blocks first covered this round, ascending — disjoint across
  /// rounds, so the sum over all deltas is the cumulative coverage.
  std::vector<uint64_t> new_coverage;
  /// Per-title occurrence increments contributed by this round.
  std::map<std::string, int> crash_increments;
  /// Reproducers whose title is new or whose program changed this round.
  std::map<std::string, Prog> new_reproducers;

  /// True when this round's corpus is sequence-identical to the previous
  /// round's — the steady state once distillation converges; the record
  /// then carries a single 0 tag and no programs.
  bool corpus_unchanged = false;
  /// When the corpus did change: the new corpus in order, each entry
  /// either a reference into the previous round's corpus (kept_index >=
  /// 0) or an inline program (kept_index < 0).
  struct CorpusEntry {
    int kept_index = -1;
    Prog prog;
  };
  std::vector<CorpusEntry> corpus;
};

/// Renders one delta as a flat KGPB payload, in order: the round record;
/// the new coverage as delta varints; the crash increments as (title,
/// varint) pairs; the record's own interned call-name table; the new
/// reproducers as (title, program) pairs; the corpus — varint 0 when
/// unchanged, else n+1 and n entries, each 0 plus an inline program or
/// k+1 for kept index k. The journal's record frame carries the CRC.
std::string SerializeDelta(const SuiteDelta& delta, const SpecLibrary& lib);

/// Parses a SerializeDelta payload; same error contract as ParseSuite. A
/// negative round and bytes after the corpus are damage too.
util::Status ParseDelta(std::string_view data, const SpecLibrary& lib,
                        SuiteDelta* out);

/// The journal file's header: which suite state it extends and how many
/// rounds the base snapshot already folds in (records for earlier rounds
/// are skipped on replay — they survive a crash mid-compaction).
struct JournalHeader {
  uint64_t fingerprint = 0;
  std::string suite_name;
  int base_rounds = 0;
};

/// Renders the journal header: the KGPB header, then one section binding
/// the file to its suite (fingerprint, name, base_rounds).
std::string SerializeJournalHeader(const JournalHeader& header);

/// Frames one record for appending, exactly like a suite-file section:
/// varint payload length, the payload verbatim, u32le CRC32 of the
/// payload.
std::string FrameJournalRecord(std::string_view payload);

/// Result of scanning a journal file: the header, every complete
/// checksum-valid record in order (with the byte offset just past it),
/// and — when scanning stopped before EOF — why. A torn or corrupt tail
/// is NOT a Status error: callers decide whether the lost records were
/// committed (error) or not (recover by truncating to `records.back()`).
struct JournalScan {
  JournalHeader header;
  size_t header_end = 0;  ///< Offset just past the header section.
  /// (payload, end offset) per valid record, in file order.
  std::vector<std::pair<std::string, size_t>> records;
  std::string tail_error;  ///< Empty on a clean EOF.
};

/// Parses a journal file. Only header problems (not a journal, version
/// mismatch, a damaged binding section) are Status errors; record-level
/// damage (a truncated frame header, a torn payload, a checksum
/// mismatch) ends the scan and is reported via `out->tail_error`.
util::Status ScanJournal(std::string_view data, JournalScan* out);

// -- File helpers ------------------------------------------------------------

/// Reads a whole file; missing or unreadable files become an error Status.
util::Status ReadFileToString(const std::string& path, std::string* out);

/// Atomically replaces `path` with `content` (write `<path>.tmp`, fsync,
/// rename — a crash leaves either the old or the new file, never a torn
/// one). Thin wrapper over util::AtomicWriteFile.
util::Status WriteStringToFile(const std::string& path,
                               const std::string& content);

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_SNAPSHOT_H_
