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
/// Crash safety: Session::Save renders the whole session into one file
/// (SerializeManifest, then AppendSuite per suite) and replaces it with
/// util::AtomicWriteFile (write-tmp, fsync, rename). The rename is the
/// only commit point, so a crash at any instant leaves either the old or
/// the new file, never a torn one.

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
/// journal header and the record frames KGPB; v5 writes the whole session
/// into one file and drops the journal.
inline constexpr int kSnapshotVersion = 5;

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
  /// (fingerprint, name) per suite, in registration order. The manifest
  /// section stores only their count: each pair is stored once, in its
  /// suite's meta section, and ParseSession reads it from there.
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
// A suite file then holds one suite's six sections, in fixed order: meta
// (name, fingerprint, counters, interned call-name table), coverage
// (delta-encoded sorted ids), crashes, corpus, repros, rounds. A session
// file holds the manifest section, then each suite's six sections.
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

/// Renders one suite's durable state as a suite file: the KGPB header,
/// then AppendSuite's sections.
std::string SerializeSuite(const SuiteSnapshot& suite, const SpecLibrary& lib);

/// Appends one suite's six sections to `*out`.
void AppendSuite(const SuiteSnapshot& suite, const SpecLibrary& lib,
                 std::string* out);

/// One suite's six section payloads, unframed and checksum-verified but
/// not yet decoded. They view the parsed bytes, which must outlive them.
struct SuiteSections {
  std::string_view meta, coverage, crashes, corpus, repros, rounds;
};

/// Parses a SerializeSuite rendering. Truncation, checksum damage,
/// version mismatches, out-of-range counts and unknown syscall names all
/// yield an error Status — snapshots are user-supplied files.
util::Status ParseSuite(std::string_view data, const SpecLibrary& lib,
                        SuiteSnapshot* out);

/// Decodes one suite's sections (as ParseSession yields them) against
/// `lib`; same error contract as the file overload.
util::Status ParseSuite(const SuiteSections& sections, const SpecLibrary& lib,
                        SuiteSnapshot* out);

/// Renders one suite's state as line-oriented text (hex block ids, one
/// line per call and argument, hexfloat doubles) for humans and test
/// diagnostics. Nothing parses it back.
std::string DumpSuite(const SuiteSnapshot& suite, const SpecLibrary& lib);

/// Renders the head of a session file: the KGPB header, then one section
/// holding every scalar field in declaration order and the suite count.
/// The file continues with one AppendSuite per manifest suite, in order.
std::string SerializeManifest(const SessionManifest& manifest);

/// Parses a session file: the header, the manifest section and every
/// suite's section frames. Truncation, checksum damage, trailing bytes,
/// out-of-range fields and another version (including the text manifest
/// written before v4) are all an error Status. Fills `manifest->suites`
/// from each suite's meta section and yields each suite's sections for
/// ParseSuite. It needs no library, so a caller can refuse a drifted
/// suite by its fingerprint before resolving any of its call names.
util::Status ParseSession(std::string_view data, SessionManifest* manifest,
                          std::vector<SuiteSections>* suites);

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_SNAPSHOT_H_
