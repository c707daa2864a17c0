#include "fuzzer/snapshot.h"

#include <charconv>
#include <climits>
#include <cstring>
#include <unordered_map>

#include "syzlang/printer.h"
#include "util/fileio.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kernelgpt::fuzzer {
namespace {

/// A call's syzlang full name; "#<index>" for an index past the library,
/// which no library resolves, so parsing such a program fails by name.
std::string
CallName(const Call& call, const SpecLibrary& lib)
{
  return call.syscall_index < lib.syscalls().size()
             ? lib.syscalls()[call.syscall_index].FullName()
             : util::Format("#%zu", call.syscall_index);
}

// -- Text dump ---------------------------------------------------------------
// DumpSuite's rendering, for humans and diagnostics only:
// prog <ncalls>
// c <nargs> <syscall full name>
// a <kind> <scalar hex> <dir> <ref_call> <len_of_param> <bytes hex | ->

void
AppendProg(const Prog& prog, const SpecLibrary& lib, std::string* out)
{
  *out += util::Format("prog %zu\n", prog.calls.size());
  for (const Call& call : prog.calls) {
    *out += util::Format("c %zu %s\n", call.args.size(),
                         CallName(call, lib).c_str());
    for (const Arg& arg : call.args) {
      *out += util::Format(
          "a %d %llx %d %d %d ", static_cast<int>(arg.kind),
          static_cast<unsigned long long>(arg.scalar),
          static_cast<int>(arg.dir), arg.ref_call, arg.len_of_param);
      if (arg.bytes.empty()) {
        *out += "-";
      } else {
        static constexpr char kHex[] = "0123456789abcdef";
        for (uint8_t b : arg.bytes) {
          *out += kHex[b >> 4];
          *out += kHex[b & 0xf];
        }
      }
      *out += "\n";
    }
  }
}

void
AppendRoundLine(const RoundReport& r, std::string* out)
{
  *out += util::Format(
      "round %d %llx %zu %zu %zu %zu %zu %zu %zu %zu %zu %a\n", r.round,
      static_cast<unsigned long long>(r.seed), r.programs_executed,
      r.round_coverage, r.round_unique_crashes, r.coverage_delta,
      r.cumulative_coverage, r.cumulative_unique_crashes, r.merged_corpus,
      r.distilled_corpus, r.divergences, r.wall_seconds);
}

void
AppendBlockIds(const std::vector<uint64_t>& ids, std::string* out)
{
  for (size_t i = 0; i < ids.size(); ++i) {
    *out += util::Format("%llx", static_cast<unsigned long long>(ids[i]));
    *out += (i % 8 == 7 || i + 1 == ids.size()) ? "\n" : " ";
  }
}

// -- KGPB primitives ---------------------------------------------------------

constexpr std::string_view kBinaryMagic = "KGPB";

void
PutVarint(uint64_t v, std::string* out)
{
  while (v >= 0x80) {
    *out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out += static_cast<char>(v);
}

uint64_t
ZigZag(int64_t v)
{
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t
UnZigZag(uint64_t v)
{
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void
PutString(std::string_view s, std::string* out)
{
  PutVarint(s.size(), out);
  out->append(s.data(), s.size());
}

void
PutF64(double v, std::string* out)
{
  // Raw bit pattern, not decimal text: bit-exact round-trips are what
  // make serialize -> parse -> serialize a byte fixpoint.
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    *out += static_cast<char>((bits >> (8 * i)) & 0xff);
  }
}

/// Bounds-checked reader over one payload. Every getter returns false once
/// the payload is exhausted or malformed; the caller converts that into a
/// Status naming the field.
struct ByteReader {
  const uint8_t* p;
  const uint8_t* end;

  explicit ByteReader(std::string_view data)
      : p(reinterpret_cast<const uint8_t*>(data.data())),
        end(p + data.size()) {}

  bool AtEnd() const { return p == end; }
  size_t Remaining() const { return static_cast<size_t>(end - p); }

  bool U64(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const uint8_t byte = *p++;
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;  // > 10 continuation bytes: not a valid varint.
  }

  bool I64(int64_t* out) {
    uint64_t raw = 0;
    if (!U64(&raw)) return false;
    *out = UnZigZag(raw);
    return true;
  }

  bool Size(size_t* out) {
    // Sizes feed reserve()/resize(); every counted item costs at least one
    // byte, so cap them at the bytes actually remaining and a corrupt
    // count cannot balloon allocation.
    uint64_t v = 0;
    if (!U64(&v) || v > Remaining()) return false;
    *out = static_cast<size_t>(v);
    return true;
  }

  bool Str(std::string* out) {
    size_t n = 0;
    if (!Size(&n)) return false;
    out->assign(reinterpret_cast<const char*>(p), n);
    p += n;
    return true;
  }

  bool F64(double* out) {
    if (Remaining() < 8) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
};

/// Frames one section: varint length, payload, CRC32 of the payload.
/// The manifest and every suite section use this one frame.
void
PutSection(std::string_view payload, std::string* out)
{
  PutVarint(payload.size(), out);
  out->append(payload.data(), payload.size());
  const uint32_t crc = util::Crc32(payload);
  for (int i = 0; i < 4; ++i) {
    *out += static_cast<char>((crc >> (8 * i)) & 0xff);
  }
}

/// Unframes the next section of `data` starting at `*pos`. On success
/// advances `*pos` past the trailer and yields the payload view; on
/// failure leaves `*pos` alone and says why in `*err`.
bool
NextSection(std::string_view data, size_t* pos, std::string_view* payload,
            std::string* err)
{
  ByteReader head(data.substr(*pos));
  uint64_t len = 0;
  if (!head.U64(&len)) {
    *err = "truncated frame header";
    return false;
  }
  const size_t at = data.size() - head.Remaining();
  // Compared against the bytes left, never as `at + len`: a crafted
  // length near 2^64 would wrap that sum back into the file.
  if (len > head.Remaining() || head.Remaining() - len < 4) {
    *err = util::Format("torn payload (%llu bytes framed, %zu on disk)",
                        static_cast<unsigned long long>(len),
                        head.Remaining());
    return false;
  }
  *payload = data.substr(at, len);
  uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<uint32_t>(
               static_cast<uint8_t>(data[at + len + i]))
           << (8 * i);
  }
  if (util::Crc32(*payload) != crc) {
    *err = "checksum mismatch";
    return false;
  }
  *pos = at + len + 4;
  return true;
}

/// The header every KGPB file opens with: the magic, then the version.
std::string
FileHeader()
{
  std::string out(kBinaryMagic);
  PutVarint(static_cast<uint64_t>(kSnapshotVersion), &out);
  return out;
}

std::string
VersionMismatch(uint64_t version)
{
  return util::Format("version mismatch: file is v%llu, this build reads v%d",
                      static_cast<unsigned long long>(version),
                      kSnapshotVersion);
}

/// The one header check every reader shares: the magic, then the
/// version (another one is refused naming both). Leaves `*pos` past the
/// header.
bool
ReadFileHeader(std::string_view data, size_t* pos, std::string* err)
{
  if (data.substr(0, kBinaryMagic.size()) != kBinaryMagic) {
    *err = "bad magic";
    return false;
  }
  ByteReader r(data.substr(kBinaryMagic.size()));
  uint64_t version = 0;
  if (!r.U64(&version)) {
    *err = "truncated version";
    return false;
  }
  if (version != static_cast<uint64_t>(kSnapshotVersion)) {
    *err = VersionMismatch(version);
    return false;
  }
  *pos = data.size() - r.Remaining();
  return true;
}

/// Unframes one suite's six sections starting at `*pos`; on failure names
/// the section that failed in `*err`.
bool
NextSuiteSections(std::string_view data, size_t* pos, SuiteSections* out,
                  std::string* err)
{
  const std::pair<const char*, std::string_view*> sections[] = {
      {"meta", &out->meta},         {"coverage", &out->coverage},
      {"crashes", &out->crashes},   {"corpus", &out->corpus},
      {"repros", &out->repros},     {"rounds", &out->rounds},
  };
  for (const auto& [name, payload] : sections) {
    if (!NextSection(data, pos, payload, err)) {
      *err = util::Format("%s section: %s", name, err->c_str());
      return false;
    }
  }
  return true;
}

/// Interned call-name table: every distinct syscall full name the
/// programs reference, in first-use order (deterministic, so the
/// rendering is a fixpoint).
class NameTable {
 public:
  uint32_t Intern(const std::string& name) {
    auto [it, inserted] =
        index_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.push_back(name);
    return it->second;
  }

  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> index_;
};

std::unordered_map<std::string, size_t>
CallIndex(const SpecLibrary& lib)
{
  std::unordered_map<std::string, size_t> index;
  index.reserve(lib.syscalls().size());
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    // First writer wins, matching SpecLibrary::Add's dedup (names are
    // unique per finalized library anyway).
    index.emplace(lib.syscalls()[i].FullName(), i);
  }
  return index;
}

// -- KGPB field groups -------------------------------------------------------
// One put/read pair per field group of a suite's sections.

/// Sorted block ids: a count, then each id as a delta from its
/// predecessor (the first from zero), so the varints stay short.
void
PutBlockIds(const std::vector<uint64_t>& ids, std::string* out)
{
  PutVarint(ids.size(), out);
  uint64_t prev = 0;
  for (const uint64_t id : ids) {
    PutVarint(id - prev, out);
    prev = id;
  }
}

bool
ReadBlockIds(ByteReader* r, std::vector<uint64_t>* out)
{
  size_t n = 0;
  if (!r->Size(&n)) return false;
  out->reserve(n);
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    if (!r->U64(&delta)) return false;
    prev += delta;
    out->push_back(prev);
  }
  return true;
}

/// Title -> count maps (crash tallies): a count, then (title, varint)
/// pairs in key order. A count is an int in [0, INT_MAX]; a negative one
/// encodes above INT_MAX, which the reader rejects with every other
/// out-of-range value.
void
PutCrashMap(const std::map<std::string, int>& crashes, std::string* out)
{
  PutVarint(crashes.size(), out);
  for (const auto& [title, count] : crashes) {
    PutString(title, out);
    PutVarint(static_cast<uint64_t>(count), out);
  }
}

bool
ReadCrashMap(ByteReader* r, std::map<std::string, int>* out)
{
  size_t n = 0;
  if (!r->Size(&n)) return false;
  for (size_t i = 0; i < n; ++i) {
    std::string title;
    uint64_t count = 0;
    if (!r->Str(&title) || !r->U64(&count) ||
        count > static_cast<uint64_t>(INT_MAX) ||
        !out->emplace(std::move(title), static_cast<int>(count)).second) {
      return false;
    }
  }
  return true;
}

/// The interned call-name table: a count, then each name. Reading
/// resolves every name against `lib` by name, so call reordering between
/// builds is survivable; an unknown name is damage naming the call.
void
PutNameTable(const NameTable& names, std::string* out)
{
  PutVarint(names.names().size(), out);
  for (const std::string& name : names.names()) PutString(name, out);
}

bool
ReadNameTable(ByteReader* r, const SpecLibrary& lib,
              std::vector<size_t>* name_to_call, std::string* err)
{
  size_t n = 0;
  if (!r->Size(&n)) return false;
  const auto call_index = CallIndex(lib);
  name_to_call->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string name;
    if (!r->Str(&name)) return false;
    auto it = call_index.find(name);
    if (it == call_index.end()) {
      *err = util::Format("references syscall '%s' absent from this suite",
                          name.c_str());
      return false;
    }
    name_to_call->push_back(it->second);
  }
  return true;
}

/// One program: a call count, then per call its name-table index and
/// every Arg field regardless of kind, so the encoding is lossless for
/// any program the mutator can produce.
void
PutProg(const Prog& prog, const SpecLibrary& lib, NameTable* names,
        std::string* out)
{
  PutVarint(prog.calls.size(), out);
  for (const Call& call : prog.calls) {
    PutVarint(names->Intern(CallName(call, lib)), out);
    PutVarint(call.args.size(), out);
    for (const Arg& arg : call.args) {
      PutVarint(static_cast<uint64_t>(static_cast<int>(arg.kind)), out);
      PutVarint(arg.scalar, out);
      PutVarint(static_cast<uint64_t>(static_cast<int>(arg.dir)), out);
      PutVarint(ZigZag(arg.ref_call), out);
      PutVarint(ZigZag(arg.len_of_param), out);
      PutVarint(arg.bytes.size(), out);
      out->append(reinterpret_cast<const char*>(arg.bytes.data()),
                  arg.bytes.size());
    }
  }
}

bool
ReadProg(ByteReader* r, const std::vector<size_t>& name_to_call,
         Prog* out, std::string* err)
{
  size_t ncalls = 0;
  if (!r->Size(&ncalls)) {
    *err = "bad call count";
    return false;
  }
  out->calls.clear();
  out->calls.reserve(ncalls);
  for (size_t c = 0; c < ncalls; ++c) {
    uint64_t name_idx = 0;
    size_t nargs = 0;
    if (!r->U64(&name_idx) || name_idx >= name_to_call.size() ||
        !r->Size(&nargs)) {
      *err = "bad call header";
      return false;
    }
    Call call;
    call.syscall_index = name_to_call[name_idx];
    call.args.reserve(nargs);
    for (size_t a = 0; a < nargs; ++a) {
      uint64_t kind = 0, dir = 0;
      int64_t ref = 0, len = 0;
      size_t nbytes = 0;
      Arg arg;
      if (!r->U64(&kind) || kind > 2 || !r->U64(&arg.scalar) ||
          !r->U64(&dir) || dir > 2 || !r->I64(&ref) || !r->I64(&len) ||
          len < kBrokenLenLink || !r->Size(&nbytes)) {
        *err = "bad arg record";
        return false;
      }
      arg.kind = static_cast<Arg::Kind>(kind);
      arg.dir = static_cast<syzlang::Dir>(dir);
      arg.ref_call = static_cast<int>(ref);
      arg.len_of_param = static_cast<int>(len);
      arg.bytes.assign(r->p, r->p + nbytes);
      r->p += nbytes;
      call.args.push_back(std::move(arg));
    }
    out->calls.push_back(std::move(call));
  }
  return true;
}

/// Title -> reproducer maps: a count, then (title, program) pairs in key
/// order.
void
PutReproMap(const std::map<std::string, Prog>& repros, const SpecLibrary& lib,
            NameTable* names, std::string* out)
{
  PutVarint(repros.size(), out);
  for (const auto& [title, prog] : repros) {
    PutString(title, out);
    PutProg(prog, lib, names, out);
  }
}

bool
ReadReproMap(ByteReader* r, const std::vector<size_t>& name_to_call,
             std::map<std::string, Prog>* out, std::string* err)
{
  size_t n = 0;
  if (!r->Size(&n)) return false;
  for (size_t i = 0; i < n; ++i) {
    std::string title;
    Prog prog;
    if (!r->Str(&title) || !ReadProg(r, name_to_call, &prog, err) ||
        !out->emplace(std::move(title), std::move(prog)).second) {
      return false;
    }
  }
  return true;
}

/// One trend record: the round (zigzag; negative or above INT_MAX is
/// damage), the seed, nine counters and the raw wall-time bits.
void
PutRound(const RoundReport& r, std::string* out)
{
  PutVarint(ZigZag(r.round), out);
  PutVarint(r.seed, out);
  PutVarint(r.programs_executed, out);
  PutVarint(r.round_coverage, out);
  PutVarint(r.round_unique_crashes, out);
  PutVarint(r.coverage_delta, out);
  PutVarint(r.cumulative_coverage, out);
  PutVarint(r.cumulative_unique_crashes, out);
  PutVarint(r.merged_corpus, out);
  PutVarint(r.distilled_corpus, out);
  PutVarint(r.divergences, out);
  PutF64(r.wall_seconds, out);
}

bool
ReadRound(ByteReader* r, RoundReport* out)
{
  int64_t round = 0;
  uint64_t u[10] = {};
  if (!r->I64(&round) || round < 0 || round > INT_MAX || !r->U64(&u[0]) ||
      !r->U64(&u[1]) || !r->U64(&u[2]) || !r->U64(&u[3]) || !r->U64(&u[4]) ||
      !r->U64(&u[5]) || !r->U64(&u[6]) || !r->U64(&u[7]) || !r->U64(&u[8]) ||
      !r->U64(&u[9]) || !r->F64(&out->wall_seconds)) {
    return false;
  }
  out->round = static_cast<int>(round);
  out->seed = u[0];
  out->programs_executed = u[1];
  out->round_coverage = u[2];
  out->round_unique_crashes = u[3];
  out->coverage_delta = u[4];
  out->cumulative_coverage = u[5];
  out->cumulative_unique_crashes = u[6];
  out->merged_corpus = u[7];
  out->distilled_corpus = u[8];
  out->divergences = u[9];
  return true;
}

}  // namespace

uint64_t
SuiteFingerprint(const SpecLibrary& lib)
{
  // The printer's canonical declaration rendering is the identity that
  // matters for replay: two libraries printing the same syscalls in the
  // same order construct identical programs from identical snapshots.
  uint64_t h = util::HashCombine(0x6b67736e617073ULL, lib.syscalls().size());
  for (const syzlang::SyscallDef& def : lib.syscalls()) {
    const syzlang::Decl decl = syzlang::Decl::Make(def);
    h = util::HashCombine(h, util::StableHash(syzlang::PrintDecl(decl)));
  }
  return h;
}

void
AppendSuite(const SuiteSnapshot& suite, const SpecLibrary& lib,
            std::string* out)
{
  // Program sections are built first so the meta section can carry the
  // complete interned-name table (first-use order keeps it a fixpoint).
  NameTable names;
  std::string corpus;
  PutVarint(suite.corpus.size(), &corpus);
  for (const Prog& prog : suite.corpus) {
    PutProg(prog, lib, &names, &corpus);
  }

  std::string repros;
  PutReproMap(suite.crash_reproducers, lib, &names, &repros);

  std::string meta;
  PutString(suite.name, &meta);
  PutVarint(suite.fingerprint, &meta);
  PutVarint(suite.programs_executed, &meta);
  PutF64(suite.wall_seconds, &meta);
  PutNameTable(names, &meta);

  std::string coverage;
  PutBlockIds(suite.coverage, &coverage);

  std::string crashes;
  PutCrashMap(suite.crashes, &crashes);

  std::string rounds;
  PutVarint(suite.rounds.size(), &rounds);
  for (const RoundReport& r : suite.rounds) PutRound(r, &rounds);

  PutSection(meta, out);
  PutSection(coverage, out);
  PutSection(crashes, out);
  PutSection(corpus, out);
  PutSection(repros, out);
  PutSection(rounds, out);
}

std::string
SerializeSuite(const SuiteSnapshot& suite, const SpecLibrary& lib)
{
  std::string out = FileHeader();
  AppendSuite(suite, lib, &out);
  return out;
}

util::Status
ParseSuite(std::string_view data, const SpecLibrary& lib, SuiteSnapshot* out)
{
  std::string err;
  size_t pos = 0;
  SuiteSections sections;
  if (!ReadFileHeader(data, &pos, &err)) {
    return util::Status::Error("suite snapshot: header: " + err);
  }
  if (!NextSuiteSections(data, &pos, &sections, &err)) {
    return util::Status::Error("suite snapshot: " + err);
  }
  if (pos != data.size()) {
    return util::Status::Error(
        "suite snapshot: trailing bytes after last section");
  }
  return ParseSuite(sections, lib, out);
}

util::Status
ParseSuite(const SuiteSections& sections, const SpecLibrary& lib,
           SuiteSnapshot* out)
{
  *out = SuiteSnapshot{};
  std::string err;
  auto fail = [&err](const std::string& context) {
    return util::Status::Error("suite snapshot: " + context +
                               (err.empty() ? "" : ": " + err));
  };

  std::vector<size_t> name_to_call;
  {
    ByteReader r(sections.meta);
    uint64_t executed = 0;
    if (!r.Str(&out->name) || !r.U64(&out->fingerprint) ||
        !r.U64(&executed) || !r.F64(&out->wall_seconds)) {
      return fail("meta identity");
    }
    out->programs_executed = executed;
    if (!ReadNameTable(&r, lib, &name_to_call, &err) || !r.AtEnd()) {
      return fail("name table");
    }
  }

  {
    ByteReader r(sections.coverage);
    if (!ReadBlockIds(&r, &out->coverage) || !r.AtEnd()) {
      return fail("coverage ids");
    }
  }

  {
    ByteReader r(sections.crashes);
    if (!ReadCrashMap(&r, &out->crashes) || !r.AtEnd()) {
      return fail("crash counts");
    }
  }

  {
    ByteReader r(sections.corpus);
    size_t n = 0;
    if (!r.Size(&n)) return fail("corpus count");
    out->corpus.resize(n);
    for (Prog& prog : out->corpus) {
      if (!ReadProg(&r, name_to_call, &prog, &err)) {
        return fail("corpus program");
      }
    }
    if (!r.AtEnd()) return fail("corpus trailing bytes");
  }

  {
    ByteReader r(sections.repros);
    if (!ReadReproMap(&r, name_to_call, &out->crash_reproducers, &err) ||
        !r.AtEnd()) {
      return fail("reproducers");
    }
  }

  {
    ByteReader r(sections.rounds);
    size_t n = 0;
    if (!r.Size(&n)) return fail("round count");
    out->rounds.resize(n);
    for (RoundReport& report : out->rounds) {
      if (!ReadRound(&r, &report)) return fail("round record");
    }
    if (!r.AtEnd()) return fail("rounds trailing bytes");
  }
  return util::Status::Ok();
}

std::string
DumpSuite(const SuiteSnapshot& suite, const SpecLibrary& lib)
{
  std::string out =
      util::Format("kernelgpt-suite dump v%d\n", kSnapshotVersion);
  out += util::Format("name %s\n", suite.name.c_str());
  out += util::Format("fingerprint %016llx\n",
                      static_cast<unsigned long long>(suite.fingerprint));
  out += util::Format("programs_executed %zu\n", suite.programs_executed);
  out += util::Format("wall_seconds %a\n", suite.wall_seconds);

  out += util::Format("coverage %zu\n", suite.coverage.size());
  AppendBlockIds(suite.coverage, &out);

  out += util::Format("crashes %zu\n", suite.crashes.size());
  for (const auto& [title, count] : suite.crashes) {
    out += util::Format("%d %s\n", count, title.c_str());
  }

  out += util::Format("progs %zu\n", suite.corpus.size());
  for (const Prog& prog : suite.corpus) AppendProg(prog, lib, &out);

  out += util::Format("repros %zu\n", suite.crash_reproducers.size());
  for (const auto& [title, prog] : suite.crash_reproducers) {
    out += util::Format("title %s\n", title.c_str());
    AppendProg(prog, lib, &out);
  }

  out += util::Format("rounds %zu\n", suite.rounds.size());
  for (const RoundReport& r : suite.rounds) AppendRoundLine(r, &out);
  out += "end\n";
  return out;
}

std::string
SerializeManifest(const SessionManifest& manifest)
{
  std::string payload;
  PutVarint(manifest.seed, &payload);
  PutString(manifest.schedule, &payload);
  PutVarint(manifest.seed_stride, &payload);
  PutVarint(manifest.carry_corpus ? 1 : 0, &payload);
  PutVarint(manifest.distill ? 1 : 0, &payload);
  PutVarint(static_cast<uint64_t>(manifest.rounds_completed), &payload);
  PutVarint(static_cast<uint64_t>(manifest.stale_rounds), &payload);
  PutVarint(manifest.suites.size(), &payload);
  std::string out = FileHeader();
  PutSection(payload, &out);
  return out;
}

util::Status
ParseSession(std::string_view data, SessionManifest* manifest,
             std::vector<SuiteSections>* suites)
{
  *manifest = SessionManifest{};
  suites->clear();
  std::string err;
  auto fail = [&err](const std::string& context) {
    return util::Status::Error("session file: " + context +
                               (err.empty() ? "" : ": " + err));
  };

  // Before v4 the manifest was text; such a directory is refused by
  // version like every other file.
  constexpr std::string_view kTextHeader = "kernelgpt-session v";
  if (util::StartsWith(data, kTextHeader)) {
    const std::string_view digits = data.substr(kTextHeader.size());
    uint64_t version = 0;
    const auto parsed = std::from_chars(
        digits.data(), digits.data() + digits.size(), version);
    if (parsed.ec == std::errc()) {
      err = VersionMismatch(version);
      return fail("header");
    }
  }

  size_t pos = 0;
  std::string_view payload;
  if (!ReadFileHeader(data, &pos, &err)) return fail("header");
  if (!NextSection(data, &pos, &payload, &err)) return fail("manifest");

  ByteReader r(payload);
  uint64_t carry = 0, distill = 0, rounds = 0, stale = 0, suite_count = 0;
  if (!r.U64(&manifest->seed) || !r.Str(&manifest->schedule) ||
      !r.U64(&manifest->seed_stride) || !r.U64(&carry) || !r.U64(&distill) ||
      !r.U64(&rounds) || !r.U64(&stale) || !r.U64(&suite_count)) {
    return fail("truncated manifest fields");
  }
  if (!r.AtEnd()) return fail("trailing bytes after the manifest fields");
  if (manifest->schedule != "hash-chain" &&
      manifest->schedule != "arithmetic") {
    return fail("unknown schedule '" + manifest->schedule + "'");
  }
  if (carry > 1 || distill > 1) return fail("corpus flags out of range");
  if (rounds > INT_MAX || stale > INT_MAX) {
    return fail("round counters above INT_MAX");
  }
  manifest->carry_corpus = carry == 1;
  manifest->distill = distill == 1;
  manifest->rounds_completed = static_cast<int>(rounds);
  manifest->stale_rounds = static_cast<int>(stale);

  // Suites are appended as they unframe, never sized from the count up
  // front: a damaged count runs out of sections, not out of memory.
  for (uint64_t i = 0; i < suite_count; ++i) {
    SuiteSections sections;
    if (!NextSuiteSections(data, &pos, &sections, &err)) {
      return fail(util::Format("suite %llu",
                               static_cast<unsigned long long>(i)));
    }
    ByteReader meta(sections.meta);
    uint64_t fingerprint = 0;
    std::string name;
    if (!meta.Str(&name) || !meta.U64(&fingerprint)) {
      return fail(util::Format("suite %llu identity",
                               static_cast<unsigned long long>(i)));
    }
    manifest->suites.emplace_back(fingerprint, std::move(name));
    suites->push_back(sections);
  }
  if (pos != data.size()) return fail("trailing bytes after the last suite");
  return util::Status::Ok();
}

}  // namespace kernelgpt::fuzzer
