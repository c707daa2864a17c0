// Tests for the hot-path execution engine: a pinned hash of a program
// stream's outcomes under both personalities (every opcode, including
// each descriptor-taking call on a bad fd), ENOSYS for a base name with
// no opcode, dense-coverage equivalence with set semantics, zero-copy
// buffer behaviour, and RunBatch parity with individual runs. The
// per-program reset is checked against a freshly booted kernel in
// boot_image_test; the one-worker campaign outcome is pinned in
// orchestrator_test. The generator's and mutator's output over a spec
// with every type shape is pinned here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "experiments/context.h"
#include "fuzzer/executor.h"
#include "fuzzer/generator.h"
#include "fuzzer/mutator.h"
#include "syzlang/parser.h"
#include "util/rng.h"
#include "vkernel/coverage.h"
#include "vkernel/kernel.h"

namespace kernelgpt::fuzzer {
namespace {

using experiments::ExperimentContext;

class HotPathTest : public ::testing::Test {
 protected:
  static const ExperimentContext& Context() {
    return ExperimentContext::Default();
  }

  static SpecLibrary SuiteLibrary() {
    return Context().SyzkallerPlusKernelGptSuite();
  }

  static void Boot(vkernel::KernelModel* kernel) { Context().BootKernel(kernel); }

  /// The suite plus one variant of each base call it declares none of,
  /// so the pinned stream dispatches every opcode.
  static SpecLibrary PinLibrary() {
    SpecLibrary lib = SuiteLibrary();
    syzlang::ParseResult base = syzlang::Parse(
        "open$dm(file ptr[in, string[\"/dev/mapper/control\"]], "
        "flags const[2]) fd_dm\n"
        "close$dm(fd fd_dm)\n"
        "dup$dm(fd fd_dm) fd_dm\n"
        "read$dm(fd fd_dm, buf ptr[out, array[int8]], len len[buf])\n"
        "write$dm(fd fd_dm, buf ptr[in, array[int8]], len len[buf])\n"
        "poll$dm(fd fd_dm)\n"
        "mmap$dm(fd fd_dm, len int64)\n"
        "sendmsg$tcp(fd sock_tcp)\n"
        "recvmsg$tcp(fd sock_tcp, buf ptr[out, array[int8]])\n",
        "hotpath");
    EXPECT_TRUE(base.ok());
    lib.Add(base.spec);
    lib.Finalize();
    return lib;
  }

  /// Deterministic program stream covering every syscall: first one
  /// program per syscall index, then a generated mix, then two bad-fd
  /// programs per call whose first argument is a descriptor — one on a
  /// descriptor no call produced, one that closes the producer's fd
  /// before the call.
  static std::vector<Prog> PinPrograms(const SpecLibrary& lib) {
    util::Rng rng(2024);
    Generator generator(&lib, &rng);
    std::vector<Prog> progs;
    for (size_t i = 0; i < lib.syscalls().size(); ++i) {
      Prog prog;
      generator.AppendCall(&prog, i);
      if (!prog.empty()) progs.push_back(std::move(prog));
    }
    for (int i = 0; i < 200; ++i) {
      Prog prog = generator.Generate(6);
      if (!prog.empty()) progs.push_back(std::move(prog));
    }

    size_t close_index = lib.syscalls().size();
    for (size_t i = 0; i < lib.syscalls().size(); ++i) {
      if (lib.OpcodeOf(i) == SyscallOp::kClose) close_index = i;
    }
    EXPECT_LT(close_index, lib.syscalls().size());
    for (size_t i = 0; i < lib.syscalls().size(); ++i) {
      Prog prog;
      const size_t at = static_cast<size_t>(generator.AppendCall(&prog, i));
      const Call& call = prog.calls[at];
      if (call.args.empty() || call.args[0].kind != Arg::Kind::kResourceRef) {
        continue;
      }
      Prog never_valid;
      never_valid.calls.push_back(call);
      for (Arg& arg : never_valid.calls[0].args) arg.ref_call = -1;
      progs.push_back(std::move(never_valid));

      if (call.args[0].ref_call < 0) continue;
      Call close;
      close.syscall_index = close_index;
      close.args.push_back(call.args[0]);
      prog.calls.insert(prog.calls.begin() + static_cast<long>(at),
                        std::move(close));
      progs.push_back(std::move(prog));
    }
    return progs;
  }
};

// ---------------------------------------------------------------------------
// Opcode dispatch
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, EverySuiteSyscallResolvesToAnOpcode)
{
  SpecLibrary lib = SuiteLibrary();
  ASSERT_FALSE(lib.syscalls().empty());
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    EXPECT_NE(lib.OpcodeOf(i), SyscallOp::kUnknown)
        << "unhandled syscall name: " << lib.syscalls()[i].name;
  }
}

// The program stream's outcomes on a booted strict kernel, then a
// booted permissive one, hash to a recorded constant: every per-call
// (retval, errno), end fd shape, module state, crash title, call count
// and new-block count, plus each kernel's accumulated coverage. The
// constant was recorded while the string-comparison dispatch chain still
// existed and matched the opcode switch call for call on this stream.
TEST_F(HotPathTest, ExecutionOutcomeIsPinned)
{
  SpecLibrary lib = PinLibrary();
  const std::vector<Prog> progs = PinPrograms(lib);
  std::set<SyscallOp> ops;
  for (size_t i = 0; i < lib.syscalls().size(); ++i) ops.insert(lib.OpcodeOf(i));
  EXPECT_EQ(ops.size(), 19u);  // Every opcode; none is kUnknown.
  EXPECT_EQ(ops.count(SyscallOp::kUnknown), 0u);

  uint64_t h = 0;
  for (const vkernel::KernelPolicy& policy :
       {vkernel::KernelPolicy::Strict(), vkernel::KernelPolicy::Permissive()}) {
    vkernel::Kernel kernel(policy);
    Boot(&kernel);
    Executor exec(&kernel, &lib);
    vkernel::Coverage cov;
    for (const Prog& prog : progs) {
      ExecTrace trace;
      ExecResult r = exec.Run(prog, &cov, &trace);
      for (const vkernel::SyscallResult& rc : trace.results) {
        h = util::HashCombine(h, static_cast<uint64_t>(rc.retval));
        h = util::HashCombine(h, static_cast<uint64_t>(rc.verrno));
      }
      h = util::HashCombine(h, trace.end_shape.files_open);
      h = util::HashCombine(h, trace.end_shape.sockets_open);
      h = util::HashCombine(h, util::StableHash(trace.module_state));
      h = util::HashCombine(h, util::StableHash(r.crash_title));
      h = util::HashCombine(h, r.calls_executed);
      h = util::HashCombine(h, r.new_blocks);
    }
    for (uint64_t id : cov.SortedBlocks()) h = util::HashCombine(h, id);
  }
  EXPECT_EQ(progs.size(), 2616u);
  EXPECT_EQ(h, 18153226469534837243ULL);
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

// Every type shape the corpus suites lack, in one spec: unions with a
// scalar, fixed-array, struct, void and variable-array arm; variable and
// fixed arrays of structs; len/bytesize of an array, a string, a struct,
// `parent`, a scalar and a missing field; duplicate field names; fields
// truncated to their declared size; an undefined struct; flags with no
// values and with unresolved values; ranges; literal and random strings;
// filename; in, out and inout pointers; and a resource that shares its
// name with a struct.
constexpr char kEveryShapeSpec[] = R"(
resource fd_pin[fd]
resource pin_node[fd]
define PIN_BIG 256
pin_flags = 0x1, 0x4, PIN_BIG, PIN_UNRESOLVED

pin_leaf {
	a int8
	b int16[2:9]
	c const[PIN_BIG, int16]
}

pin_node {
	x int32
	y flags[pin_flags, int8]
	z intptr
}

pin_union [
	s int32
	f array[int8, 6]
	t pin_leaf
	e array[int16]
]

pin_odd_union [
	v void
	w array[int8]
	n pin_node
]

pin_var {
	a int8
	tail array[int16]
}

pin_void {
	v void
	b int16
}

pin_lens {
	n_arr len[arr, int8]
	n_str len[str, int16]
	n_leaf len[leaf, int32]
	n_self len[parent, int16]
	n_scalar len[k, int8]
	n_missing len[nosuch, int8]
	b_arr bytesize[arr, int32]
	b_str bytesize[str, int64]
	b_self bytesize[parent, int8]
	k int32
	arr array[pin_leaf]
	str string
	leaf pin_leaf
	lit string["lit"]
	fname filename
	nv flags[pin_no_flags, int16]
	fl flags[pin_flags, int64]
	r int64[100:200]
	ip intptr
	p ptr[in, int32]
	u pin_union
	rf fd_pin
	nd pin_node
	ghost pin_ghost
}

pin_dups {
	n len[d, int8]
	bs bytesize[d, int16]
	nv len[v, int8]
	nt len[t, int8]
	d array[int8]
	d string
	d array[int32, 2]
	v pin_var
	t array[pin_var, 2]
	w pin_void
	fa array[pin_leaf, 2]
	o pin_odd_union
	d int8
}

openat$pin(dir const[0], path ptr[in, string["/dev/pin"]], flags flags[pin_flags]) fd_pin
ioctl$pin_node(fd fd_pin, cmd const[1], arg ptr[in, pin_node]) pin_node
ioctl$pin_lens(fd fd_pin, cmd const[2], arg ptr[inout, pin_lens])
ioctl$pin_out(fd fd_pin, cmd const[3], arg ptr[out, pin_lens])
ioctl$pin_out_var(fd fd_pin, cmd const[4], arg ptr[out, array[int8]])
ioctl$pin_union(fd fd_pin, cmd const[5], arg ptr[in, pin_union], odd ptr[in, pin_odd_union])
ioctl$pin_dups(fd fd_pin, cmd const[6], arg ptr[inout, pin_dups], node pin_node)
write$pin(fd fd_pin, buf ptr[in, array[pin_leaf]], len len[buf, int64], bs bytesize[buf], l len[nothing])
ioctl$pin_misc(fd fd, cmd const[PIN_BIG], name filename, s ptr[in, string], g ptr[in, pin_ghost], direct pin_leaf, ghost pin_ghost, a array[int8], str string, v void, r int32[0:3], nv flags[pin_no_flags], res fd_pin)
close$pin(fd pin_node)
)";

// One AppendCall per syscall, 2000 generated programs and 2000 mutants
// of them over kEveryShapeSpec hash to a constant recorded before
// generation was compiled into plans, and so does the next draw, so a
// skipped or extra draw anywhere in the stream shows.
TEST_F(HotPathTest, GeneratorOutputIsPinnedForEveryTypeShape)
{
  syzlang::ParseResult parsed = syzlang::Parse(kEveryShapeSpec, "shapes");
  ASSERT_TRUE(parsed.ok()) << (parsed.errors.empty() ? "" : parsed.errors[0]);
  SpecLibrary lib;
  lib.Add(parsed.spec);
  lib.Finalize();
  ASSERT_EQ(lib.syscalls().size(), 10u);

  util::Rng rng(4242);
  Generator generator(&lib, &rng);
  Mutator mutator(&lib, &generator, &rng);
  uint64_t h = 0;
  for (size_t i = 0; i < lib.syscalls().size(); ++i) {
    Prog prog;
    generator.AppendCall(&prog, i);
    h = util::HashCombine(h, HashProg(prog));
  }
  std::vector<Prog> progs;
  for (int i = 0; i < 2000; ++i) {
    progs.push_back(generator.Generate(6));
    h = util::HashCombine(h, HashProg(progs.back()));
  }
  for (int i = 0; i < 2000; ++i) {
    Prog mutant = progs[static_cast<size_t>(i)];
    mutator.Mutate(&mutant);
    h = util::HashCombine(h, HashProg(mutant));
  }
  h = util::HashCombine(h, rng.Next());
  EXPECT_EQ(h, 13752896055426586473ULL);
}

// A base name with no opcode (a spec that skipped validation) still runs:
// the call counts as executed, fails with ENOSYS and reaches no handler.
TEST_F(HotPathTest, UnknownBaseNameExecutesAsEnosys)
{
  syzlang::ParseResult parsed = syzlang::Parse("fcntl(arg intptr)\n", "unknown");
  ASSERT_TRUE(parsed.ok());
  SpecLibrary lib;
  lib.Add(parsed.spec);
  lib.Finalize();
  ASSERT_EQ(lib.syscalls().size(), 1u);
  ASSERT_EQ(lib.OpcodeOf(0), SyscallOp::kUnknown);
  util::Rng rng(1);
  Generator generator(&lib, &rng);
  Prog prog;
  generator.AppendCall(&prog, 0);

  for (const vkernel::KernelPolicy& policy :
       {vkernel::KernelPolicy::Strict(), vkernel::KernelPolicy::Permissive()}) {
    SCOPED_TRACE(policy.name);
    vkernel::Kernel kernel(policy);
    Boot(&kernel);
    Executor exec(&kernel, &lib);
    vkernel::Coverage cov;
    ExecTrace trace;
    ExecResult r = exec.Run(prog, &cov, &trace);
    EXPECT_EQ(r.calls_executed, 1u);
    EXPECT_FALSE(r.crashed);
    EXPECT_EQ(r.new_blocks, 0u);
    EXPECT_EQ(cov.Count(), 0u);
    ASSERT_EQ(trace.results.size(), 1u);
    EXPECT_EQ(trace.results[0].verrno, vkernel::kENOSYS);
  }
}

// ---------------------------------------------------------------------------
// Dense coverage
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, CoverageMatchesSetSemantics)
{
  vkernel::Coverage cov;
  std::unordered_set<uint64_t> model;

  // A mix of MakeBlockId-shaped ids (dense pages), raw hashes, duplicate
  // hits, and page-edge values.
  std::vector<uint64_t> ids;
  for (uint32_t i = 0; i < 300; ++i) {
    ids.push_back(vkernel::MakeBlockId(0xdeadbeefcafeULL, i));
  }
  util::Rng rng(99);
  for (int i = 0; i < 300; ++i) ids.push_back(rng.Next());
  ids.insert(ids.end(), {0ULL, 1ULL, 63ULL, 64ULL, 255ULL, 256ULL, ~0ULL});
  ids.insert(ids.end(), ids.begin(), ids.begin() + 100);  // Duplicates.

  for (uint64_t id : ids) {
    EXPECT_EQ(cov.Hit(id), model.insert(id).second) << id;
  }
  EXPECT_EQ(cov.Count(), model.size());
  for (uint64_t id : ids) EXPECT_TRUE(cov.Contains(id));
  EXPECT_FALSE(cov.Contains(0x1234567890ULL));
  EXPECT_EQ(cov.blocks(), model);

  std::vector<uint64_t> sorted = cov.SortedBlocks();
  EXPECT_EQ(sorted.size(), model.size());
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST_F(HotPathTest, CoverageMergeAndCountNotInMatchSetSemantics)
{
  util::Rng rng(7);
  vkernel::Coverage a;
  vkernel::Coverage b;
  std::unordered_set<uint64_t> set_a;
  std::unordered_set<uint64_t> set_b;
  for (int i = 0; i < 500; ++i) {
    // Overlapping ranges: ~half the ids land in both sets.
    uint64_t ida = vkernel::MakeBlockId(42, static_cast<uint32_t>(i));
    uint64_t idb = vkernel::MakeBlockId(42, static_cast<uint32_t>(i + 250));
    a.Hit(ida);
    set_a.insert(ida);
    b.Hit(idb);
    set_b.insert(idb);
    uint64_t h = rng.Next();
    if (i % 2) {
      a.Hit(h);
      set_a.insert(h);
    } else {
      b.Hit(h);
      set_b.insert(h);
    }
  }

  // CountNotIn == |a \ b| and |b \ a|.
  size_t a_not_b = 0;
  for (uint64_t id : set_a) a_not_b += set_b.count(id) ? 0 : 1;
  size_t b_not_a = 0;
  for (uint64_t id : set_b) b_not_a += set_a.count(id) ? 0 : 1;
  EXPECT_EQ(a.CountNotIn(b), a_not_b);
  EXPECT_EQ(b.CountNotIn(a), b_not_a);

  // Merge returns the number of genuinely new blocks; repeat merges and
  // empty merges add nothing.
  vkernel::Coverage merged;
  EXPECT_EQ(merged.Merge(a), set_a.size());
  EXPECT_EQ(merged.Merge(a), 0u);
  EXPECT_EQ(merged.Merge(b), b_not_a);
  EXPECT_EQ(merged.Count(), set_a.size() + b_not_a);
  vkernel::Coverage empty;
  EXPECT_EQ(merged.Merge(empty), 0u);
  EXPECT_EQ(empty.Merge(empty), 0u);
  EXPECT_EQ(empty.Count(), 0u);

  std::unordered_set<uint64_t> set_union = set_a;
  set_union.insert(set_b.begin(), set_b.end());
  EXPECT_EQ(merged.blocks(), set_union);

  merged.Clear();
  EXPECT_EQ(merged.Count(), 0u);
  EXPECT_EQ(merged.Merge(a), set_a.size());
}

// The AVX2 merge-join arms must be bit-identical to the scalar
// reference over adversarial id layouts: dense per-module runs (the
// MakeBlockId shape), hash-scattered ids (one page per id), ids
// straddling page and word boundaries, and the empty/self/identical-key
// edge cases that trigger the paired fast path.
TEST_F(HotPathTest, SimdCoverageArmMatchesScalarReferenceBitForBit)
{
  if (!vkernel::CoverageSimdAvailable()) {
    GTEST_SKIP() << "no AVX2 on this host; only the scalar arm exists";
  }

  // Adversarial id pattern families, each a vector of ids to Hit.
  std::vector<std::vector<uint64_t>> patterns;
  // Dense module runs: contiguous local indices under a few module
  // hashes — full and partially-full pages.
  for (uint64_t h : {0x1ULL, 0xdeadbeefcafeULL, ~0ULL}) {
    std::vector<uint64_t> dense;
    for (uint32_t i = 0; i < 700; ++i) dense.push_back(vkernel::MakeBlockId(h, i));
    patterns.push_back(std::move(dense));
  }
  // Hash-scattered: every id lands on its own page.
  {
    util::Rng rng(31337);
    std::vector<uint64_t> scattered;
    for (int i = 0; i < 600; ++i) scattered.push_back(rng.Next());
    patterns.push_back(std::move(scattered));
  }
  // Page- and word-boundary straddles around every multiple of 64 and
  // 256 in a window, plus the extremes.
  {
    std::vector<uint64_t> straddle;
    for (uint64_t base = 64; base <= 1024; base += 64) {
      straddle.insert(straddle.end(), {base - 1, base, base + 1});
    }
    straddle.insert(straddle.end(),
                    {0ULL, 63ULL, 255ULL, 256ULL, 257ULL, ~0ULL, ~0ULL - 1,
                     (~0ULL >> 8) << 8});
    patterns.push_back(std::move(straddle));
  }
  // Empty set.
  patterns.push_back({});

  // Every ordered pair of patterns (including a pattern against itself
  // — identical key arrays, the paired fast path) is exercised under
  // both arms; counts AND resulting sorted block lists must agree.
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    for (size_t pj = 0; pj < patterns.size(); ++pj) {
      struct Result {
        size_t merged, back, not_in, not_in_rev;
        bool covers;
        std::vector<uint64_t> blocks;
      };
      auto run = [&](vkernel::CoverageArm arm) {
        vkernel::SetCoverageArm(arm);
        EXPECT_EQ(vkernel::ActiveCoverageArm(), arm);
        vkernel::Coverage a, b;
        for (uint64_t id : patterns[pi]) a.Hit(id);
        for (uint64_t id : patterns[pj]) b.Hit(id);
        Result r;
        r.not_in = a.CountNotIn(b);
        r.not_in_rev = b.CountNotIn(a);
        r.covers = a.CoversAll(b);
        r.merged = a.Merge(b);
        r.back = b.Merge(a);  // Now equal sets: paired path again.
        EXPECT_EQ(a.Merge(a), 0u);  // Self-merge is a no-op.
        r.blocks = a.SortedBlocks();
        return r;
      };
      const Result scalar = run(vkernel::CoverageArm::kScalar);
      const Result simd = run(vkernel::CoverageArm::kSimd);
      vkernel::ResetCoverageArm();

      const std::string label =
          "patterns " + std::to_string(pi) + " x " + std::to_string(pj);
      EXPECT_EQ(scalar.merged, simd.merged) << label;
      EXPECT_EQ(scalar.back, simd.back) << label;
      EXPECT_EQ(scalar.not_in, simd.not_in) << label;
      EXPECT_EQ(scalar.not_in_rev, simd.not_in_rev) << label;
      EXPECT_EQ(scalar.covers, simd.covers) << label;
      EXPECT_EQ(scalar.blocks, simd.blocks) << label;

      // And both arms match naive set algebra.
      std::unordered_set<uint64_t> u(patterns[pi].begin(), patterns[pi].end());
      size_t before = u.size();
      u.insert(patterns[pj].begin(), patterns[pj].end());
      EXPECT_EQ(scalar.merged, u.size() - before) << label;
      EXPECT_EQ(scalar.blocks.size(), u.size()) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-copy buffers
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, BufferViewReadsWithoutCopyAndMaterializesOnWrite)
{
  std::vector<uint8_t> backing = {1, 2, 3, 4, 5, 6, 7, 8};
  vkernel::Buffer view = vkernel::Buffer::View(backing);
  EXPECT_TRUE(view.viewing());
  EXPECT_EQ(view.size(), backing.size());
  EXPECT_EQ(view.data(), backing.data());  // No copy happened.
  EXPECT_EQ(view.ReadScalar(0, 4), 0x04030201u);
  EXPECT_TRUE(view.bytes.empty());  // Still not materialized.

  // First write detaches from the backing storage.
  view.WriteScalar(0, 2, 0xbeef);
  EXPECT_FALSE(view.viewing());
  EXPECT_NE(view.data(), backing.data());
  EXPECT_EQ(view.ReadScalar(0, 2), 0xbeefu);
  EXPECT_EQ(view.ReadScalar(2, 2), 0x0403u);  // Old contents preserved.
  EXPECT_EQ(backing[0], 1u);                  // Backing untouched.

  vkernel::Buffer grown = vkernel::Buffer::View(backing);
  grown.Resize(16);
  EXPECT_EQ(grown.size(), 16u);
  EXPECT_EQ(grown.ReadScalar(0, 4), 0x04030201u);  // Copied then grown.
  EXPECT_EQ(grown.ReadScalar(8, 4), 0u);           // Zero-filled tail.
}

// ---------------------------------------------------------------------------
// Batch replay
// ---------------------------------------------------------------------------

TEST_F(HotPathTest, RunBatchMatchesIndividualRuns)
{
  SpecLibrary lib = SuiteLibrary();
  util::Rng rng(11);
  Generator generator(&lib, &rng);
  std::vector<Prog> progs;
  for (int i = 0; i < 50; ++i) {
    Prog prog = generator.Generate(5);
    if (!prog.empty()) progs.push_back(std::move(prog));
  }

  vkernel::Kernel kernel_batch;
  vkernel::Kernel kernel_single;
  Boot(&kernel_batch);
  Boot(&kernel_single);
  Executor batch_exec(&kernel_batch, &lib);
  Executor single_exec(&kernel_single, &lib);

  vkernel::Coverage cov_batch;
  vkernel::Coverage cov_single;
  std::vector<ExecResult> batched = batch_exec.RunBatch(progs, &cov_batch);
  ASSERT_EQ(batched.size(), progs.size());
  for (size_t i = 0; i < progs.size(); ++i) {
    ExecResult single = single_exec.Run(progs[i], &cov_single);
    EXPECT_EQ(batched[i].crashed, single.crashed) << i;
    EXPECT_EQ(batched[i].crash_title, single.crash_title) << i;
    EXPECT_EQ(batched[i].calls_executed, single.calls_executed) << i;
    EXPECT_EQ(batched[i].new_blocks, single.new_blocks) << i;
  }
  EXPECT_EQ(cov_batch.blocks(), cov_single.blocks());
}

}  // namespace
}  // namespace kernelgpt::fuzzer
