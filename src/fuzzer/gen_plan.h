/// \file
/// Generation plans: every spec type compiled once, by
/// SpecLibrary::Finalize(), into flat, index-addressed steps that the
/// Generator executes. A plan holds resolved constants, flag values,
/// struct layouts and len fix-ups, so generating a program does no name
/// lookups and walks no syzlang::Type trees. Plans hold indices, never
/// pointers, so a library that owns them stays copyable and movable.

#ifndef KERNELGPT_FUZZER_GEN_PLAN_H_
#define KERNELGPT_FUZZER_GEN_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "syzlang/types.h"

namespace kernelgpt::fuzzer {

/// How Generator::ScalarFor draws one value of a type.
struct ScalarPlan {
  enum class Op : uint8_t {
    kConst,    ///< `value`, unmasked, no draw.
    kFlags,    ///< Each of flag_values[begin, end) with p=0.4, masked.
    kRange,    ///< Mostly in [lo, hi], sometimes a bound, masked.
    kSpecial,  ///< Special-value biased int, masked.
    kRaw,      ///< Next() & mask.
  };
  Op op = Op::kRaw;
  uint64_t mask = ~0ULL;
  uint64_t value = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// One step of building a payload; every step appends to one output
/// buffer.
struct PayloadNode {
  enum class Op : uint8_t {
    kScalar,    ///< scalars[scalar], little-endian in `width` bytes;
                ///< bytes past the eighth are zero.
    kZeros,     ///< `width` zero bytes, no draw.
    kLiteral,   ///< bytes[begin, end), no draw.
    kString,    ///< Below(16) random lowercase letters, then NUL.
    kArray,     ///< `count` (0: Below(17)) runs of node `child`.
    kUnion,     ///< One of arms[begin, end), then resized to `width`.
    kStruct,    ///< fields[begin, end), then fixups[aux_begin, aux_end).
  };
  Op op = Op::kZeros;
  uint64_t width = 0;
  uint64_t count = 0;
  uint32_t scalar = 0;
  uint32_t child = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t aux_begin = 0;
  uint32_t aux_end = 0;
  uint32_t regs = 0;  ///< kStruct: registers its fields and fix-ups use.
};

/// One union arm: its payload, and the scalar drawn when that payload
/// comes out empty.
struct UnionArm {
  uint32_t node = 0;
  uint32_t scalar = 0;
  uint64_t width = 0;
};

/// One struct field: its payload, optionally resized to its declared
/// size. A field with a register records its start offset there (a len
/// slot) or its payload size before the resize (a len target).
struct FieldStep {
  static constexpr uint32_t kNoReg = ~0u;
  uint32_t node = 0;
  uint64_t declared = 0;  ///< 0: keep the payload's own size.
  uint32_t reg = kNoReg;
  bool is_len_slot = false;
};

/// Writes a struct's len or bytesize field once every field exists:
/// the struct's final size (`src` == kParent), or a target's recorded
/// payload size divided by its element size.
struct LenFixup {
  static constexpr uint32_t kParent = ~0u;
  uint32_t slot_reg = 0;
  uint32_t src = kParent;
  uint64_t divisor = 1;
  uint64_t width = 0;
};

/// Everything Generator needs about one type.
struct TypePlan {
  enum class Arg : uint8_t {
    kResourceRef,  ///< Fixed up by AppendCall.
    kBuffer,       ///< `pointee` payload; kOut: then `pointee_size`
                   ///< zero bytes instead (64 when that is 0).
    kFilename,     ///< "/dev/null".
    kLen,          ///< Scalar 0, linked by LinkLens.
    kScalar,       ///< scalars[scalar].
  };
  Arg arg = Arg::kScalar;
  syzlang::Dir dir = syzlang::Dir::kIn;
  int32_t resource = -1;  ///< kResourceRef: dense resource id.
  uint32_t scalar = 0;    ///< ScalarFor.
  uint32_t payload = 0;   ///< BuildPayload.
  uint32_t pointee = 0;   ///< kBuffer: payload node of the argument.
  uint64_t pointee_size = 0;
  uint64_t size = 0;      ///< SpecLibrary::TypeSize.
};

/// One syscall: its parameters are types[first_param, +params).
struct CallPlan {
  uint32_t first_param = 0;
  uint32_t params = 0;
  int32_t returns = -1;  ///< Dense resource id of the return value.
};

/// All plans of one library (or of one foreign type).
struct GenPlans {
  std::vector<TypePlan> types;  ///< By Type::cache_slot.
  std::vector<CallPlan> calls;  ///< By syscall index.
  std::vector<ScalarPlan> scalars;
  std::vector<PayloadNode> nodes;
  std::vector<UnionArm> arms;
  std::vector<FieldStep> fields;
  std::vector<LenFixup> fixups;
  std::vector<uint64_t> flag_values;
  std::vector<uint8_t> bytes;
  /// Safe-producer pool of resource id r: producers[pools[r], pools[r+1]).
  std::vector<uint32_t> pools;
  std::vector<size_t> producers;
};

}  // namespace kernelgpt::fuzzer

#endif  // KERNELGPT_FUZZER_GEN_PLAN_H_
