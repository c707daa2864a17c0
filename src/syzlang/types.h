/// \file
/// Core type system of the syzlang-like specification DSL.
///
/// This mirrors the subset of syzkaller's syscall-description language that
/// the paper's pipeline emits: integer scalars with ranges, symbolic
/// constants, flag sets, typed pointers with direction, arrays, strings,
/// len-of relations, resources, and struct/union references.

#ifndef KERNELGPT_SYZLANG_TYPES_H_
#define KERNELGPT_SYZLANG_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kernelgpt::syzlang {

/// Data-flow direction of a pointer argument.
enum class Dir {
  kIn,
  kOut,
  kInOut,
};

/// Returns the syzlang keyword for a direction ("in", "out", "inout").
const char* DirName(Dir dir);

/// Kind discriminator for Type.
enum class TypeKind {
  kInt,        ///< int8/int16/int32/int64/intptr, optional [lo:hi] range.
  kConst,      ///< const[NAME_OR_NUMBER] with optional int size.
  kFlags,      ///< flags[flags_set_name] with optional int size.
  kPtr,        ///< ptr[dir, elem].
  kArray,      ///< array[elem] or array[elem, n].
  kString,     ///< string, string["literal"], or string[CONST].
  kLen,        ///< len[sibling_field] with optional int size.
  kBytesize,   ///< bytesize[sibling_field] with optional int size.
  kResource,   ///< reference to a declared resource (includes builtin fd).
  kStructRef,  ///< reference to a struct or union by name.
  kFilename,   ///< filename (an arbitrary path string).
  kVoid,       ///< no payload (used for empty union arms).
};

/// Returns the canonical keyword of the kind used in rendered specs.
const char* TypeKindName(TypeKind kind);

/// A (value-semantic, recursive) syzlang type expression.
///
/// Children are held in `elems`; scalar parameters in dedicated fields.
/// Factory functions below are the supported way to build well-formed
/// instances.
struct Type {
  TypeKind kind = TypeKind::kVoid;

  /// kInt/kConst/kFlags/kLen/kBytesize: scalar width in bits (8..64);
  /// 0 means pointer-sized (intptr).
  int bits = 32;

  /// kInt: optional inclusive value range.
  bool has_range = false;
  int64_t range_lo = 0;
  int64_t range_hi = 0;

  /// kConst: symbolic constant name or decimal literal rendering.
  std::string const_name;

  /// kFlags: referenced flag-set name.
  std::string flags_name;

  /// kPtr: pointee direction.
  Dir dir = Dir::kIn;

  /// kArray: fixed element count (0 = variable length).
  uint64_t array_len = 0;

  /// kString: literal value ("" = unconstrained string).
  std::string str_literal;

  /// kLen/kBytesize: name of the sibling field whose length this encodes.
  std::string len_target;

  /// kResource/kStructRef: referenced declaration name.
  std::string ref_name;

  /// kPtr/kArray child type (exactly one element when present).
  std::vector<Type> elems;

  /// Dense id SpecLibrary::Finalize() assigns to the types it owns: the
  /// index of the type's generation plan. -1 outside a finalized
  /// library; a copy keeps it (see SpecLibrary::PlanOf). Not part of
  /// the value (excluded from operator==).
  int cache_slot = -1;

  bool operator==(const Type& other) const;

  // -- Factories ----------------------------------------------------------

  static Type Int(int bits);
  static Type IntRange(int bits, int64_t lo, int64_t hi);
  static Type Const(std::string name, int bits = 32);
  static Type ConstValue(uint64_t value, int bits = 32);
  static Type Flags(std::string flags_set, int bits = 32);
  static Type Ptr(Dir dir, Type elem);
  static Type Array(Type elem, uint64_t fixed_len = 0);
  static Type String(std::string literal = "");
  static Type Len(std::string target, int bits = 32);
  static Type Bytesize(std::string target, int bits = 32);
  static Type Resource(std::string name);
  static Type StructRef(std::string name);
  static Type Filename();
  static Type Void();
};

/// One named parameter of a syscall, or one struct/union member.
struct Field {
  std::string name;
  Type type;
  /// True when annotated `(out)` — the kernel writes this field.
  bool is_out = false;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type && is_out == other.is_out;
  }
};

}  // namespace kernelgpt::syzlang

#endif  // KERNELGPT_SYZLANG_TYPES_H_
