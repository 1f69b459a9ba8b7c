// Abstract syntax for the Devil IDL.
//
// A Devil specification describes a device in three layers (paper §2.1):
//   ports  ->  registers  ->  device variables
// Each layer is represented here structurally; semantic consistency between
// layers is established by `devil::Sema`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/source.h"

namespace devil {

/// Direction of access allowed on a port, register or variable.
enum class Access { kRead, kWrite, kReadWrite };

[[nodiscard]] inline bool can_read(Access a) { return a != Access::kWrite; }
[[nodiscard]] inline bool can_write(Access a) { return a != Access::kRead; }

/// Port parameter of a device declaration:
///   base : bit[8] port @ {0..3}     (contiguous range)
///   ctl  : bit[8] port @ {0, 2, 4}  (explicit offset set)
struct PortParam {
  std::string name;
  int width_bits = 8;          // data-path width of the port
  std::vector<uint64_t> offsets;  // valid offsets, ascending, unique-checked
  bool has_empty_range = false;   // a `lo..hi` group with lo > hi
  support::SourceLoc loc;

  [[nodiscard]] bool allows(uint64_t offset) const {
    for (uint64_t o : offsets) {
      if (o == offset) return true;
    }
    return false;
  }
  bool operator==(const PortParam&) const = default;
};

/// A port expression used in a register declaration: `base @ 1`, or just
/// `base` (offset 0).
struct PortExpr {
  std::string base;
  uint64_t offset = 0;
  bool has_offset = false;
  support::SourceLoc loc;
  bool operator==(const PortExpr&) const = default;
};

/// One access binding of a register: `read base @ 0` / `write base @ 2`.
struct PortBinding {
  Access access = Access::kReadWrite;
  PortExpr port;
  bool operator==(const PortBinding&) const = default;
};

/// Pre-action attached to a register: `pre { index = 0 }`.
/// The assigned entity must be a (typically private) device variable.
struct PreAction {
  std::string var;
  uint64_t value = 0;
  support::SourceLoc loc;
  bool operator==(const PreAction&) const = default;
};

/// Bit-constraint mask, e.g. mask '1..00000'. Characters, MSB first:
///   '.' relevant bit; '0'/'1' irrelevant on read, forced on write;
///   '*' irrelevant both ways.
struct Mask {
  std::string pattern;  // MSB-first, one char per register bit
  support::SourceLoc loc;

  [[nodiscard]] bool empty() const { return pattern.empty(); }
  /// Bit index i (LSB = 0): pattern character for that bit.
  [[nodiscard]] char bit(int i) const {
    return pattern[pattern.size() - 1 - static_cast<size_t>(i)];
  }
  bool operator==(const Mask&) const = default;
};

/// register name = [read|write] port [, pre {..}] [, mask '..'] : bit[N];
struct RegisterDecl {
  std::string name;
  std::vector<PortBinding> bindings;  // 1 or 2 (read + write)
  std::vector<PreAction> pre_actions;
  Mask mask;  // empty pattern if absent
  int size_bits = 8;
  support::SourceLoc loc;

  [[nodiscard]] Access access() const {
    bool r = false, w = false;
    for (const auto& b : bindings) {
      r = r || can_read(b.access);
      w = w || can_write(b.access);
    }
    if (r && w) return Access::kReadWrite;
    return r ? Access::kRead : Access::kWrite;
  }
  bool operator==(const RegisterDecl&) const = default;
};

/// Reference to a contiguous bit range of a register:
///   x_high[3..0], index_reg[4], sig_reg (whole register)
struct RegFragment {
  std::string reg;
  bool has_range = false;
  int msb = 0;
  int lsb = 0;
  support::SourceLoc loc;
  bool operator==(const RegFragment&) const = default;
};

/// Direction of an enumerated-type mapping item.
enum class MappingDir {
  kRead,   // NAME <= 'bits'  : pattern read from device maps to NAME
  kWrite,  // NAME => 'bits'  : NAME written by driver produces pattern
  kBoth,   // NAME <=> 'bits'
};

struct EnumItem {
  std::string name;
  MappingDir dir = MappingDir::kBoth;
  std::string pattern;  // bit string, chars '0'/'1' only (checked in sema)
  support::SourceLoc loc;
  bool operator==(const EnumItem&) const = default;
};

/// Devil variable types (paper §2.1 "Device variables").
enum class TypeKind {
  kInt,        // int(N): unsigned N-bit integer
  kSignedInt,  // signed int(N)
  kBool,       // bool (1 bit)
  kEnum,       // { NAME <=> '...' , ... }
  kIntSet,     // int{0,2,3} or int{0..5} — fixed set of allowed values
};

struct TypeExpr {
  TypeKind kind = TypeKind::kInt;
  int width_bits = 0;                // kInt / kSignedInt
  std::vector<EnumItem> items;       // kEnum
  std::vector<uint64_t> set_values;  // kIntSet (expanded, sorted, unique-checked in sema)
  support::SourceLoc loc;
  bool operator==(const TypeExpr&) const = default;
};

/// variable name = frag [# frag]* [, volatile] [, write trigger] : type;
struct VariableDecl {
  std::string name;
  bool is_private = false;
  bool is_volatile = false;
  bool write_trigger = false;
  std::vector<RegFragment> fragments;  // MSB-first concatenation order
  TypeExpr type;
  support::SourceLoc loc;
  bool operator==(const VariableDecl&) const = default;
};

/// device name (param, ...) { registers and variables }
struct DeviceDecl {
  std::string name;
  std::vector<PortParam> params;
  std::vector<RegisterDecl> registers;
  std::vector<VariableDecl> variables;
  support::SourceLoc loc;
  bool operator==(const DeviceDecl&) const = default;
};

/// A parsed specification (exactly one device per file, as in the paper).
struct Specification {
  DeviceDecl device;
  bool operator==(const Specification&) const = default;
};

}  // namespace devil
