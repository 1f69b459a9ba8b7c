#include "devil/sema.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string_view>
#include <tuple>

namespace devil {

namespace {

int bits_needed(uint64_t max_value) {
  int n = 1;
  while (max_value >> n) ++n;
  return n;
}

std::string fmt(const char* pre, const std::string& name, const char* post) {
  return std::string(pre) + "'" + name + "'" + post;
}

constexpr int kNone = -1;

/// Bit `i` (LSB = 0) of a register's effective mask (`RegInfo::mask`): its
/// pattern, or all '.' without one. Bits beyond the pattern read as
/// irrelevant (see `RegInfo::mask_bit`).
char mask_bit(const RegisterDecl& r, int i) {
  const std::string& p = r.mask.pattern;
  auto ix = static_cast<size_t>(i);
  return ix < p.size() ? p[p.size() - 1 - ix] : '.';
}

/// Inserts `v` into the sorted `set`; false when it is already there.
template <class T>
bool insert_sorted(std::vector<T>& set, const T& v) {
  auto it = std::lower_bound(set.begin(), set.end(), v);
  if (it != set.end() && *it == v) return false;
  set.insert(it, v);
  return true;
}

/// Calls `fn(v)` for every value equal to an earlier one, in order.
template <class Fn>
void for_each_repeat(const std::vector<uint64_t>& values, Fn fn) {
  if (std::adjacent_find(values.begin(), values.end(),
                         std::greater_equal<>()) == values.end()) {
    return;  // strictly ascending, as ranges parse
  }
  std::vector<uint64_t> distinct(values);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<bool> seen(distinct.size());
  for (uint64_t v : values) {
    auto k = std::lower_bound(distinct.begin(), distinct.end(), v) -
             distinct.begin();
    if (seen[k]) fn(v);
    seen[k] = true;
  }
}

/// The names of one kind of declaration, each resolved to the index of its
/// first declaration.
class NameIndex {
 public:
  template <class Decl>
  explicit NameIndex(const std::vector<Decl>& decls) {
    entries_.reserve(decls.size());
    for (size_t i = 0; i < decls.size(); ++i) {
      entries_.emplace_back(decls[i].name, static_cast<int>(i));
    }
    std::sort(entries_.begin(), entries_.end());
  }

  /// The first declaration named `name`, or kNone.
  [[nodiscard]] int find(std::string_view name) const {
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               std::pair<std::string_view, int>(name, 0));
    return it != entries_.end() && it->first == name ? it->second : kNone;
  }

 private:
  std::vector<std::pair<std::string_view, int>> entries_;
};

/// One `Sema` run over one device: every name resolved once, then the six
/// rule groups. State is per declaration index and is meaningful only for
/// the first declaration of a name; every use of a name resolves to that
/// one, and later declarations are reported as duplicates.
class Checker {
 public:
  /// `diags` receives every diagnostic; null asks for the verdict alone.
  Checker(const DeviceDecl& dev, support::DiagnosticEngine* diags);

  /// Runs the rule groups in order and returns whether none failed. With no
  /// sink it returns after the first group that fails.
  bool run();

  /// The resolved model; call only when `run` returned true.
  [[nodiscard]] DeviceInfo device_info() const;

 private:
  /// A fragment resolved against the first register of its name: `reg` is
  /// kNone for an unknown name, `in_range` when [lsb, msb] lies inside it.
  struct Frag {
    int reg = kNone;
    int msb = 0;
    int lsb = 0;
    bool in_range = false;
  };
  struct RegState {
    int first = kNone;  // first register of this name
    Access access = Access::kReadWrite;
    size_t bit_base = 0;  // first declarations: its bits in per-bit arrays
  };
  struct VarState {
    int first = kNone;  // first variable of this name
    int width_bits = 0;
    Access access = Access::kReadWrite;
    int type_id = 0;
  };

  void check_ports();
  void check_registers();
  void check_variables();
  void check_pre_actions();
  void check_overlap();
  void check_no_omission();

  /// Fails the check. `message()` builds the text, and runs only when
  /// there is a sink.
  template <class Message>
  void error(const char* code, support::SourceLoc loc, Message message) {
    failed_ = true;
    if (diags_) diags_->error(code, loc, message());
  }

  [[nodiscard]] std::span<const Frag> frags_of(size_t var) const {
    return std::span<const Frag>(frags_).subspan(
        var_frag_[var], var_frag_[var + 1] - var_frag_[var]);
  }
  [[nodiscard]] bool masks_disjoint(int a, int b) const;

  const DeviceDecl& dev_;
  support::DiagnosticEngine* diags_;
  bool failed_ = false;
  NameIndex ports_, regs_, vars_;
  std::vector<RegState> reg_;
  std::vector<VarState> var_;
  std::vector<Frag> frags_;       // every fragment, variable order
  std::vector<size_t> var_frag_;  // per variable: its first fragment
  size_t total_bits_ = 0;         // bits of all first registers
};

}  // namespace

int type_width_bits(const TypeExpr& ty) {
  switch (ty.kind) {
    case TypeKind::kInt:
    case TypeKind::kSignedInt:
      return ty.width_bits;
    case TypeKind::kBool:
      return 1;
    case TypeKind::kEnum:
      return ty.items.empty() ? 0
                              : static_cast<int>(ty.items.front().pattern.size());
    case TypeKind::kIntSet: {
      uint64_t mx = 0;
      for (uint64_t v : ty.set_values) mx = std::max(mx, v);
      return bits_needed(mx);
    }
  }
  return 0;
}

std::optional<DeviceInfo> Sema::check(const Specification& spec) {
  Checker checker(spec.device, &diags_);
  if (!checker.run()) return std::nullopt;
  return checker.device_info();
}

bool Sema::accepts(const Specification& spec) {
  return Checker(spec.device, nullptr).run();
}

Checker::Checker(const DeviceDecl& dev, support::DiagnosticEngine* diags)
    : dev_(dev),
      diags_(diags),
      ports_(dev.params),
      regs_(dev.registers),
      vars_(dev.variables) {
  reg_.resize(dev.registers.size());
  for (size_t i = 0; i < dev.registers.size(); ++i) {
    const RegisterDecl& r = dev.registers[i];
    RegState& rs = reg_[i];
    rs.first = regs_.find(r.name);
    rs.access = r.access();
    if (rs.first == static_cast<int>(i)) {
      rs.bit_base = total_bits_;
      total_bits_ += static_cast<size_t>(std::max(r.size_bits, 0));
    }
  }

  var_.resize(dev.variables.size());
  var_frag_.reserve(dev.variables.size() + 1);
  for (size_t i = 0; i < dev.variables.size(); ++i) {
    const VariableDecl& v = dev.variables[i];
    var_[i].first = vars_.find(v.name);
    var_frag_.push_back(frags_.size());
    for (const RegFragment& f : v.fragments) {
      Frag fr;
      fr.reg = regs_.find(f.reg);
      if (fr.reg != kNone) {
        int size = dev.registers[fr.reg].size_bits;
        fr.msb = f.has_range ? f.msb : size - 1;
        fr.lsb = f.has_range ? f.lsb : 0;
        fr.in_range = fr.msb >= fr.lsb && fr.lsb >= 0 && fr.msb < size;
      }
      frags_.push_back(fr);
    }
  }
  var_frag_.push_back(frags_.size());
}

bool Checker::run() {
  for (void (Checker::*group)() :
       {&Checker::check_ports, &Checker::check_registers,
        &Checker::check_variables, &Checker::check_pre_actions,
        &Checker::check_overlap, &Checker::check_no_omission}) {
    (this->*group)();
    if (failed_ && !diags_) return false;
  }
  return !failed_;
}

void Checker::check_ports() {
  for (size_t i = 0; i < dev_.params.size(); ++i) {
    const PortParam& p = dev_.params[i];
    if (ports_.find(p.name) != static_cast<int>(i)) {
      error("DVL100", p.loc,
            [&] { return fmt("duplicate port parameter ", p.name, ""); });
      continue;
    }
    if (p.width_bits != 8 && p.width_bits != 16 && p.width_bits != 32) {
      error("DVL101", p.loc, [&] {
        return fmt("port ", p.name, " has invalid width (must be 8, 16 or 32)");
      });
    }
    if (p.has_empty_range || p.offsets.empty()) {
      error("DVL102", p.loc, [&] {
        return fmt("port ", p.name, " has an empty offset range");
      });
    }
    for_each_repeat(p.offsets, [&](uint64_t off) {
      error("DVL103", p.loc, [&] {
        return "offset " + std::to_string(off) +
               " appears twice in the range of port '" + p.name + "'";
      });
    });
  }
}

void Checker::check_registers() {
  for (size_t i = 0; i < dev_.registers.size(); ++i) {
    const RegisterDecl& r = dev_.registers[i];
    if (reg_[i].first != static_cast<int>(i)) {
      error("DVL110", r.loc,
            [&] { return fmt("duplicate register ", r.name, ""); });
      continue;
    }

    if (r.size_bits <= 0 || r.size_bits > 64) {
      error("DVL111", r.loc,
            [&] { return fmt("register ", r.name, " has invalid size"); });
      // Later checks still run on the declared size.
    }

    bool has_read = false, has_write = false;
    for (const auto& b : r.bindings) {
      int port = ports_.find(b.port.base);
      if (port == kNone) {
        error("DVL112", b.port.loc, [&] {
          return fmt("register ", r.name, "") + " refers to unknown port '" +
                 b.port.base + "'";
        });
        continue;
      }
      const PortParam& pp = dev_.params[port];
      if (!pp.allows(b.port.offset)) {
        error("DVL113", b.port.loc, [&] {
          return "offset " + std::to_string(b.port.offset) + " of port '" +
                 pp.name + "' is outside its declared offset set";
        });
      }
      if (r.size_bits != pp.width_bits) {
        error("DVL115", r.loc, [&] {
          return "register '" + r.name + "' is bit[" +
                 std::to_string(r.size_bits) + "] but port '" + pp.name +
                 "' is bit[" + std::to_string(pp.width_bits) + "]";
        });
      }
      if (can_read(b.access)) {
        if (has_read) {
          error("DVL116", b.port.loc, [&] {
            return fmt("register ", r.name, " has two read bindings");
          });
        }
        has_read = true;
      }
      if (can_write(b.access)) {
        if (has_write) {
          error("DVL117", b.port.loc, [&] {
            return fmt("register ", r.name, " has two write bindings");
          });
        }
        has_write = true;
      }
    }

    if (!r.mask.empty() &&
        static_cast<int>(r.mask.pattern.size()) != r.size_bits) {
      error("DVL114", r.mask.loc, [&] {
        return "mask of register '" + r.name + "' has " +
               std::to_string(r.mask.pattern.size()) +
               " bits but the register is bit[" +
               std::to_string(r.size_bits) + "]";
      });
    }
  }
}

void Checker::check_variables() {
  int next_type_id = 1;
  std::vector<std::string_view> enum_names;  // symbolic names are spec-unique
  std::vector<std::string_view> read_pats, write_pats;

  for (size_t i = 0; i < dev_.variables.size(); ++i) {
    const VariableDecl& v = dev_.variables[i];
    VarState& vs = var_[i];
    if (vs.first != static_cast<int>(i)) {
      error("DVL120", v.loc,
            [&] { return fmt("duplicate variable ", v.name, ""); });
      continue;
    }
    vs.type_id = next_type_id++;

    bool readable = true, writable = true;
    int total_width = 0;
    std::span<const Frag> frags = frags_of(i);
    for (size_t k = 0; k < frags.size(); ++k) {
      const RegFragment& f = v.fragments[k];
      const Frag& fr = frags[k];
      if (fr.reg == kNone) {
        error("DVL121", f.loc, [&] {
          return fmt("variable ", v.name, "") +
                 " refers to unknown register '" + f.reg + "'";
        });
        continue;
      }
      const RegisterDecl& reg = dev_.registers[fr.reg];
      if (!fr.in_range) {
        error("DVL122", f.loc, [&] {
          return "bit range [" + std::to_string(f.msb) + ".." +
                 std::to_string(f.lsb) + "] of register '" + f.reg +
                 "' is outside bit[" + std::to_string(reg.size_bits) + "]";
        });
        continue;
      }
      for (int b = fr.lsb; b <= fr.msb; ++b) {
        if (mask_bit(reg, b) != '.') {
          error("DVL123", f.loc, [&] {
            return "variable '" + v.name + "' uses bit " + std::to_string(b) +
                   " of register '" + f.reg +
                   "', which the mask marks irrelevant ('" +
                   std::string(1, mask_bit(reg, b)) + "')";
          });
        }
      }
      total_width += fr.msb - fr.lsb + 1;
      readable = readable && can_read(reg_[fr.reg].access);
      writable = writable && can_write(reg_[fr.reg].access);
    }
    vs.width_bits = total_width;
    if (!readable && !writable) {
      error("DVL124", v.loc, [&] {
        return fmt("variable ", v.name,
                   " is neither readable nor writable through its registers");
      });
    }
    vs.access = readable ? (writable ? Access::kReadWrite : Access::kRead)
                         : Access::kWrite;

    // --- type checks ---
    const TypeExpr& ty = v.type;
    int ty_width = type_width_bits(ty);
    if ((ty.kind == TypeKind::kInt || ty.kind == TypeKind::kSignedInt) &&
        (ty.width_bits <= 0 || ty.width_bits > 64)) {
      error("DVL137", ty.loc, [&] {
        return fmt("variable ", v.name, " has an invalid integer width");
      });
    }
    if (ty.kind == TypeKind::kIntSet) {
      for_each_repeat(ty.set_values, [&](uint64_t val) {
        error("DVL135", ty.loc, [&] {
          return "duplicate element " + std::to_string(val) +
                 " in integer-set type of '" + v.name + "'";
        });
      });
      if (ty.set_values.empty()) {
        error("DVL136", ty.loc, [&] {
          return fmt("integer-set type of ", v.name, " is empty");
        });
      }
    }
    if (ty.kind == TypeKind::kEnum) {
      read_pats.clear();
      write_pats.clear();
      for (const auto& item : ty.items) {
        if (!insert_sorted(enum_names, std::string_view(item.name))) {
          error("DVL133", item.loc, [&] {
            return fmt("symbolic name ", item.name,
                       " is already defined in this specification");
          });
        }
        for (char c : item.pattern) {
          if (c != '0' && c != '1') {
            error("DVL132", item.loc, [&] {
              return fmt("bit pattern of ", item.name,
                         " may contain only '0' and '1'");
            });
            break;
          }
        }
        if (static_cast<int>(item.pattern.size()) != ty_width) {
          error("DVL131", item.loc, [&] {
            return "bit pattern of '" + item.name + "' has " +
                   std::to_string(item.pattern.size()) +
                   " bits; other patterns in the type have " +
                   std::to_string(ty_width);
          });
        }
        bool rd = item.dir != MappingDir::kWrite;
        bool wr = item.dir != MappingDir::kRead;
        if (rd && !insert_sorted(read_pats, std::string_view(item.pattern))) {
          error("DVL134", item.loc, [&] {
            return fmt("bit pattern of ", item.name,
                       " duplicates another read mapping");
          });
        }
        if (wr && !insert_sorted(write_pats, std::string_view(item.pattern))) {
          error("DVL139", item.loc, [&] {
            return fmt("bit pattern of ", item.name,
                       " duplicates another write mapping");
          });
        }
        // A mapping direction must be compatible with the variable access
        // ("a type for reading ... must be used with a readable variable").
        if (rd && !can_read(vs.access)) {
          error("DVL200", item.loc, [&] {
            return fmt("read mapping ", item.name,
                       " on a variable that is not readable");
          });
        }
        if (wr && !can_write(vs.access)) {
          error("DVL201", item.loc, [&] {
            return fmt("write mapping ", item.name,
                       " on a variable that is not writable");
          });
        }
      }
      // Exhaustiveness: when the variable is readable, every possible bit
      // pattern must have a read mapping (paper: "Read elements of a type
      // mapping must be exhaustive").
      if (can_read(vs.access) && !read_pats.empty() && ty_width > 0 &&
          ty_width <= 16) {
        uint64_t want = 1ULL << ty_width;
        if (read_pats.size() != want) {
          error("DVL210", ty.loc, [&] {
            return "read mappings of variable '" + v.name + "' cover " +
                   std::to_string(read_pats.size()) + " of " +
                   std::to_string(want) + " possible patterns";
          });
        }
      }
      // A write-only or read-write enum must have at least one write item to
      // be usable for writing; require it only when the variable cannot be
      // read at all (otherwise a read-only view is legitimate).
      if (!can_read(vs.access) && write_pats.empty()) {
        error("DVL202", ty.loc, [&] {
          return fmt("variable ", v.name,
                     " is write-only but its type has no write mappings");
        });
      }
    }

    if (total_width != ty_width) {
      error("DVL130", v.loc, [&] {
        return "variable '" + v.name + "' concatenates " +
               std::to_string(total_width) +
               " register bits but its type needs " + std::to_string(ty_width);
      });
    }
    if (ty.kind == TypeKind::kIntSet && total_width > 0 && total_width <= 63) {
      for (uint64_t val : ty.set_values) {
        if (val >= (1ULL << total_width)) {
          error("DVL138", ty.loc, [&] {
            return "set element " + std::to_string(val) + " of variable '" +
                   v.name + "' does not fit in " +
                   std::to_string(total_width) + " bits";
          });
        }
      }
    }
  }
}

void Checker::check_pre_actions() {
  for (const auto& r : dev_.registers) {
    for (const auto& pa : r.pre_actions) {
      int var = vars_.find(pa.var);
      if (var == kNone) {
        error("DVL150", pa.loc, [&] {
          return fmt("pre-action assigns unknown variable ", pa.var, "");
        });
        continue;
      }
      const VarState& vs = var_[var];
      if (!can_write(vs.access)) {
        error("DVL151", pa.loc, [&] {
          return fmt("pre-action assigns read-only variable ", pa.var, "");
        });
      }
      // Value must be representable in the variable's type.
      const TypeExpr& ty = dev_.variables[var].type;
      bool in_range = true;
      switch (ty.kind) {
        case TypeKind::kInt:
        case TypeKind::kBool:
        case TypeKind::kSignedInt:
          in_range = vs.width_bits >= 64 || pa.value < (1ULL << vs.width_bits);
          break;
        case TypeKind::kIntSet:
          in_range = std::find(ty.set_values.begin(), ty.set_values.end(),
                               pa.value) != ty.set_values.end();
          break;
        case TypeKind::kEnum:
          // Pre-actions use raw values; require the value to match some
          // write pattern.
          in_range = false;
          for (const auto& item : ty.items) {
            if (item.dir == MappingDir::kRead) continue;
            uint64_t pat = 0;
            for (char c : item.pattern) pat = (pat << 1) | (c == '1' ? 1 : 0);
            if (pat == pa.value) in_range = true;
          }
          break;
      }
      if (!in_range) {
        error("DVL152", pa.loc, [&] {
          return "pre-action value " + std::to_string(pa.value) +
                 " is outside the type of variable '" + pa.var + "'";
        });
      }
    }
  }
}

// Disjoint if no bit is relevant ('.') in both masks. A register's mask is
// its name's first declaration's; its size is its own.
bool Checker::masks_disjoint(int a, int b) const {
  const RegisterDecl& ra = dev_.registers[a];
  const RegisterDecl& rb = dev_.registers[b];
  const RegisterDecl& ma = dev_.registers[reg_[a].first];
  const RegisterDecl& mb = dev_.registers[reg_[b].first];
  auto mask_size = [](const RegisterDecl& r) {  // of the effective mask
    return r.mask.empty() ? std::max(r.size_bits, 1)
                          : static_cast<int>(r.mask.pattern.size());
  };
  if (ra.size_bits != rb.size_bits) return false;
  if (mask_size(ma) != ra.size_bits || mask_size(mb) != rb.size_bits) {
    return false;
  }
  for (int i = 0; i < ra.size_bits; ++i) {
    if (mask_bit(ma, i) == '.' && mask_bit(mb, i) == '.') return false;
  }
  return true;
}

void Checker::check_overlap() {
  // "Each port must appear only once in the register definitions, except when
  //  registers are defined using disjoint pre-actions or masks. However, a
  //  single port may be used for reading by one register and writing to
  //  another." Uses are compared per (port name, offset), in that order,
  //  and within one in the order the bindings declare them.
  struct Use {
    std::string_view port;
    uint64_t offset;
    size_t seq;
    int reg;
    bool read;
  };
  std::vector<Use> uses;
  for (size_t i = 0; i < dev_.registers.size(); ++i) {
    const RegisterDecl& r = dev_.registers[i];
    for (const auto& b : r.bindings) {
      if (ports_.find(b.port.base) == kNone) continue;  // already diagnosed
      const int reg = static_cast<int>(i);
      if (can_read(b.access)) {
        uses.push_back({b.port.base, b.port.offset, uses.size(), reg, true});
      }
      if (can_write(b.access)) {
        uses.push_back({b.port.base, b.port.offset, uses.size(), reg, false});
      }
    }
  }
  std::sort(uses.begin(), uses.end(), [](const Use& x, const Use& y) {
    return std::tie(x.port, x.offset, x.seq) <
           std::tie(y.port, y.offset, y.seq);
  });

  auto pre_actions_disjoint = [](const RegisterDecl& a, const RegisterDecl& b) {
    // Disjoint if they set the same selector variable to different values.
    for (const auto& pa : a.pre_actions) {
      for (const auto& pb : b.pre_actions) {
        if (pa.var == pb.var && pa.value != pb.value) return true;
      }
    }
    return false;
  };

  for (size_t lo = 0, hi = 0; lo < uses.size(); lo = hi) {
    while (hi < uses.size() && uses[hi].port == uses[lo].port &&
           uses[hi].offset == uses[lo].offset) {
      ++hi;
    }
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) {
        const Use& x = uses[i];
        const Use& y = uses[j];
        if (x.reg == y.reg) continue;
        if (x.read != y.read) continue;  // read vs write is fine
        const RegisterDecl& rx = dev_.registers[x.reg];
        const RegisterDecl& ry = dev_.registers[y.reg];
        if (pre_actions_disjoint(rx, ry)) continue;
        if (masks_disjoint(x.reg, y.reg)) continue;
        error("DVL220", ry.loc, [&] {
          return "registers '" + rx.name + "' and '" + ry.name +
                 "' both use port '" + std::string(x.port) + "' @ " +
                 std::to_string(x.offset) + " for " +
                 (x.read ? "reading" : "writing") +
                 " without disjoint pre-actions or masks";
        });
      }
    }
  }

  // "No bit of a single register can be used in the definition of two
  //  different variables." Every claim of a bit is kept, in claim order, as
  //  a list threaded through `claims`; a later variable is reported once per
  //  earlier claim by another name.
  struct Claim {
    int owner;  // variable index
    int next;   // the bit's next claim in `claims`, -1 at the end
  };
  struct BitClaims {
    int first = -1, last = -1;  // indices into `claims`
  };
  std::vector<Claim> claims;
  std::vector<BitClaims> bit_claims(total_bits_);
  for (size_t v = 0; v < dev_.variables.size(); ++v) {
    const VariableDecl& var = dev_.variables[v];
    std::span<const Frag> frags = frags_of(v);
    for (size_t k = 0; k < frags.size(); ++k) {
      const Frag& fr = frags[k];
      if (fr.reg == kNone || !fr.in_range) continue;  // already diagnosed
      const RegFragment& f = var.fragments[k];
      BitClaims* reg = bit_claims.data() + reg_[fr.reg].bit_base;
      for (int b = fr.lsb; b <= fr.msb; ++b) {
        for (int c = reg[b].first; c >= 0; c = claims[c].next) {
          const std::string& owner = dev_.variables[claims[c].owner].name;
          if (owner != var.name) {
            error("DVL221", f.loc, [&] {
              return "bit " + std::to_string(b) + " of register '" + f.reg +
                     "' is used by both '" + owner + "' and '" + var.name +
                     "'";
            });
          }
        }
        int claim = static_cast<int>(claims.size());
        claims.push_back({static_cast<int>(v), -1});
        if (reg[b].last >= 0) {
          claims[reg[b].last].next = claim;
        } else {
          reg[b].first = claim;
        }
        reg[b].last = claim;
      }
    }
  }
}

void Checker::check_no_omission() {
  // Every register must be used by some variable, and each of its relevant
  // bits covered. `used` and `covered` are per first declaration of a name;
  // a register's mask is its name's first declaration's.
  std::vector<uint8_t> used(dev_.registers.size(), 0);
  std::vector<uint8_t> covered(total_bits_, 0);
  for (const Frag& fr : frags_) {
    if (fr.reg == kNone) continue;
    used[fr.reg] = 1;
    if (!fr.in_range) continue;
    auto bits = covered.begin() + static_cast<ptrdiff_t>(reg_[fr.reg].bit_base);
    std::fill(bits + fr.lsb, bits + fr.msb + 1, 1);
  }
  for (size_t i = 0; i < dev_.registers.size(); ++i) {
    const RegisterDecl& r = dev_.registers[i];
    const int first = reg_[i].first;
    if (!used[first]) {
      error("DVL230", r.loc, [&] {
        return fmt("register ", r.name, " is not used by any variable");
      });
      continue;
    }
    const RegisterDecl& decl = dev_.registers[first];
    const uint8_t* bits = covered.data() + reg_[first].bit_base;
    for (int b = 0; b < r.size_bits; ++b) {
      if (mask_bit(decl, b) == '.' && (b >= decl.size_bits || !bits[b])) {
        error("DVL231", r.loc, [&] {
          return "relevant bit " + std::to_string(b) + " of register '" +
                 r.name + "' is not covered by any variable";
        });
      }
    }
  }

  // Every port parameter, and every offset of its declared range, must be
  // used by some register.
  std::vector<std::pair<int, uint64_t>> port_uses;  // (first port, offset)
  for (const auto& r : dev_.registers) {
    for (const auto& b : r.bindings) {
      int port = ports_.find(b.port.base);
      if (port != kNone) port_uses.emplace_back(port, b.port.offset);
    }
  }
  std::sort(port_uses.begin(), port_uses.end());
  for (size_t i = 0; i < dev_.params.size(); ++i) {
    const PortParam& p = dev_.params[i];
    const int port = ports_.find(p.name);
    auto lo = std::lower_bound(port_uses.begin(), port_uses.end(),
                               std::pair<int, uint64_t>(port, 0));
    auto hi = std::lower_bound(lo, port_uses.end(),
                               std::pair<int, uint64_t>(port + 1, 0));
    if (lo == hi) {
      error("DVL232", p.loc, [&] {
        return fmt("port parameter ", p.name, " is never used");
      });
      continue;
    }
    for (uint64_t off : p.offsets) {
      if (!std::binary_search(lo, hi, std::pair<int, uint64_t>(port, off))) {
        error("DVL233", p.loc, [&] {
          return "offset " + std::to_string(off) + " of port '" + p.name +
                 "' is declared but never used";
        });
      }
    }
  }
}

DeviceInfo Checker::device_info() const {
  DeviceInfo info;
  info.decl = &dev_;
  for (const PortParam& p : dev_.params) info.ports.emplace(p.name, &p);
  for (size_t i = 0; i < dev_.registers.size(); ++i) {
    const RegisterDecl& r = dev_.registers[i];
    RegInfo ri;
    ri.decl = &r;
    ri.access = reg_[i].access;
    ri.mask = r.mask.empty() ? std::string(static_cast<size_t>(
                                               std::max(r.size_bits, 1)),
                                           '.')
                             : r.mask.pattern;
    info.registers.emplace(r.name, std::move(ri));
  }
  for (size_t i = 0; i < dev_.variables.size(); ++i) {
    const VariableDecl& v = dev_.variables[i];
    const VarState& vs = var_[i];
    info.variables.emplace(v.name,
                           VarInfo{&v, vs.width_bits, vs.access, vs.type_id});
  }
  return info;
}

}  // namespace devil
