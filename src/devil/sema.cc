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

/// Each declaration kind's names.
struct Names {
  explicit Names(const DeviceDecl& dev)
      : ports(dev.params), regs(dev.registers), vars(dev.variables) {}
  NameIndex ports, regs, vars;
};

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
  size_t frag_begin = 0;  // its resolved fragments in `State::frags`
};

/// What a check derives per declaration index. It is meaningful only for
/// the first declaration of a name; every use of a name resolves to that
/// one, and later declarations are reported as duplicates.
struct State {
  State() = default;
  /// Every declaration of `dev`, in order (`check_variable` fills in each
  /// variable's width and access).
  State(const DeviceDecl& dev, const Names& names);

  /// Register `i`'s access and, for the first declaration of its name
  /// (`first`), its bits after every bit placed so far.
  void place_register(const DeviceDecl& dev, size_t i, int first);
  /// Resolves variable `v`'s fragments and appends them to `frags`.
  void resolve(const DeviceDecl& dev, const NameIndex& regs, size_t v);

  std::vector<RegState> regs;
  std::vector<VarState> vars;
  std::vector<Frag> frags;
  size_t total_bits = 0;  // bits placed
};

/// One direction of a binding's use of a port offset (a read-write binding
/// makes two). `seq` is its place among every use, in binding order.
struct Use {
  std::string_view port;
  uint64_t offset;
  size_t seq;
  int reg;
  bool read;
};

bool by_port_offset(const Use& x, const Use& y) {
  return std::tie(x.port, x.offset) < std::tie(y.port, y.offset);
}

/// Appends register `reg`'s uses of declared ports (a binding that names no
/// port is DVL112's alone).
void add_uses(const DeviceDecl& dev, const NameIndex& ports, int reg,
              std::vector<Use>& uses) {
  for (const auto& b : dev.registers[reg].bindings) {
    if (ports.find(b.port.base) == kNone) continue;
    if (can_read(b.access)) {
      uses.push_back({b.port.base, b.port.offset, uses.size(), reg, true});
    }
    if (can_write(b.access)) {
      uses.push_back({b.port.base, b.port.offset, uses.size(), reg, false});
    }
  }
}

/// Every claim of a register bit by a variable, per bit in claim order (a
/// list threaded through `claims`).
struct Claims {
  struct Claim {
    int owner;  // variable index
    int next;   // the bit's next claim in `claims`, -1 at the end
  };
  struct Bit {
    int first = -1, last = -1;  // indices into `claims`
  };
  std::vector<Claim> claims;
  std::vector<Bit> bits;  // per placed bit (`State::total_bits`)
};

/// Which registers some fragment names, and which of their bits one covers.
struct Coverage {
  std::vector<uint8_t> used;     // per register
  std::vector<uint8_t> covered;  // per placed bit
};

}  // namespace

struct CleanIndex::Data {
  explicit Data(const DeviceDecl& dev)
      : dev(dev), names(dev), state(dev, names) {}

  /// The clean spec's resolved fragments of variable `v`.
  [[nodiscard]] std::span<const Frag> frags_of(size_t v) const {
    return {state.frags.data() + state.vars[v].frag_begin,
            dev.variables[v].fragments.size()};
  }

  const DeviceDecl& dev;
  Names names;
  State state;            // after a check that accepted
  std::vector<Use> uses;  // sorted by (port, offset, seq)
  std::vector<std::vector<std::pair<int, int>>> port_bindings;  // (reg, k)
  std::vector<std::vector<int>> reg_vars;                       // ascending
  std::vector<std::vector<std::pair<int, int>>> var_pre_actions;  // (reg, k)
  std::vector<std::pair<std::string_view, int>> enum_names;  // sorted, var
};

struct CheckScratch::Data {
  State state;
  Claims claims;
  Coverage coverage;
  std::vector<std::string_view> enum_names;
  std::vector<Use> uses;
  std::vector<int> ports, regs, vars;
};

namespace {

/// One `Sema` run over one device: the six rule groups over state that
/// resolved every name once, or (`Sema::rejects_change`) the rule instances
/// that read one changed declaration, over the clean spec's state with the
/// state of that declaration and its readers derived again.
class Checker {
 public:
  /// `diags` receives every diagnostic; null asks for the verdict alone.
  Checker(const DeviceDecl& dev, const Names& names, State& state,
          support::DiagnosticEngine* diags)
      : dev_(dev), names_(names), st_(state), diags_(diags) {}

  /// Runs the rule groups in order and returns whether none failed. With no
  /// sink it returns after the first group that fails.
  bool run();

  /// The resolved model; call only when `run` returned true.
  [[nodiscard]] DeviceInfo device_info() const;

  /// Every use, sorted; set by `run` once the overlap group ran.
  [[nodiscard]] std::vector<Use> take_uses() { return std::move(uses_); }

  // `Sema::rejects_change` for a changed port, register or variable `d`,
  // over `st_`, a copy of `clean.state`: whether a rule instance that
  // reads it fails.
  bool port_change_fails(const CleanIndex::Data& clean, int d);
  bool register_change_fails(const CleanIndex::Data& clean, int d,
                             CheckScratch::Data& s);
  bool variable_change_fails(const CleanIndex::Data& clean, int d,
                             CheckScratch::Data& s);

 private:
  void check_ports();
  void check_registers();
  void check_variables();
  void check_pre_actions();
  void check_overlap();
  void check_no_omission();

  // Rule instances, each for one declaration or one pair of them. The
  // groups above call them over every declaration, in order; the pass
  // calls them over the ones that read the changed declaration.
  void check_port(size_t i);
  bool check_binding(const RegisterDecl& r, const PortBinding& b);
  void check_register(size_t i);
  bool check_variable(size_t i, std::vector<std::string_view>& enum_names);
  void check_pre_action(const PreAction& pa);
  void check_shared_use(const Use& x, const Use& y);
  void claim_fragment(size_t v, size_t k, Claims& c);
  void cover_fragment(const Frag& fr, Coverage& c) const;
  void check_register_coverage(size_t i, const Coverage& c);
  void check_port_coverage(size_t i, std::span<const Use> uses);

  void check_bits_of(CheckScratch::Data& s);

  /// Fails the check. `message()` builds the text, and runs only when
  /// there is a sink.
  template <class Message>
  void error(const char* code, support::SourceLoc loc, Message message) {
    failed_ = true;
    if (diags_) diags_->error(code, loc, message());
  }

  [[nodiscard]] std::span<const Frag> frags_of(size_t var) const {
    return {st_.frags.data() + st_.vars[var].frag_begin,
            dev_.variables[var].fragments.size()};
  }
  [[nodiscard]] bool masks_disjoint(int a, int b) const;

  const DeviceDecl& dev_;
  const Names& names_;
  State& st_;
  support::DiagnosticEngine* diags_;
  bool failed_ = false;
  std::vector<Use> uses_;  // check_overlap's, sorted by (port, offset, seq)
  std::vector<std::string_view> read_pats_, write_pats_;  // check_variable's
};

State::State(const DeviceDecl& dev, const Names& names) {
  regs.resize(dev.registers.size());
  for (size_t i = 0; i < dev.registers.size(); ++i) {
    place_register(dev, i, names.regs.find(dev.registers[i].name));
  }
  vars.resize(dev.variables.size());
  for (size_t i = 0; i < dev.variables.size(); ++i) {
    vars[i].first = names.vars.find(dev.variables[i].name);
    resolve(dev, names.regs, i);
  }
}

void State::place_register(const DeviceDecl& dev, size_t i, int first) {
  const RegisterDecl& r = dev.registers[i];
  RegState& rs = regs[i];
  rs.first = first;
  rs.access = r.access();
  if (first == static_cast<int>(i)) {
    rs.bit_base = total_bits;
    total_bits += static_cast<size_t>(std::max(r.size_bits, 0));
  }
}

void State::resolve(const DeviceDecl& dev, const NameIndex& reg_names,
                    size_t v) {
  vars[v].frag_begin = frags.size();
  for (const RegFragment& f : dev.variables[v].fragments) {
    Frag fr;
    fr.reg = reg_names.find(f.reg);
    if (fr.reg != kNone) {
      int size = dev.registers[fr.reg].size_bits;
      fr.msb = f.has_range ? f.msb : size - 1;
      fr.lsb = f.has_range ? f.lsb : 0;
      fr.in_range = fr.msb >= fr.lsb && fr.lsb >= 0 && fr.msb < size;
    }
    frags.push_back(fr);
  }
}

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
  Names names(spec.device);
  State state(spec.device, names);
  Checker checker(spec.device, names, state, &diags_);
  if (!checker.run()) return std::nullopt;
  return checker.device_info();
}

bool Sema::accepts(const Specification& spec) {
  Names names(spec.device);
  State state(spec.device, names);
  return Checker(spec.device, names, state, nullptr).run();
}

CleanIndex::CleanIndex() = default;
CleanIndex::CleanIndex(CleanIndex&&) noexcept = default;
CleanIndex& CleanIndex::operator=(CleanIndex&&) noexcept = default;
CleanIndex::~CleanIndex() = default;

CleanIndex::CleanIndex(const Specification& clean) {
  const DeviceDecl& dev = clean.device;
  auto data = std::make_unique<Data>(dev);
  Checker checker(dev, data->names, data->state, nullptr);
  if (!checker.run()) return;  // not clean: nothing to index
  data->uses = checker.take_uses();

  // A clean spec declares every name once and every name it uses resolves.
  const Names& names = data->names;
  data->port_bindings.resize(dev.params.size());
  data->var_pre_actions.resize(dev.variables.size());
  for (size_t r = 0; r < dev.registers.size(); ++r) {
    const RegisterDecl& reg = dev.registers[r];
    for (size_t k = 0; k < reg.bindings.size(); ++k) {
      data->port_bindings[names.ports.find(reg.bindings[k].port.base)]
          .emplace_back(r, k);
    }
    for (size_t k = 0; k < reg.pre_actions.size(); ++k) {
      data->var_pre_actions[names.vars.find(reg.pre_actions[k].var)]
          .emplace_back(r, k);
    }
  }
  data->reg_vars.resize(dev.registers.size());
  for (size_t v = 0; v < dev.variables.size(); ++v) {
    for (const Frag& fr : data->frags_of(v)) {
      std::vector<int>& vars = data->reg_vars[fr.reg];
      if (vars.empty() || vars.back() != static_cast<int>(v)) {
        vars.push_back(static_cast<int>(v));
      }
    }
    for (const EnumItem& item : dev.variables[v].type.items) {
      data->enum_names.emplace_back(item.name, v);
    }
  }
  std::sort(data->enum_names.begin(), data->enum_names.end());
  data_ = std::move(data);
}

CheckScratch::CheckScratch() : data_(std::make_unique<Data>()) {}
CheckScratch::CheckScratch(CheckScratch&&) noexcept = default;
CheckScratch& CheckScratch::operator=(CheckScratch&&) noexcept = default;
CheckScratch::~CheckScratch() = default;

bool Sema::rejects_change(const CleanIndex& clean, const Specification& spec,
                          const DeclSpan& changed, CheckScratch& scratch) {
  const CleanIndex::Data* index = clean.data_.get();
  if (!index) return false;
  const DeviceDecl& now = spec.device;
  const DeviceDecl& was = index->dev;
  if (now.params.size() != was.params.size() ||
      now.registers.size() != was.registers.size() ||
      now.variables.size() != was.variables.size()) {
    return false;
  }
  // Default-deny: only a declaration that kept its name leaves every name
  // resolving to the same single declaration as in the clean spec.
  const int d = static_cast<int>(changed.index);
  auto kept_name = [&](const auto& decls, const auto& clean_decls) {
    return changed.index < decls.size() &&
           decls[changed.index].name == clean_decls[changed.index].name;
  };
  CheckScratch::Data& s = *scratch.data_;
  s.state = index->state;
  Checker checker(now, index->names, s.state, nullptr);
  switch (changed.kind) {
    case DeclSpan::Kind::kPort:
      return kept_name(now.params, was.params) &&
             checker.port_change_fails(*index, d);
    case DeclSpan::Kind::kRegister:
      return kept_name(now.registers, was.registers) &&
             checker.register_change_fails(*index, d, s);
    case DeclSpan::Kind::kVariable:
      return kept_name(now.variables, was.variables) &&
             checker.variable_change_fails(*index, d, s);
  }
  return false;
}

namespace {

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
  for (size_t i = 0; i < dev_.params.size(); ++i) check_port(i);
}

/// DVL100–103 for port parameter `i`.
void Checker::check_port(size_t i) {
  const PortParam& p = dev_.params[i];
  if (names_.ports.find(p.name) != static_cast<int>(i)) {
    error("DVL100", p.loc,
          [&] { return fmt("duplicate port parameter ", p.name, ""); });
    return;
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

void Checker::check_registers() {
  for (size_t i = 0; i < dev_.registers.size(); ++i) check_register(i);
}

/// DVL112, DVL113 and DVL115 for binding `b` of register `r`; false when
/// it names no port.
bool Checker::check_binding(const RegisterDecl& r, const PortBinding& b) {
  int port = names_.ports.find(b.port.base);
  if (port == kNone) {
    error("DVL112", b.port.loc, [&] {
      return fmt("register ", r.name, "") + " refers to unknown port '" +
             b.port.base + "'";
    });
    return false;
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
  return true;
}

/// DVL110–117 for register `i`.
void Checker::check_register(size_t i) {
  const RegisterDecl& r = dev_.registers[i];
  if (st_.regs[i].first != static_cast<int>(i)) {
    error("DVL110", r.loc,
          [&] { return fmt("duplicate register ", r.name, ""); });
    return;
  }

  if (r.size_bits <= 0 || r.size_bits > 64) {
    error("DVL111", r.loc,
          [&] { return fmt("register ", r.name, " has invalid size"); });
    // Later checks still run on the declared size.
  }

  bool has_read = false, has_write = false;
  for (const auto& b : r.bindings) {
    if (!check_binding(r, b)) continue;
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

void Checker::check_variables() {
  int next_type_id = 1;
  std::vector<std::string_view> enum_names;  // symbolic names are spec-unique
  for (size_t i = 0; i < dev_.variables.size(); ++i) {
    if (check_variable(i, enum_names)) st_.vars[i].type_id = next_type_id++;
  }
}

/// DVL120–139 and DVL200–210 for variable `i`, which derive its width and
/// access; false when it is a duplicate. `enum_names` holds the symbolic
/// names already defined (DVL133) and gains its own.
bool Checker::check_variable(size_t i,
                             std::vector<std::string_view>& enum_names) {
  const VariableDecl& v = dev_.variables[i];
  VarState& vs = st_.vars[i];
  if (vs.first != static_cast<int>(i)) {
    error("DVL120", v.loc,
          [&] { return fmt("duplicate variable ", v.name, ""); });
    return false;
  }

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
    readable = readable && can_read(st_.regs[fr.reg].access);
    writable = writable && can_write(st_.regs[fr.reg].access);
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
    read_pats_.clear();
    write_pats_.clear();
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
      if (rd && !insert_sorted(read_pats_, std::string_view(item.pattern))) {
        error("DVL134", item.loc, [&] {
          return fmt("bit pattern of ", item.name,
                     " duplicates another read mapping");
        });
      }
      if (wr && !insert_sorted(write_pats_, std::string_view(item.pattern))) {
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
    if (can_read(vs.access) && !read_pats_.empty() && ty_width > 0 &&
        ty_width <= 16) {
      uint64_t want = 1ULL << ty_width;
      if (read_pats_.size() != want) {
        error("DVL210", ty.loc, [&] {
          return "read mappings of variable '" + v.name + "' cover " +
                 std::to_string(read_pats_.size()) + " of " +
                 std::to_string(want) + " possible patterns";
        });
      }
    }
    // A write-only or read-write enum must have at least one write item to
    // be usable for writing; require it only when the variable cannot be
    // read at all (otherwise a read-only view is legitimate).
    if (!can_read(vs.access) && write_pats_.empty()) {
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
  return true;
}

void Checker::check_pre_actions() {
  for (const auto& r : dev_.registers) {
    for (const auto& pa : r.pre_actions) check_pre_action(pa);
  }
}

/// DVL150–152 for one pre-action, against the state of the variable it
/// assigns.
void Checker::check_pre_action(const PreAction& pa) {
  int var = names_.vars.find(pa.var);
  if (var == kNone) {
    error("DVL150", pa.loc, [&] {
      return fmt("pre-action assigns unknown variable ", pa.var, "");
    });
    return;
  }
  const VarState& vs = st_.vars[var];
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

// Disjoint if no bit is relevant ('.') in both masks. A register's mask is
// its name's first declaration's; its size is its own.
bool Checker::masks_disjoint(int a, int b) const {
  const RegisterDecl& ra = dev_.registers[a];
  const RegisterDecl& rb = dev_.registers[b];
  const RegisterDecl& ma = dev_.registers[st_.regs[a].first];
  const RegisterDecl& mb = dev_.registers[st_.regs[b].first];
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

bool pre_actions_disjoint(const RegisterDecl& a, const RegisterDecl& b) {
  // Disjoint if they set the same selector variable to different values.
  for (const auto& pa : a.pre_actions) {
    for (const auto& pb : b.pre_actions) {
      if (pa.var == pb.var && pa.value != pb.value) return true;
    }
  }
  return false;
}

void Checker::check_overlap() {
  // "Each port must appear only once in the register definitions, except when
  //  registers are defined using disjoint pre-actions or masks. However, a
  //  single port may be used for reading by one register and writing to
  //  another." Uses are compared per (port name, offset), in that order,
  //  and within one in the order the bindings declare them.
  uses_.clear();
  for (size_t i = 0; i < dev_.registers.size(); ++i) {
    add_uses(dev_, names_.ports, static_cast<int>(i), uses_);
  }
  std::sort(uses_.begin(), uses_.end(), [](const Use& x, const Use& y) {
    return std::tie(x.port, x.offset, x.seq) <
           std::tie(y.port, y.offset, y.seq);
  });
  for (size_t lo = 0, hi = 0; lo < uses_.size(); lo = hi) {
    while (hi < uses_.size() && uses_[hi].port == uses_[lo].port &&
           uses_[hi].offset == uses_[lo].offset) {
      ++hi;
    }
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) check_shared_use(uses_[i], uses_[j]);
    }
  }

  // "No bit of a single register can be used in the definition of two
  //  different variables."
  Claims claims;
  claims.bits.resize(st_.total_bits);
  for (size_t v = 0; v < dev_.variables.size(); ++v) {
    for (size_t k = 0; k < dev_.variables[v].fragments.size(); ++k) {
      claim_fragment(v, k, claims);
    }
  }
}

/// DVL220 for two uses of one port offset, `x` the earlier.
void Checker::check_shared_use(const Use& x, const Use& y) {
  if (x.reg == y.reg) return;
  if (x.read != y.read) return;  // read vs write is fine
  const RegisterDecl& rx = dev_.registers[x.reg];
  const RegisterDecl& ry = dev_.registers[y.reg];
  if (pre_actions_disjoint(rx, ry)) return;
  if (masks_disjoint(x.reg, y.reg)) return;
  error("DVL220", ry.loc, [&] {
    return "registers '" + rx.name + "' and '" + ry.name +
           "' both use port '" + std::string(x.port) + "' @ " +
           std::to_string(x.offset) + " for " +
           (x.read ? "reading" : "writing") +
           " without disjoint pre-actions or masks";
  });
}

/// DVL221 for fragment `k` of variable `v`: each bit it claims is reported
/// once per earlier claim of that bit by a variable of another name, then
/// claimed.
void Checker::claim_fragment(size_t v, size_t k, Claims& c) {
  const Frag& fr = frags_of(v)[k];
  if (fr.reg == kNone || !fr.in_range) return;  // already diagnosed
  const VariableDecl& var = dev_.variables[v];
  const RegFragment& f = var.fragments[k];
  Claims::Bit* reg = c.bits.data() + st_.regs[fr.reg].bit_base;
  for (int b = fr.lsb; b <= fr.msb; ++b) {
    for (int x = reg[b].first; x >= 0; x = c.claims[x].next) {
      const std::string& owner = dev_.variables[c.claims[x].owner].name;
      if (owner != var.name) {
        error("DVL221", f.loc, [&] {
          return "bit " + std::to_string(b) + " of register '" + f.reg +
                 "' is used by both '" + owner + "' and '" + var.name + "'";
        });
      }
    }
    int claim = static_cast<int>(c.claims.size());
    c.claims.push_back({static_cast<int>(v), -1});
    if (reg[b].last >= 0) {
      c.claims[reg[b].last].next = claim;
    } else {
      reg[b].first = claim;
    }
    reg[b].last = claim;
  }
}

void Checker::check_no_omission() {
  // Every register must be used by some variable, and each of its relevant
  // bits covered. `used` and `covered` are per first declaration of a name;
  // a register's mask is its name's first declaration's.
  Coverage coverage;
  coverage.used.resize(dev_.registers.size());
  coverage.covered.resize(st_.total_bits);
  for (const Frag& fr : st_.frags) cover_fragment(fr, coverage);
  for (size_t i = 0; i < dev_.registers.size(); ++i) {
    check_register_coverage(i, coverage);
  }

  // Every port parameter, and every offset of its declared range, must be
  // used by some register.
  for (size_t i = 0; i < dev_.params.size(); ++i) {
    check_port_coverage(i, uses_);
  }
}

void Checker::cover_fragment(const Frag& fr, Coverage& c) const {
  if (fr.reg == kNone) return;
  c.used[fr.reg] = 1;
  if (!fr.in_range) return;
  auto bits = c.covered.begin() +
              static_cast<ptrdiff_t>(st_.regs[fr.reg].bit_base);
  std::fill(bits + fr.lsb, bits + fr.msb + 1, 1);
}

/// DVL230–231 for register `i`.
void Checker::check_register_coverage(size_t i, const Coverage& c) {
  const RegisterDecl& r = dev_.registers[i];
  const int first = st_.regs[i].first;
  if (!c.used[first]) {
    error("DVL230", r.loc, [&] {
      return fmt("register ", r.name, " is not used by any variable");
    });
    return;
  }
  const RegisterDecl& decl = dev_.registers[first];
  const uint8_t* bits = c.covered.data() + st_.regs[first].bit_base;
  for (int b = 0; b < r.size_bits; ++b) {
    if (mask_bit(decl, b) == '.' && (b >= decl.size_bits || !bits[b])) {
      error("DVL231", r.loc, [&] {
        return "relevant bit " + std::to_string(b) + " of register '" +
               r.name + "' is not covered by any variable";
      });
    }
  }
}

/// DVL232–233 for port parameter `i`; `uses` is sorted by port and offset.
void Checker::check_port_coverage(size_t i, std::span<const Use> uses) {
  const PortParam& p = dev_.params[i];
  Use key{p.name, 0, 0, kNone, false};
  auto [lo, hi] = std::equal_range(
      uses.begin(), uses.end(), key,
      [](const Use& x, const Use& y) { return x.port < y.port; });
  if (lo == hi) {
    error("DVL232", p.loc, [&] {
      return fmt("port parameter ", p.name, " is never used");
    });
    return;
  }
  for (uint64_t off : p.offsets) {
    key.offset = off;
    if (!std::binary_search(lo, hi, key, by_port_offset)) {
      error("DVL233", p.loc, [&] {
        return "offset " + std::to_string(off) + " of port '" + p.name +
               "' is declared but never used";
      });
    }
  }
}

// ---------------------------------------------------------------------------
// The changed-declaration pass. The clean spec passes every rule and the
// changed declaration D kept its name, so every name resolves as in the
// clean spec, through its index, and only the instances listed per kind of
// D can read D. Each is evaluated on this spec exactly as the groups would
// evaluate it, so any failure is a failure of the whole-spec check; the
// first one ends the pass.
// ---------------------------------------------------------------------------

/// Port D: its own rules, every binding that names it, and the coverage of
/// its offsets by the (unchanged) clean uses.
bool Checker::port_change_fails(const CleanIndex::Data& clean, int d) {
  check_port(d);
  for (auto [r, k] : clean.port_bindings[d]) {
    if (failed_) return true;
    check_binding(dev_.registers[r], dev_.registers[r].bindings[k]);
  }
  if (failed_) return true;
  check_port_coverage(d, clean.uses);
  return failed_;
}

/// Register D: its own rules and pre-actions; every variable with a
/// fragment on it, in full; every pre-action that assigns one of those;
/// its uses against other registers' at the same port offset; the claims
/// and coverage of its bits; the coverage of every port its old or new
/// bindings name.
bool Checker::register_change_fails(const CleanIndex::Data& clean, int d,
                                    CheckScratch::Data& s) {
  const RegisterDecl& r = dev_.registers[d];
  st_.place_register(dev_, d, d);  // its bits move after all others
  check_register(d);
  for (int x : clean.reg_vars[d]) {
    if (failed_) return true;
    st_.resolve(dev_, names_.regs, x);
    s.enum_names.clear();  // its own items: no other variable changed
    check_variable(x, s.enum_names);
  }
  for (const PreAction& pa : r.pre_actions) {
    if (failed_) return true;
    check_pre_action(pa);
  }
  for (int x : clean.reg_vars[d]) {
    for (auto [reg, k] : clean.var_pre_actions[x]) {
      if (failed_) return true;
      if (reg != d) check_pre_action(dev_.registers[reg].pre_actions[k]);
    }
  }
  if (failed_) return true;

  s.uses.clear();
  add_uses(dev_, names_.ports, d, s.uses);
  for (const Use& u : s.uses) {
    auto [lo, hi] = std::equal_range(clean.uses.begin(), clean.uses.end(), u,
                                     by_port_offset);
    for (auto it = lo; it != hi && !failed_; ++it) {
      if (it->reg != d) check_shared_use(*it, u);  // its old uses are gone
    }
    if (failed_) return true;
  }

  s.regs.assign(1, d);
  s.vars = clean.reg_vars[d];
  check_bits_of(s);
  if (failed_) return true;

  // This spec's uses of the ports D's old or new bindings name: the clean
  // ones but D's, and D's new ones.
  s.ports.clear();
  for (const auto& b : clean.dev.registers[d].bindings) {
    s.ports.push_back(names_.ports.find(b.port.base));
  }
  for (const Use& u : s.uses) s.ports.push_back(names_.ports.find(u.port));
  std::sort(s.ports.begin(), s.ports.end());
  s.ports.erase(std::unique(s.ports.begin(), s.ports.end()), s.ports.end());
  for (int port : s.ports) {
    Use key{dev_.params[port].name, 0, 0, kNone, false};
    auto [lo, hi] = std::equal_range(
        clean.uses.begin(), clean.uses.end(), key,
        [](const Use& x, const Use& y) { return x.port < y.port; });
    for (auto it = lo; it != hi; ++it) {
      if (it->reg != d) s.uses.push_back(*it);
    }
  }
  std::sort(s.uses.begin(), s.uses.end(), by_port_offset);
  for (int port : s.ports) {
    check_port_coverage(port, s.uses);
    if (failed_) return true;
  }
  return false;
}

/// Variable D: its own rules, with its enum item names against every other
/// variable's (DVL133); every pre-action that assigns it; the claims and
/// coverage of every register its old or new fragments name.
bool Checker::variable_change_fails(const CleanIndex::Data& clean, int d,
                                    CheckScratch::Data& s) {
  st_.resolve(dev_, names_.regs, d);
  s.enum_names.clear();
  for (auto [name, v] : clean.enum_names) {
    if (v != d) s.enum_names.push_back(name);
  }
  check_variable(d, s.enum_names);
  for (auto [reg, k] : clean.var_pre_actions[d]) {
    if (failed_) return true;
    check_pre_action(dev_.registers[reg].pre_actions[k]);
  }
  if (failed_) return true;

  s.regs.clear();
  for (const Frag& fr : clean.frags_of(d)) s.regs.push_back(fr.reg);
  for (const Frag& fr : frags_of(d)) {
    if (fr.reg != kNone) s.regs.push_back(fr.reg);
  }
  std::sort(s.regs.begin(), s.regs.end());
  s.regs.erase(std::unique(s.regs.begin(), s.regs.end()), s.regs.end());
  s.vars.assign(1, d);
  for (int reg : s.regs) {
    s.vars.insert(s.vars.end(), clean.reg_vars[reg].begin(),
                  clean.reg_vars[reg].end());
  }
  std::sort(s.vars.begin(), s.vars.end());
  s.vars.erase(std::unique(s.vars.begin(), s.vars.end()), s.vars.end());
  check_bits_of(s);
  return failed_;
}

/// DVL221 and DVL230–231 for the registers in `s.regs`, from the fragments
/// on them of the variables in `s.vars` (ascending), which must be every
/// variable with a fragment on one of them.
void Checker::check_bits_of(CheckScratch::Data& s) {
  Claims& claims = s.claims;
  Coverage& coverage = s.coverage;
  claims.claims.clear();
  claims.bits.resize(std::max(claims.bits.size(), st_.total_bits));
  coverage.covered.resize(std::max(coverage.covered.size(), st_.total_bits));
  coverage.used.resize(std::max(coverage.used.size(), dev_.registers.size()));
  auto in_scope = [&](int reg) {
    return std::find(s.regs.begin(), s.regs.end(), reg) != s.regs.end();
  };
  for (int reg : s.regs) {
    size_t base = st_.regs[reg].bit_base;
    size_t size = static_cast<size_t>(
        std::max(dev_.registers[reg].size_bits, 0));
    std::fill_n(claims.bits.begin() + static_cast<ptrdiff_t>(base), size,
                Claims::Bit{});
    std::fill_n(coverage.covered.begin() + static_cast<ptrdiff_t>(base), size,
                uint8_t{0});
    coverage.used[reg] = 0;
  }
  for (int v : s.vars) {
    std::span<const Frag> frags = frags_of(v);
    for (size_t k = 0; k < frags.size(); ++k) {
      if (!in_scope(frags[k].reg)) continue;
      claim_fragment(v, k, claims);
      cover_fragment(frags[k], coverage);
    }
    if (failed_) return;
  }
  for (int reg : s.regs) {
    check_register_coverage(reg, coverage);
    if (failed_) return;
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
    ri.access = st_.regs[i].access;
    ri.mask = r.mask.empty() ? std::string(static_cast<size_t>(
                                               std::max(r.size_bits, 1)),
                                           '.')
                             : r.mask.pattern;
    info.registers.emplace(r.name, std::move(ri));
  }
  for (size_t i = 0; i < dev_.variables.size(); ++i) {
    const VariableDecl& v = dev_.variables[i];
    const VarState& vs = st_.vars[i];
    info.variables.emplace(v.name,
                           VarInfo{&v, vs.width_bits, vs.access, vs.type_id});
  }
  return info;
}

}  // namespace

}  // namespace devil
