#include "devil/sema.h"

#include <algorithm>
#include <set>

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
  DeviceInfo info;
  info.decl = &spec.device;
  int before = diags_.error_count();
  check_ports(spec.device, info);
  check_registers(spec.device, info);
  check_variables(spec.device, info);
  check_pre_actions(spec.device, info);
  check_overlap(spec.device, info);
  check_no_omission(spec.device, info);
  if (diags_.error_count() > before) return std::nullopt;
  return info;
}

void Sema::check_ports(const DeviceDecl& dev, DeviceInfo& info) {
  for (const auto& p : dev.params) {
    if (info.ports.count(p.name)) {
      diags_.error("DVL100", p.loc,
                   fmt("duplicate port parameter ", p.name, ""));
      continue;
    }
    if (p.width_bits != 8 && p.width_bits != 16 && p.width_bits != 32) {
      diags_.error("DVL101", p.loc,
                   fmt("port ", p.name, " has invalid width (must be 8, 16 or 32)"));
    }
    if (p.has_empty_range || p.offsets.empty()) {
      diags_.error("DVL102", p.loc,
                   fmt("port ", p.name, " has an empty offset range"));
    }
    std::set<uint64_t> seen_offsets;
    for (uint64_t off : p.offsets) {
      if (!seen_offsets.insert(off).second) {
        diags_.error("DVL103", p.loc,
                     "offset " + std::to_string(off) +
                         " appears twice in the range of port '" + p.name +
                         "'");
      }
    }
    info.ports.emplace(p.name, &p);
  }
}

void Sema::check_registers(const DeviceDecl& dev, DeviceInfo& info) {
  for (const auto& r : dev.registers) {
    if (info.registers.count(r.name)) {
      diags_.error("DVL110", r.loc, fmt("duplicate register ", r.name, ""));
      continue;
    }

    RegInfo ri;
    ri.decl = &r;
    ri.access = r.access();

    if (r.size_bits <= 0 || r.size_bits > 64) {
      diags_.error("DVL111", r.loc,
                   fmt("register ", r.name, " has invalid size"));
      // Still record it with a clamped size so later checks can proceed.
    }

    bool has_read = false, has_write = false;
    for (const auto& b : r.bindings) {
      auto pit = info.ports.find(b.port.base);
      if (pit == info.ports.end()) {
        diags_.error("DVL112", b.port.loc,
                     fmt("register ", r.name, "") + " refers to unknown port '" +
                         b.port.base + "'");
        continue;
      }
      const PortParam& pp = *pit->second;
      if (!pp.allows(b.port.offset)) {
        diags_.error("DVL113", b.port.loc,
                     "offset " + std::to_string(b.port.offset) + " of port '" +
                         pp.name + "' is outside its declared offset set");
      }
      if (r.size_bits != pp.width_bits) {
        diags_.error("DVL115", r.loc,
                     "register '" + r.name + "' is bit[" +
                         std::to_string(r.size_bits) + "] but port '" +
                         pp.name + "' is bit[" +
                         std::to_string(pp.width_bits) + "]");
      }
      if (can_read(b.access)) {
        if (has_read) {
          diags_.error("DVL116", b.port.loc,
                       fmt("register ", r.name, " has two read bindings"));
        }
        has_read = true;
      }
      if (can_write(b.access)) {
        if (has_write) {
          diags_.error("DVL117", b.port.loc,
                       fmt("register ", r.name, " has two write bindings"));
        }
        has_write = true;
      }
    }

    if (!r.mask.empty() &&
        static_cast<int>(r.mask.pattern.size()) != r.size_bits) {
      diags_.error("DVL114", r.mask.loc,
                   "mask of register '" + r.name + "' has " +
                       std::to_string(r.mask.pattern.size()) +
                       " bits but the register is bit[" +
                       std::to_string(r.size_bits) + "]");
    }
    ri.mask = r.mask.empty() ? std::string(static_cast<size_t>(
                                               std::max(r.size_bits, 1)),
                                           '.')
                             : r.mask.pattern;

    info.registers.emplace(r.name, std::move(ri));
  }
}

void Sema::check_variables(const DeviceDecl& dev, DeviceInfo& info) {
  int next_type_id = 1;
  std::set<std::string> enum_names;  // symbolic names must be spec-unique

  for (const auto& v : dev.variables) {
    if (info.variables.count(v.name)) {
      diags_.error("DVL120", v.loc, fmt("duplicate variable ", v.name, ""));
      continue;
    }

    VarInfo vi;
    vi.decl = &v;
    vi.type_id = next_type_id++;

    bool readable = true, writable = true;
    int total_width = 0;
    for (const auto& f : v.fragments) {
      auto rit = info.registers.find(f.reg);
      if (rit == info.registers.end()) {
        diags_.error("DVL121", f.loc,
                     fmt("variable ", v.name, "") + " refers to unknown register '" +
                         f.reg + "'");
        continue;
      }
      const RegInfo& ri = rit->second;
      int size = ri.decl->size_bits;
      int msb = f.has_range ? f.msb : size - 1;
      int lsb = f.has_range ? f.lsb : 0;
      if (msb < lsb || lsb < 0 || msb >= size) {
        diags_.error("DVL122", f.loc,
                     "bit range [" + std::to_string(f.msb) + ".." +
                         std::to_string(f.lsb) + "] of register '" + f.reg +
                         "' is outside bit[" + std::to_string(size) + "]");
        continue;
      }
      for (int b = lsb; b <= msb; ++b) {
        if (ri.mask_bit(b) != '.') {
          diags_.error("DVL123", f.loc,
                       "variable '" + v.name + "' uses bit " +
                           std::to_string(b) + " of register '" + f.reg +
                           "', which the mask marks irrelevant ('" +
                           std::string(1, ri.mask_bit(b)) + "')");
        }
      }
      total_width += msb - lsb + 1;
      readable = readable && can_read(ri.access);
      writable = writable && can_write(ri.access);
    }
    vi.width_bits = total_width;
    if (!readable && !writable) {
      diags_.error("DVL124", v.loc,
                   fmt("variable ", v.name,
                       " is neither readable nor writable through its registers"));
    }
    vi.access = readable ? (writable ? Access::kReadWrite : Access::kRead)
                         : Access::kWrite;

    // --- type checks ---
    const TypeExpr& ty = v.type;
    int ty_width = type_width_bits(ty);
    if ((ty.kind == TypeKind::kInt || ty.kind == TypeKind::kSignedInt) &&
        (ty.width_bits <= 0 || ty.width_bits > 64)) {
      diags_.error("DVL137", ty.loc,
                   fmt("variable ", v.name, " has an invalid integer width"));
    }
    if (ty.kind == TypeKind::kIntSet) {
      std::set<uint64_t> seen;
      for (uint64_t val : ty.set_values) {
        if (!seen.insert(val).second) {
          diags_.error("DVL135", ty.loc,
                       "duplicate element " + std::to_string(val) +
                           " in integer-set type of '" + v.name + "'");
        }
      }
      if (ty.set_values.empty()) {
        diags_.error("DVL136", ty.loc,
                     fmt("integer-set type of ", v.name, " is empty"));
      }
    }
    if (ty.kind == TypeKind::kEnum) {
      std::set<std::string> read_pats, write_pats;
      for (const auto& item : ty.items) {
        if (!enum_names.insert(item.name).second) {
          diags_.error("DVL133", item.loc,
                       fmt("symbolic name ", item.name,
                           " is already defined in this specification"));
        }
        for (char c : item.pattern) {
          if (c != '0' && c != '1') {
            diags_.error("DVL132", item.loc,
                         fmt("bit pattern of ", item.name,
                             " may contain only '0' and '1'"));
            break;
          }
        }
        if (static_cast<int>(item.pattern.size()) != ty_width) {
          diags_.error("DVL131", item.loc,
                       "bit pattern of '" + item.name + "' has " +
                           std::to_string(item.pattern.size()) +
                           " bits; other patterns in the type have " +
                           std::to_string(ty_width));
        }
        bool rd = item.dir != MappingDir::kWrite;
        bool wr = item.dir != MappingDir::kRead;
        if (rd && !read_pats.insert(item.pattern).second) {
          diags_.error("DVL134", item.loc,
                       fmt("bit pattern of ", item.name,
                           " duplicates another read mapping"));
        }
        if (wr && !write_pats.insert(item.pattern).second) {
          diags_.error("DVL139", item.loc,
                       fmt("bit pattern of ", item.name,
                           " duplicates another write mapping"));
        }
        // A mapping direction must be compatible with the variable access
        // ("a type for reading ... must be used with a readable variable").
        if (rd && !can_read(vi.access)) {
          diags_.error("DVL200", item.loc,
                       fmt("read mapping ", item.name,
                           " on a variable that is not readable"));
        }
        if (wr && !can_write(vi.access)) {
          diags_.error("DVL201", item.loc,
                       fmt("write mapping ", item.name,
                           " on a variable that is not writable"));
        }
      }
      // Exhaustiveness: when the variable is readable, every possible bit
      // pattern must have a read mapping (paper: "Read elements of a type
      // mapping must be exhaustive").
      if (can_read(vi.access) && !read_pats.empty() && ty_width > 0 &&
          ty_width <= 16) {
        uint64_t want = 1ULL << ty_width;
        if (read_pats.size() != want) {
          diags_.error("DVL210", ty.loc,
                       "read mappings of variable '" + v.name + "' cover " +
                           std::to_string(read_pats.size()) + " of " +
                           std::to_string(want) + " possible patterns");
        }
      }
      // A write-only or read-write enum must have at least one write item to
      // be usable for writing; require it only when the variable cannot be
      // read at all (otherwise a read-only view is legitimate).
      if (!can_read(vi.access) && write_pats.empty()) {
        diags_.error("DVL202", ty.loc,
                     fmt("variable ", v.name,
                         " is write-only but its type has no write mappings"));
      }
    }

    if (total_width != ty_width) {
      diags_.error("DVL130", v.loc,
                   "variable '" + v.name + "' concatenates " +
                       std::to_string(total_width) +
                       " register bits but its type needs " +
                       std::to_string(ty_width));
    }
    if (ty.kind == TypeKind::kIntSet && total_width > 0 && total_width <= 63) {
      for (uint64_t val : ty.set_values) {
        if (val >= (1ULL << total_width)) {
          diags_.error("DVL138", ty.loc,
                       "set element " + std::to_string(val) + " of variable '" +
                           v.name + "' does not fit in " +
                           std::to_string(total_width) + " bits");
        }
      }
    }

    info.variables.emplace(v.name, std::move(vi));
  }
}

void Sema::check_pre_actions(const DeviceDecl& dev, DeviceInfo& info) {
  for (const auto& r : dev.registers) {
    for (const auto& pa : r.pre_actions) {
      auto vit = info.variables.find(pa.var);
      if (vit == info.variables.end()) {
        diags_.error("DVL150", pa.loc,
                     fmt("pre-action assigns unknown variable ", pa.var, ""));
        continue;
      }
      const VarInfo& vi = vit->second;
      if (!can_write(vi.access)) {
        diags_.error("DVL151", pa.loc,
                     fmt("pre-action assigns read-only variable ", pa.var, ""));
      }
      // Value must be representable in the variable's type.
      const TypeExpr& ty = vi.decl->type;
      bool in_range = true;
      switch (ty.kind) {
        case TypeKind::kInt:
        case TypeKind::kBool:
          in_range = vi.width_bits >= 64 || pa.value < (1ULL << vi.width_bits);
          break;
        case TypeKind::kSignedInt:
          in_range = vi.width_bits >= 64 || pa.value < (1ULL << vi.width_bits);
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
        diags_.error("DVL152", pa.loc,
                     "pre-action value " + std::to_string(pa.value) +
                         " is outside the type of variable '" + pa.var + "'");
      }
    }
  }
}

void Sema::check_overlap(const DeviceDecl& dev, DeviceInfo& info) {
  // "Each port must appear only once in the register definitions, except when
  //  registers are defined using disjoint pre-actions or masks. However, a
  //  single port may be used for reading by one register and writing to
  //  another."
  struct Use {
    const RegisterDecl* reg;
    bool read;
  };
  std::map<std::pair<std::string, uint64_t>, std::vector<Use>> uses;
  for (const auto& r : dev.registers) {
    for (const auto& b : r.bindings) {
      if (!info.ports.count(b.port.base)) continue;  // already diagnosed
      auto key = std::make_pair(b.port.base, b.port.offset);
      if (can_read(b.access)) uses[key].push_back({&r, true});
      if (can_write(b.access)) uses[key].push_back({&r, false});
    }
  }

  auto pre_actions_disjoint = [](const RegisterDecl& a, const RegisterDecl& b) {
    // Disjoint if they set the same selector variable to different values.
    for (const auto& pa : a.pre_actions) {
      for (const auto& pb : b.pre_actions) {
        if (pa.var == pb.var && pa.value != pb.value) return true;
      }
    }
    return false;
  };
  auto masks_disjoint = [&](const RegisterDecl& a, const RegisterDecl& b) {
    // Disjoint if no bit is relevant ('.') in both masks.
    auto ra = info.registers.find(a.name);
    auto rb = info.registers.find(b.name);
    if (ra == info.registers.end() || rb == info.registers.end()) return false;
    if (a.size_bits != b.size_bits) return false;
    if (static_cast<int>(ra->second.mask.size()) != a.size_bits ||
        static_cast<int>(rb->second.mask.size()) != b.size_bits)
      return false;
    for (int i = 0; i < a.size_bits; ++i) {
      if (ra->second.mask_bit(i) == '.' && rb->second.mask_bit(i) == '.')
        return false;
    }
    return true;
  };

  for (const auto& [key, vec] : uses) {
    for (size_t i = 0; i < vec.size(); ++i) {
      for (size_t j = i + 1; j < vec.size(); ++j) {
        if (vec[i].reg == vec[j].reg) continue;
        if (vec[i].read != vec[j].read) continue;  // read vs write is fine
        if (pre_actions_disjoint(*vec[i].reg, *vec[j].reg)) continue;
        if (masks_disjoint(*vec[i].reg, *vec[j].reg)) continue;
        diags_.error("DVL220", vec[j].reg->loc,
                     "registers '" + vec[i].reg->name + "' and '" +
                         vec[j].reg->name + "' both use port '" + key.first +
                         "' @ " + std::to_string(key.second) + " for " +
                         (vec[i].read ? "reading" : "writing") +
                         " without disjoint pre-actions or masks");
      }
    }
  }

  // "No bit of a single register can be used in the definition of two
  //  different variables." Every claim of a bit is kept, in claim order, as
  //  a list threaded through `claims`; a later variable is reported once per
  //  earlier claim by another name.
  struct Claim {
    const std::string* owner;
    int next;  // the bit's next claim in `claims`, -1 at the end
  };
  struct BitClaims {
    std::vector<int> first, last;  // per bit: indices into `claims`, or -1
  };
  std::vector<Claim> claims;
  std::map<std::string, BitClaims> bit_claims;
  for (const auto& v : dev.variables) {
    for (const auto& f : v.fragments) {
      auto rit = info.registers.find(f.reg);
      if (rit == info.registers.end()) continue;
      int size = rit->second.decl->size_bits;
      int msb = f.has_range ? f.msb : size - 1;
      int lsb = f.has_range ? f.lsb : 0;
      if (msb < lsb || lsb < 0 || msb >= size) continue;  // already diagnosed
      BitClaims& reg = bit_claims[f.reg];
      if (reg.first.empty()) {
        reg.first.assign(static_cast<size_t>(size), -1);
        reg.last.assign(static_cast<size_t>(size), -1);
      }
      for (int b = lsb; b <= msb; ++b) {
        for (int c = reg.first[b]; c >= 0; c = claims[c].next) {
          if (*claims[c].owner != v.name) {
            diags_.error("DVL221", f.loc,
                         "bit " + std::to_string(b) + " of register '" + f.reg +
                             "' is used by both '" + *claims[c].owner +
                             "' and '" + v.name + "'");
          }
        }
        int claim = static_cast<int>(claims.size());
        claims.push_back({&v.name, -1});
        if (reg.last[b] >= 0) {
          claims[reg.last[b]].next = claim;
        } else {
          reg.first[b] = claim;
        }
        reg.last[b] = claim;
      }
    }
  }
}

void Sema::check_no_omission(const DeviceDecl& dev, DeviceInfo& info) {
  // Every register must be used by some variable. `covered` has an entry for
  // every register name a fragment uses, holding one flag per bit of the
  // declared register (empty for unknown registers and bad ranges).
  std::map<std::string, std::vector<bool>> covered;
  for (const auto& v : dev.variables) {
    for (const auto& f : v.fragments) {
      std::vector<bool>& bits = covered[f.reg];
      auto rit = info.registers.find(f.reg);
      if (rit == info.registers.end()) continue;
      int size = rit->second.decl->size_bits;
      int msb = f.has_range ? f.msb : size - 1;
      int lsb = f.has_range ? f.lsb : 0;
      if (msb < lsb || lsb < 0 || msb >= size) continue;
      if (bits.empty()) bits.resize(static_cast<size_t>(size));
      std::fill(bits.begin() + lsb, bits.begin() + msb + 1, true);
    }
  }
  for (const auto& r : dev.registers) {
    auto cit = covered.find(r.name);
    if (cit == covered.end()) {
      diags_.error("DVL230", r.loc,
                   fmt("register ", r.name, " is not used by any variable"));
      continue;
    }
    auto rit = info.registers.find(r.name);
    if (rit == info.registers.end()) continue;
    const std::vector<bool>& bits = cit->second;
    for (int b = 0; b < r.size_bits; ++b) {
      if (rit->second.mask_bit(b) == '.' &&
          (static_cast<size_t>(b) >= bits.size() || !bits[b])) {
        diags_.error("DVL231", r.loc,
                     "relevant bit " + std::to_string(b) + " of register '" +
                         r.name + "' is not covered by any variable");
      }
    }
  }

  // Every port parameter, and every offset of its declared range, must be
  // used by some register.
  std::map<std::string, std::set<uint64_t>> used_offsets;
  for (const auto& r : dev.registers) {
    for (const auto& b : r.bindings) used_offsets[b.port.base].insert(b.port.offset);
  }
  for (const auto& p : dev.params) {
    auto it = used_offsets.find(p.name);
    if (it == used_offsets.end()) {
      diags_.error("DVL232", p.loc,
                   fmt("port parameter ", p.name, " is never used"));
      continue;
    }
    for (uint64_t off : p.offsets) {
      if (!it->second.count(off)) {
        diags_.error("DVL233", p.loc,
                     "offset " + std::to_string(off) + " of port '" + p.name +
                         "' is declared but never used");
      }
    }
  }
}

}  // namespace devil
