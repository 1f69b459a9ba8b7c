#include "mutation/site.h"

#include <algorithm>
#include <set>

#include "support/strings.h"

namespace mutation {

std::string apply_mutant(const std::string& source,
                         const std::vector<Site>& sites, const Mutant& m) {
  const Site& s = sites[m.site];
  return support::splice(source, s.offset, s.length, m.replacement);
}

std::vector<std::string> IdentifierClasses::candidates(
    const std::string& ident) const {
  auto it = class_of.find(ident);
  if (it == class_of.end()) return {};
  std::vector<std::string> out;
  for (const auto& member : members.at(it->second)) {
    if (member != ident) out.push_back(member);
  }
  return out;
}

std::vector<std::string> mutate_digit_string(const std::string& prefix,
                                             const std::string& digits,
                                             const std::string& charset) {
  std::set<std::string> seen;
  std::vector<std::string> out;
  auto emit = [&](const std::string& body) {
    if (body.empty() || body == digits) return;
    if (seen.insert(body).second) out.push_back(prefix + body);
  };

  // Remove one character.
  if (digits.size() > 1) {
    for (size_t i = 0; i < digits.size(); ++i) {
      std::string d = digits;
      d.erase(i, 1);
      emit(d);
    }
  }
  // Insert one character from the class at every position.
  for (size_t i = 0; i <= digits.size(); ++i) {
    for (char c : charset) {
      std::string d = digits;
      d.insert(i, 1, c);
      emit(d);
    }
  }
  // Replace one character with a different one from the class.
  for (size_t i = 0; i < digits.size(); ++i) {
    for (char c : charset) {
      if (c == digits[i]) continue;
      std::string d = digits;
      d[i] = c;
      emit(d);
    }
  }
  return out;
}

namespace {

/// Value of a C integer literal (handles 0x / leading-0 octal / decimal).
uint64_t c_literal_value(const std::string& t) {
  try {
    if (t.size() > 2 && (t[1] == 'x' || t[1] == 'X')) {
      return std::stoull(t.substr(2), nullptr, 16);
    }
    if (t.size() > 1 && t[0] == '0') return std::stoull(t, nullptr, 8);
    return std::stoull(t, nullptr, 10);
  } catch (...) {
    return ~0ULL;  // un-parsable (e.g. '9' digits in octal): treat as unique
  }
}

bool valid_c_literal(const std::string& t) {
  if (t.size() > 2 && (t[1] == 'x' || t[1] == 'X')) return true;
  if (t.size() > 1 && t[0] == '0') {
    // Octal: digits 8 and 9 would not compile; such mutants are rejected by
    // construction (§3.1: mutants are syntactically correct).
    return t.find('8') == std::string::npos &&
           t.find('9') == std::string::npos;
  }
  return true;
}

}  // namespace

std::vector<std::string> mutate_int_literal(const std::string& token,
                                            bool include_o_typo) {
  // Strip integer suffixes; they stay in place after the digits.
  std::string core = token;
  std::string suffix;
  while (!core.empty() &&
         (core.back() == 'u' || core.back() == 'U' || core.back() == 'l' ||
          core.back() == 'L')) {
    suffix.insert(suffix.begin(), core.back());
    core.pop_back();
  }

  std::string prefix, digits, charset;
  if (core.size() > 2 && (core[1] == 'x' || core[1] == 'X')) {
    prefix = core.substr(0, 2);
    digits = core.substr(2);
    charset = "0123456789abcdef";
  } else if (core.size() > 1 && core[0] == '0') {
    prefix = "";
    digits = core;
    charset = "01234567";
  } else {
    prefix = "";
    digits = core;
    charset = "0123456789";
  }

  uint64_t original_value = c_literal_value(core);
  std::vector<std::string> out;
  for (const std::string& cand : mutate_digit_string(prefix, digits, charset)) {
    if (!valid_c_literal(cand)) continue;
    if (c_literal_value(cand) == original_value) continue;  // same semantics
    out.push_back(cand + suffix);
  }
  // Visual-confusion typo from the paper's own motivation ("0xfffff looks
  // similar to Oxffffff"): a leading zero typed as capital O turns the
  // literal into an identifier — still one syntactically valid token in C.
  if (include_o_typo && !core.empty() && core[0] == '0') {
    out.push_back("O" + core.substr(1) + suffix);
  }
  return out;
}

std::vector<std::string> mutate_bit_string(const std::string& body,
                                           const std::string& charset) {
  std::vector<std::string> out;
  for (const std::string& cand : mutate_digit_string("", body, charset)) {
    out.push_back("'" + cand + "'");
  }
  return out;
}

}  // namespace mutation
