#include "support/strings.h"

#include <cctype>

namespace support {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> split_lines(std::string_view s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t nl = s.find('\n', start);
    if (nl == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

int count_code_lines(std::string_view s) {
  int n = 0;
  for (const auto& line : split_lines(s)) {
    size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size()) continue;                       // blank
    if (line.compare(i, 2, "//") == 0) continue;          // comment-only
    ++n;
  }
  return n;
}

std::string splice(std::string_view text, size_t offset, size_t len,
                   std::string_view replacement) {
  std::string out;
  out.reserve(text.size() - len + replacement.size());
  out.append(text.substr(0, offset));
  out.append(replacement);
  out.append(text.substr(offset + len));
  return out;
}

namespace {
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Fnv128& Fnv128::update(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hi_ = (hi_ ^ c) * kFnvPrime;
    lo_ = (lo_ ^ c) * kFnvPrime;
  }
  return *this;
}

Fnv128& Fnv128::update_field(std::string_view bytes) {
  update_u64(bytes.size());
  return update(bytes);
}

Fnv128& Fnv128::update_u64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    unsigned char c = static_cast<unsigned char>(v >> shift);
    hi_ = (hi_ ^ c) * kFnvPrime;
    lo_ = (lo_ ^ c) * kFnvPrime;
  }
  return *this;
}

std::pair<uint64_t, uint64_t> Fnv128::digest() const {
  return {hi_, mix64(lo_)};
}

std::string Fnv128::hex() const {
  auto [hi, lo] = digest();
  return hex128(hi, lo);
}

std::pair<uint64_t, uint64_t> fnv128(std::string_view bytes) {
  return Fnv128().update(bytes).digest();
}

std::string hex128(uint64_t hi, uint64_t lo) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 15; i >= 0; --i, hi >>= 4) out[i] = kDigits[hi & 0xf];
  for (int i = 31; i >= 16; --i, lo >>= 4) out[i] = kDigits[lo & 0xf];
  return out;
}

}  // namespace support
