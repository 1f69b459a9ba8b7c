// Dense bitmap over 1-based source line numbers.
//
// The interpreter marks an executed line once per statement; a std::set
// insert on that path dominated campaign boot time. The bitmap makes the
// mark a word OR and the query a word test, and converts to an ordered set
// only at API boundaries that still want one.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

namespace support {

class LineBitmap {
 public:
  /// The word OR stays inline in the interpreters' dispatch loops; growing
  /// happens once per new highest word and is kept out of line.
  void set(uint32_t line) {
    const size_t word = line >> 6;
    if (word >= words_.size()) [[unlikely]] grow(word);
    words_[word] |= uint64_t{1} << (line & 63);
  }

  [[nodiscard]] bool test(uint32_t line) const {
    size_t word = line >> 6;
    return word < words_.size() &&
           ((words_[word] >> (line & 63)) & 1) != 0;
  }

  [[nodiscard]] bool empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Number of set lines.
  [[nodiscard]] size_t count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  /// Ordered materialisation for callers that want set semantics.
  [[nodiscard]] std::set<uint32_t> to_set() const {
    std::set<uint32_t> out;
    for (size_t word = 0; word < words_.size(); ++word) {
      uint64_t bits = words_[word];
      while (bits) {
        int bit = __builtin_ctzll(bits);
        out.insert(static_cast<uint32_t>((word << 6) + bit));
        bits &= bits - 1;
      }
    }
    return out;
  }

 private:
  [[gnu::cold, gnu::noinline]] void grow(size_t word) {
    words_.resize(word + 1, 0);
  }

  std::vector<uint64_t> words_;
};

}  // namespace support
