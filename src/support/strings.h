// Small string helpers shared across front ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace support {

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] std::vector<std::string> split_lines(std::string_view s);

/// Counts non-blank, non-comment-only lines ("//" comments), the measure the
/// paper uses for specification sizes in Table 2.
[[nodiscard]] int count_code_lines(std::string_view s);

/// Replaces the byte range [offset, offset+len) of `text` with `replacement`.
[[nodiscard]] std::string splice(std::string_view text, size_t offset,
                                 size_t len, std::string_view replacement);

/// Incremental 128-bit content hash: two independently-seeded FNV-1a 64-bit
/// lanes (the second lane finalised through a splitmix-style mixer). Used
/// for the campaign config fingerprint and the canonical mutant-key hashes
/// in shard artifacts — deterministic across platforms and processes, which
/// std::hash is not. Not cryptographic; inputs are not adversarial.
class Fnv128 {
 public:
  Fnv128& update(std::string_view bytes);
  /// Feeds a length-prefixed field so concatenated updates cannot collide
  /// by shifting bytes between adjacent fields.
  Fnv128& update_field(std::string_view bytes);
  Fnv128& update_u64(uint64_t v);

  /// (hi, lo) lane digests.
  [[nodiscard]] std::pair<uint64_t, uint64_t> digest() const;
  /// 32 lowercase hex chars (hi lane then lo lane).
  [[nodiscard]] std::string hex() const;

 private:
  uint64_t hi_ = 14695981039346656037ULL;           // FNV-1a offset basis
  uint64_t lo_ = 14695981039346656037ULL ^ 0x9e3779b97f4a7c15ULL;
};

/// One-shot convenience over Fnv128::update.
[[nodiscard]] std::pair<uint64_t, uint64_t> fnv128(std::string_view bytes);

/// 32 lowercase hex chars encoding (hi, lo) — the serialized form of
/// Fnv128 digests (shard artifact fingerprints and key hashes).
[[nodiscard]] std::string hex128(uint64_t hi, uint64_t lo);

}  // namespace support
