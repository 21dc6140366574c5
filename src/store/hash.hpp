// 128-bit content hashing for the artifact store.
//
// Cache keys must survive across processes and machines, so the store
// uses MurmurHash3 x64/128 — a stable, well-distributed 128-bit digest —
// rather than the in-memory 64-bit FNV-1a the Session buckets use. 128
// bits makes accidental collisions astronomically unlikely.
//
// FieldHasher builds composite keys from several inputs (tool version,
// process name or bytes) by length-prefixing each field before
// digesting, so ("ab","c") and ("a","bc") never alias.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace lv::store {

struct Key128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Key128&, const Key128&) = default;
};

// MurmurHash3 x64/128 with seed 0.
Key128 hash128(std::string_view data);

// 32 lowercase hex digits (hi then lo), the on-disk file-name form.
std::string to_hex(const Key128& key);

// Composite-key builder: append length-prefixed fields, then digest.
class FieldHasher {
 public:
  FieldHasher& field(std::string_view data);
  Key128 digest() const { return hash128(buf_); }

 private:
  std::string buf_;
};

// FNV-1a 64 over arbitrary bytes — the store's entry checksum (fast,
// and any corruption model it misses is caught by the length/magic
// framing around it).
std::uint64_t fnv1a64(std::string_view data);

}  // namespace lv::store
