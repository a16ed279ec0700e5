#ifndef AUTOCE_UTIL_HASH_H_
#define AUTOCE_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace autoce::util {

/// FNV-1a 64-bit offset basis: the starting value of a fresh hash.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// Folds `n` bytes into the FNV-1a 64-bit hash `h`; byte-wise
/// fingerprints, digests and content-derived keys chain it.
inline uint64_t Fnv1a(const void* data, size_t n,
                      uint64_t h = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace autoce::util

#endif  // AUTOCE_UTIL_HASH_H_
