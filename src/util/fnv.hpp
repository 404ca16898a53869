// FNV-1a 64: the one hash primitive behind every checksum, digest and
// content id in the simulator. Two offset bases are in use; committed
// artifacts pin each of them, so neither may change.
#pragma once

#include <cstdint>
#include <string_view>

namespace soda::util {

inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// The standard FNV-1a 64 offset basis. Image chunk ids (content addresses
/// that caches and peers agree on) and the streaming-stats and traffic
/// digests start from it.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// The basis of the snapshot checksum, the intern-table string hash and the
/// chaos end-state digest: the standard basis 14695981039346656037 with its
/// last decimal digit dropped. The golden snapshot digest and the checksums
/// of the committed snapshots pin it.
inline constexpr std::uint64_t kFnvBasisSnapshot = 1469598103934665603ULL;

/// Folds `bytes` into `hash`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t hash,
                                            std::string_view bytes) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the eight little-endian bytes of `word` into `hash`.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t hash,
                                                 std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (i * 8)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace soda::util
