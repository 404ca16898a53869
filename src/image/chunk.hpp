// Content-addressed image chunking: a packaged service image is split into
// fixed-size chunks, each named by a deterministic digest of the image
// identity and the chunk's position. Chunks are what the per-host cache
// stores, what daemons report to the Master's chunk-location registry, and
// what peer-to-peer priming transfers — so the unit of dedup/caching is
// stable across repositories, service creations, and simulation replicas.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace soda::image {

struct ServiceImage;

/// Content address of one chunk.
struct ChunkId {
  std::uint64_t digest = 0;
  [[nodiscard]] bool valid() const noexcept { return digest != 0; }
  friend constexpr auto operator<=>(ChunkId, ChunkId) noexcept = default;
};

/// One chunk of a packaged image: its address, payload size, and position.
struct ChunkInfo {
  ChunkId id;
  std::int64_t bytes = 0;
  std::size_t index = 0;
};

/// The chunk list of one packaged image, in transfer order. `image_key`
/// identifies the logical image (name + version), deliberately independent
/// of which repository serves it: the same image published in two
/// repositories shares every chunk.
struct ImageManifest {
  std::string image_key;
  std::int64_t total_bytes = 0;
  std::vector<ChunkInfo> chunks;
};

/// Default chunk size: 1 MiB, small enough that an 8-replica swarm spreads
/// load chunk-wise, large enough that per-chunk request overhead stays
/// negligible against the paper's multi-MB images.
inline constexpr std::int64_t kDefaultChunkBytes = 1024 * 1024;

/// Splits `image.packaged_bytes()` into `chunk_bytes`-sized chunks (the last
/// one carries the remainder). Deterministic: the same image always yields
/// the same digests, regardless of repository or host.
[[nodiscard]] ImageManifest build_manifest(const ServiceImage& image,
                                           std::int64_t chunk_bytes =
                                               kDefaultChunkBytes);

}  // namespace soda::image
