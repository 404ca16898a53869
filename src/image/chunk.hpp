// Content-addressed image chunking: a packaged service image is split into
// fixed-size chunks, each named by a deterministic digest of the image
// identity and the chunk's position. Chunks are what the per-host cache
// stores, what daemons report to the Master's chunk-location registry, and
// what peer-to-peer priming transfers — so the unit of dedup/caching is
// stable across repositories, service creations, and simulation replicas.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// The chunk list of one packaged image, in transfer order. A repository
/// builds it once, when it publishes the image or a snapshot restores it,
/// and keeps it in the frozen `ServiceImage`.
struct ImageManifest {
  std::int64_t total_bytes = 0;
  std::vector<ChunkInfo> chunks;
};

/// Chunk size: 1 MiB, small enough that an 8-replica swarm spreads load
/// chunk-wise, large enough that per-chunk request overhead stays
/// negligible against the paper's multi-MB images.
inline constexpr std::int64_t kChunkBytes = 1024 * 1024;

/// Splits `image.packaged_bytes()` into kChunkBytes chunks (the last one
/// carries the remainder). Each digest is the FNV-1a of
/// "<name>-<version>#<index>/<total bytes>": the logical image and the
/// chunk's position, deliberately independent of which repository serves
/// it, so the same image published in two repositories shares every chunk.
/// The payload must be at most kMaxPayloadBytes.
[[nodiscard]] ImageManifest build_manifest(const ServiceImage& image);

}  // namespace soda::image
