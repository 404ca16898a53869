#include "image/chunk.hpp"

#include <string>

#include "image/image.hpp"
#include "util/contract.hpp"
#include "util/fnv.hpp"

namespace soda::image {

ImageManifest build_manifest(const ServiceImage& image) {
  const std::int64_t payload = image.payload_bytes();
  SODA_EXPECTS(payload >= 0 && payload <= kMaxPayloadBytes);
  const std::string image_key = image.name + "-" + image.version;
  ImageManifest manifest;
  manifest.total_bytes = image.packaged_bytes();
  const std::int64_t total = manifest.total_bytes;
  const std::size_t count =
      static_cast<std::size_t>((total + kChunkBytes - 1) / kChunkBytes);
  manifest.chunks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ChunkInfo chunk;
    chunk.index = i;
    const std::int64_t offset = static_cast<std::int64_t>(i) * kChunkBytes;
    chunk.bytes = std::min(kChunkBytes, total - offset);
    // The digest covers the image identity, the chunk position, and the
    // packaged size; the payload itself carries no real bytes in the
    // simulation, so position-in-image stands in for content.
    const std::string preimage = image_key + "#" + std::to_string(i) + "/" +
                                 std::to_string(total);
    // FNV-1a stands in for a cryptographic content digest: collision-free
    // for the handful of distinct images an experiment publishes, and
    // bit-stable across replicas and platforms.
    chunk.id = ChunkId{util::fnv1a(util::kFnvBasis, preimage)};
    manifest.chunks.push_back(chunk);
  }
  return manifest;
}

}  // namespace soda::image
