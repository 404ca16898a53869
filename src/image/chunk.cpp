#include "image/chunk.hpp"

#include "image/image.hpp"
#include "util/contract.hpp"
#include "util/fnv.hpp"

namespace soda::image {

ImageManifest build_manifest(const ServiceImage& image,
                             std::int64_t chunk_bytes) {
  SODA_EXPECTS(chunk_bytes >= 1);
  ImageManifest manifest;
  manifest.image_key = image.name + "-" + image.version;
  manifest.total_bytes = image.packaged_bytes();
  const std::int64_t total = manifest.total_bytes;
  const std::size_t count =
      static_cast<std::size_t>((total + chunk_bytes - 1) / chunk_bytes);
  manifest.chunks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ChunkInfo chunk;
    chunk.index = i;
    const std::int64_t offset = static_cast<std::int64_t>(i) * chunk_bytes;
    chunk.bytes = std::min(chunk_bytes, total - offset);
    // The digest covers the image identity, the chunk position, and the
    // packaged size; the payload itself carries no real bytes in the
    // simulation, so position-in-image stands in for content.
    const std::string preimage = manifest.image_key + "#" +
                                 std::to_string(i) + "/" +
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
