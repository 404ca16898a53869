// Per-host chunk cache: a byte-bounded LRU over content-addressed chunks.
// The cache is what makes the Nth service creation on a host cheap — chunks
// survive node teardown and service re-creation, and its contents feed the
// Master's chunk-location registry so peers can prime from this host.
// Iteration order and eviction order are fully deterministic (recency list),
// so seeded replicas evict identically.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "image/chunk.hpp"

namespace soda::image {

class ImageCache {
 public:
  /// `capacity_bytes` == 0 disables caching entirely (every insert is
  /// rejected); chunks larger than the capacity are never cached.
  explicit ImageCache(std::int64_t capacity_bytes = 0);

  /// True if the chunk is resident. Does not touch recency.
  [[nodiscard]] bool contains(ChunkId id) const;

  /// Marks the chunk most-recently-used; false if absent.
  bool touch(ChunkId id);

  /// Inserts a chunk (most-recently-used), evicting least-recently-used
  /// chunks until it fits. Returns the evicted chunk ids in eviction order
  /// (empty when nothing was displaced). A chunk that cannot fit at all, or
  /// is already resident, inserts nothing.
  std::vector<ChunkId> insert(const ChunkInfo& chunk);

  /// Removes one chunk; false if absent.
  bool erase(ChunkId id);

  /// Drops everything (host crash / explicit drop-cache).
  void clear();

  /// Re-bounds the cache, evicting LRU chunks if needed; returns evictions.
  std::vector<ChunkId> set_capacity(std::int64_t capacity_bytes);

  /// Resident chunk ids, most-recently-used first.
  [[nodiscard]] std::vector<ChunkId> chunks() const;

  [[nodiscard]] std::int64_t capacity_bytes() const noexcept { return capacity_; }
  [[nodiscard]] std::int64_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept { return index_.size(); }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t insertions() const noexcept { return insertions_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Checkpoints residents in recency order (front = most recent) plus the
  /// hit/miss counters; eviction behaviour after restore is bit-identical.
  /// A load needs a cache constructed with the same capacity.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("image_cache");
    ar.expect("image cache capacity mismatch").i64(capacity_);
    ar.seq(lru_, [&ar](auto& entry) {
      ar.u64(entry.id.digest);
      ar.i64(entry.bytes);
    });
    ar.u64(hits_);
    ar.u64(misses_);
    ar.u64(insertions_);
    ar.u64(evictions_);
    ar.end_section();
    if constexpr (Ar::kLoading) {
      index_.clear();
      used_ = 0;
      for (auto it = lru_.begin(); it != lru_.end(); ++it) {
        used_ += it->bytes;
        index_.emplace(it->id.digest, it);
      }
    }
  }

 private:
  struct Entry {
    ChunkId id;
    std::int64_t bytes = 0;
  };

  std::int64_t capacity_;
  std::int64_t used_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace soda::image
