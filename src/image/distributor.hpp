// Content-addressed image distribution for one HUP host (the scaling layer
// the paper's single-ASP-repository testbed lacks):
//
//   * per-host chunk cache — chunks survive node teardown and service
//     re-creation (cache.hpp), so the Nth creation is cheap;
//   * download coalescing — concurrent fetches of the same image (or the
//     same chunk) on one host share a single in-flight transfer;
//   * peer-to-peer priming — the Master's ChunkRegistry tracks which hosts
//     hold which chunks; a priming host pulls chunks from already-primed
//     peers over the LAN and only falls back to the origin repository
//     (through HttpDownloader, keeping its keep-alive/retry/backoff
//     machinery) for chunks nobody has yet.
//
// Chunk fetch order is rotated per host so N replicas priming the same
// image simultaneously pull distinct chunks from the origin and then trade
// the rest among themselves, BitTorrent-style. Everything is deterministic:
// peer choice is a hash spread over the sorted holder set, never a race.
//
// Failure semantics: a crashed host drops its cache, keep-alive state, and
// registry entries; peers with in-flight transfers from it cancel them and
// re-dispatch (another peer if one holds the chunk, else the origin).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "image/cache.hpp"
#include "image/chunk.hpp"
#include "image/downloader.hpp"
#include "image/repository.hpp"
#include "net/flow_network.hpp"
#include "sim/engine.hpp"
#include "util/result.hpp"

namespace soda::image {

class ImageDistributor;

/// Distribution tuning, carried in MasterConfig and applied to every
/// registered daemon's distributor. Disabled by default: the legacy
/// whole-image HTTP download path is used unchanged (and timing-identical),
/// so experiments opt in explicitly.
struct DistributionConfig {
  bool enabled = false;
  /// Per-host chunk cache bound; 0 disables caching even when enabled.
  std::int64_t cache_bytes = 512ll * 1024 * 1024;
  /// Fetch chunk-wise from peer hosts via the registry. When off, misses
  /// are fetched from the origin as one ranged transfer (pure caching).
  bool p2p = true;
};

/// Master-side chunk-location registry: which live hosts hold which chunks.
/// Daemons report per chunk as soon as it lands in their cache (and report
/// drops on eviction), so the registry is current mid-priming — that is
/// what lets simultaneous replicas swarm. remove_host() severs a crashed
/// host: its holdings vanish and every other member is told to fail over
/// in-flight transfers from it.
///
/// A host holds chunks only as an attached member, and only for as long
/// as it stays one: every holder is a member. Hosts are dense slots into
/// one table of names. A chunk's holders are a sorted array of slots, kept
/// in name order through each slot's name rank; the ranks are recomputed,
/// in one walk of the names, only when a host whose name arrived since the
/// last ranking reports a chunk (or a load lists it as a holder), so
/// building a fleet ranks nothing.
class ChunkRegistry {
 public:
  /// A host name's index in the registry's name table; a name keeps its
  /// slot for the registry's life.
  using Slot = std::uint32_t;
  /// No slot: a distributor that has never attached.
  static constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

  /// `host` views the registry's own copy of the name, which lives as long
  /// as the registry.
  struct Peer {
    std::string_view host;
    net::NodeId node;
    Slot slot;
  };

  ChunkRegistry() = default;
  ChunkRegistry(const ChunkRegistry&) = delete;
  ChunkRegistry& operator=(const ChunkRegistry&) = delete;
  /// Members and registry deregister from each other whichever dies first
  /// (a Hup destroys the Master — and this registry — before the daemons).
  ~ChunkRegistry();

  /// Adds a host's distributor as a registry member (idempotent per host;
  /// the latest distributor under a name wins, holdings included, and the
  /// one it displaces forgets the registry). The member learns its slot.
  void attach(ImageDistributor* distributor);
  /// Removes the host as remove_host() does, then ends its membership.
  void detach(const ImageDistributor* distributor);

  /// Holdings of the member at slot `host`.
  void report_chunk(Slot host, ChunkId chunk);
  void drop_chunk(Slot host, ChunkId chunk);

  /// Forgets every chunk the member `host` held and notifies the other
  /// members, in name order, so they fail over transfers sourced from it.
  /// The membership survives — a recovered host reports afresh.
  void remove_host(Slot host);

  /// A holder of `chunk` other than the member `requester`, or nullopt.
  /// The choice spreads load deterministically: of the chunk's holders
  /// sorted by name, less the requester, the one at
  /// (requester_hash ^ digest) % count, where `requester_hash` is the
  /// FNV-1a of the requester's name from util::kFnvBasis. One binary
  /// search; allocates and writes nothing.
  [[nodiscard]] std::optional<Peer> locate(ChunkId chunk, Slot requester,
                                           std::uint64_t requester_hash) const;

  [[nodiscard]] std::string_view name(Slot slot) const;
  [[nodiscard]] std::size_t holder_count(ChunkId chunk) const;
  [[nodiscard]] std::size_t tracked_chunks() const noexcept {
    return holders_.size();
  }
  [[nodiscard]] std::uint64_t reports() const noexcept { return reports_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t hosts_removed() const noexcept {
    return removals_;
  }

  /// Checkpoints chunk holdings (each chunk's holder names, in name order)
  /// and counters. Membership is wiring, not state: restore re-attaches
  /// each distributor as its host is rebuilt, before this load, which
  /// refuses a holder that is not an attached member.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("chunk_registry");
    ar.seq(holders_, [this, &ar](auto& chunk) {
      ar.u64(chunk.first);
      ar.seq(chunk.second, [this, &ar](auto& host) {
        if constexpr (Ar::kLoading) {
          std::string name;
          ar.str(name);
          const auto it = slots_.find(name);
          if (it != slots_.end() && is_member(it->second)) {
            host = it->second;
          } else {
            ar.fail("chunk holder '" + name + "' is not an attached host");
          }
        } else {
          ar.str(*names_[host]);
        }
      });
      if constexpr (Ar::kLoading) {
        // locate() and the holder updates binary-search each list.
        const auto& hosts = chunk.second;
        ar.check(std::adjacent_find(hosts.begin(), hosts.end(),
                                    [this](Slot a, Slot b) {
                                      return *names_[a] >= *names_[b];
                                    }) == hosts.end(),
                 "chunk holders not in strictly ascending order");
      }
    });
    ar.u64(reports_);
    ar.u64(drops_);
    ar.u64(removals_);
    ar.end_section();
    if constexpr (Ar::kLoading) rank_names();
  }

 private:
  /// The slot of `name`, given one if the name is new.
  Slot intern(const std::string& name);
  [[nodiscard]] bool is_member(Slot host) const {
    return host < members_.size() && members_[host] != nullptr;
  }
  /// Recomputes every slot's name rank if a name arrived since the last
  /// ranking.
  void rank_names();
  /// False for a slot newer than the last ranking, which holds nothing.
  [[nodiscard]] bool ranked(Slot host) const { return host < rank_.size(); }
  /// Where the ranked `host` sits, or would sit, in a holder list.
  [[nodiscard]] std::vector<Slot>::const_iterator position(
      const std::vector<Slot>& hosts, Slot host) const;
  [[nodiscard]] Peer peer(Slot host) const;

  std::map<std::string, Slot> slots_;       // name -> slot, in name order
  std::vector<const std::string*> names_;   // slot -> key of slots_
  std::vector<ImageDistributor*> members_;  // slot -> member or null
  /// slot -> position of its name in name order, for the slots that
  /// existed at the last ranking. Every holder is ranked; a newer slot
  /// holds nothing until its first report ranks it.
  std::vector<Slot> rank_;
  std::map<std::uint64_t, std::vector<Slot>> holders_;  // by name rank
  std::uint64_t reports_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t removals_ = 0;
};

/// The image-fetch front end of one SODA Daemon. fetch() replaces the
/// daemon's direct HttpDownloader::download() call; with distribution
/// disabled it delegates to exactly that.
class ImageDistributor {
 public:
  using Callback = HttpDownloader::Callback;

  ImageDistributor(sim::Engine& engine, net::FlowNetwork& network,
                   net::NodeId host_node, std::string host_name,
                   DistributionConfig config = {});
  ImageDistributor(const ImageDistributor&) = delete;
  ImageDistributor& operator=(const ImageDistributor&) = delete;
  ~ImageDistributor();

  /// Re-tunes the distributor (Master applies MasterConfig.distribution at
  /// daemon registration). Only valid while no fetch is in flight.
  void configure(const DistributionConfig& config);

  /// Joins / leaves the HUP-wide chunk registry.
  void set_registry(ChunkRegistry* registry);
  /// Repository resolution for this host (also wired into the downloader);
  /// required before the first fetch.
  void set_directory(const RepositoryDirectory* directory);

  /// Delivers the image at `location` (the published pointer, not a
  /// copy), assembling its bytes from the local cache, peer hosts, and the
  /// origin repository as configured, by the image's own manifest.
  /// Concurrent fetches of the same image coalesce onto one job: every
  /// callback fires with the same finished_at.
  void fetch(const ImageLocation& location, Callback on_done);

  /// Host fail-stop: cancels in-flight peer transfers, fails every pending
  /// fetch, drops the cache and keep-alive connections, and leaves the
  /// registry. Origin transfers already in flight die silently (their
  /// completions find no job).
  void handle_local_crash();

  /// Evicts everything, reporting the drops to the registry.
  void drop_cache();

  [[nodiscard]] const std::string& host_name() const noexcept {
    return host_name_;
  }
  [[nodiscard]] net::NodeId node() const noexcept { return host_node_; }
  /// What this host reports and locates by: its slot in the registry it is
  /// attached to (kNoSlot before it first attaches), and the FNV-1a of its
  /// name from util::kFnvBasis.
  [[nodiscard]] ChunkRegistry::Slot registry_slot() const noexcept {
    return slot_;
  }
  [[nodiscard]] std::uint64_t name_hash() const noexcept { return name_hash_; }
  [[nodiscard]] const DistributionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ImageCache& cache() noexcept { return cache_; }
  [[nodiscard]] const ImageCache& cache() const noexcept { return cache_; }
  [[nodiscard]] HttpDownloader& downloader() noexcept { return downloader_; }
  [[nodiscard]] std::size_t inflight_jobs() const noexcept {
    return jobs_.size();
  }

  // --- Distribution statistics ---------------------------------------------
  [[nodiscard]] std::uint64_t images_fetched() const noexcept {
    return images_fetched_;
  }
  [[nodiscard]] std::uint64_t images_coalesced() const noexcept {
    return images_coalesced_;
  }
  [[nodiscard]] std::uint64_t chunks_coalesced() const noexcept {
    return chunks_coalesced_;
  }
  [[nodiscard]] std::uint64_t chunks_from_cache() const noexcept {
    return chunks_from_cache_;
  }
  [[nodiscard]] std::uint64_t chunks_from_peers() const noexcept {
    return chunks_from_peers_;
  }
  [[nodiscard]] std::uint64_t chunks_from_origin() const noexcept {
    return chunks_from_origin_;
  }
  [[nodiscard]] std::int64_t bytes_from_cache() const noexcept {
    return cache_bytes_read_;
  }
  [[nodiscard]] std::int64_t bytes_from_peers() const noexcept {
    return peer_bytes_;
  }
  [[nodiscard]] std::int64_t bytes_from_origin() const noexcept {
    return origin_bytes_;
  }
  [[nodiscard]] std::uint64_t peer_failovers() const noexcept {
    return peer_failovers_;
  }

  /// Checkpoints the cache, downloader, and statistics. In-flight jobs and
  /// chunk transfers hold completion closures and cannot be externalized:
  /// save requires a quiesced distributor (no fetch in flight). Wiring
  /// (registry, directory, config) is re-established by the owner before
  /// a load runs.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  // The registry sets slot_, nulls registry_ when it dies first, and calls
  // on_peer_lost.
  friend class ChunkRegistry;

  /// In-flight chunk transfers per image job (p2p mode).
  static constexpr std::size_t kMaxParallelChunkFetches = 4;

  /// One coalesced image fetch (all callbacks waiting on one location).
  struct Job {
    std::string key;  // location.url()
    ImageLocation location;
    /// The image as published when the fetch began: its manifest lists
    /// the chunks to assemble.
    ImagePtr image;
    std::vector<Callback> callbacks;
    /// p2p rotation cursor: the chunk index dispatched next, and how many
    /// chunks from it (wrapping past the last) are still to dispatch.
    std::size_t cursor = 0;
    std::size_t undispatched = 0;
    /// Digests of the chunks awaited, in no order.
    std::array<std::uint64_t, kMaxParallelChunkFetches> inflight{};
    std::size_t inflight_count = 0;
    std::vector<ChunkInfo> missing;  // p2p-off: chunks in the range fetch
    std::size_t done = 0;
    bool dead = false;
  };
  using JobPtr = std::shared_ptr<Job>;

  /// One in-flight chunk transfer, shared by every job that wants it.
  struct Transfer {
    ChunkInfo chunk;
    bool from_peer = false;
    ChunkRegistry::Slot peer = ChunkRegistry::kNoSlot;
    net::FlowId flow{};
    /// The job that started the transfer (its origin fetches use that
    /// job's location), then any that joined it.
    JobPtr job;
    std::vector<JobPtr> joined;
  };

  /// Registry callback: `host` crashed. Cancels transfers sourced from it
  /// and re-dispatches them (another peer, else origin), in digest order.
  void on_peer_lost(ChunkRegistry::Slot host);
  void pump(const JobPtr& job);
  void begin_chunk_fetch(const JobPtr& job, const ChunkInfo& chunk);
  /// The transfer of `digest`, or where it would go in transfers_.
  std::vector<Transfer>::iterator transfer_at(std::uint64_t digest);
  /// The transfer of `digest`, or transfers_.end().
  std::vector<Transfer>::iterator find_transfer(std::uint64_t digest);
  /// Dispatches (or re-dispatches) the transfer: preferred peer, else origin.
  void start_transfer(Transfer& transfer);
  void finish_transfer(std::uint64_t digest, bool from_peer);
  void fail_transfer(std::uint64_t digest, const Error& error);
  /// Caches the chunk and reports it (and any evictions) to the registry.
  void store_chunk(const ChunkInfo& chunk);
  /// Schedules job completion for this timestep if nothing is outstanding.
  void maybe_complete(const JobPtr& job);
  void finish_job(const JobPtr& job, sim::SimTime at);
  void fail_job(const JobPtr& job, const Error& error);

  sim::Engine& engine_;
  net::FlowNetwork& network_;
  net::NodeId host_node_;
  std::string host_name_;
  std::uint64_t name_hash_;
  ChunkRegistry::Slot slot_ = ChunkRegistry::kNoSlot;
  DistributionConfig config_;
  HttpDownloader downloader_;
  ImageCache cache_;
  ChunkRegistry* registry_ = nullptr;
  const RepositoryDirectory* directory_ = nullptr;
  std::map<std::string, JobPtr> jobs_;  // location url -> job
  /// In-flight chunk transfers, sorted by chunk digest; at most a few per
  /// job, so a flat table (its capacity reused) serves every lookup.
  std::vector<Transfer> transfers_;

  std::uint64_t images_fetched_ = 0;
  std::uint64_t images_coalesced_ = 0;
  std::uint64_t chunks_coalesced_ = 0;
  std::uint64_t chunks_from_cache_ = 0;
  std::uint64_t chunks_from_peers_ = 0;
  std::uint64_t chunks_from_origin_ = 0;
  std::int64_t cache_bytes_read_ = 0;
  std::int64_t peer_bytes_ = 0;
  std::int64_t origin_bytes_ = 0;
  std::uint64_t peer_failovers_ = 0;
};

}  // namespace soda::image
