#include "image/distributor.hpp"

#include <algorithm>
#include <utility>

#include "snapshot/format.hpp"
#include "util/contract.hpp"
#include "util/fnv.hpp"
#include "util/log.hpp"

namespace soda::image {

namespace {
/// Request overhead of one peer chunk fetch (the chunk protocol rides the
/// daemons' existing LAN connections; no per-chunk handshake).
constexpr std::int64_t kPeerRequestBytes = 64;
}  // namespace

// --- ChunkRegistry ----------------------------------------------------------

ChunkRegistry::~ChunkRegistry() {
  for (ImageDistributor* member : members_) {
    if (member != nullptr) member->registry_ = nullptr;
  }
}

ChunkRegistry::Slot ChunkRegistry::intern(const std::string& name) {
  SODA_EXPECTS(names_.size() < kNoSlot);
  const auto [it, fresh] =
      slots_.try_emplace(name, static_cast<Slot>(names_.size()));
  if (fresh) {
    names_.push_back(&it->first);
    members_.push_back(nullptr);
  }
  return it->second;
}

void ChunkRegistry::rank_names() {
  if (rank_.size() == names_.size()) return;
  rank_.resize(names_.size());
  Slot rank = 0;
  for (const auto& [name, slot] : slots_) rank_[slot] = rank++;
}

std::vector<ChunkRegistry::Slot>::const_iterator ChunkRegistry::position(
    const std::vector<Slot>& hosts, Slot host) const {
  return std::lower_bound(
      hosts.begin(), hosts.end(), rank_[host],
      [this](Slot holder, Slot rank) { return rank_[holder] < rank; });
}

std::string_view ChunkRegistry::name(Slot slot) const {
  SODA_EXPECTS(slot < names_.size());
  return *names_[slot];
}

ChunkRegistry::Peer ChunkRegistry::peer(Slot host) const {
  return Peer{*names_[host], members_[host]->node(), host};
}

void ChunkRegistry::attach(ImageDistributor* distributor) {
  SODA_EXPECTS(distributor != nullptr);
  const Slot slot = intern(distributor->host_name());
  distributor->slot_ = slot;
  ImageDistributor*& member = members_[slot];
  // The displaced distributor may outlive this registry: it must not
  // detach from it later.
  if (member != nullptr && member != distributor) member->registry_ = nullptr;
  member = distributor;
}

void ChunkRegistry::detach(const ImageDistributor* distributor) {
  if (distributor == nullptr) return;
  const Slot slot = distributor->slot_;
  if (slot >= members_.size() || members_[slot] != distributor) return;
  remove_host(slot);
  members_[slot] = nullptr;
}

void ChunkRegistry::report_chunk(Slot host, ChunkId chunk) {
  SODA_EXPECTS(is_member(host));
  rank_names();
  auto& hosts = holders_[chunk.digest];
  const auto it = position(hosts, host);
  if (it != hosts.end() && *it == host) return;
  hosts.insert(it, host);
  ++reports_;
}

void ChunkRegistry::drop_chunk(Slot host, ChunkId chunk) {
  SODA_EXPECTS(is_member(host));
  if (!ranked(host)) return;
  const auto holder_it = holders_.find(chunk.digest);
  if (holder_it == holders_.end()) return;
  auto& hosts = holder_it->second;
  const auto it = position(hosts, host);
  if (it == hosts.end() || *it != host) return;
  hosts.erase(it);
  ++drops_;
  if (hosts.empty()) holders_.erase(holder_it);
}

void ChunkRegistry::remove_host(Slot host) {
  SODA_EXPECTS(is_member(host));
  bool held = false;
  if (ranked(host)) {
    for (auto it = holders_.begin(); it != holders_.end();) {
      auto& hosts = it->second;
      const auto pos = position(hosts, host);
      if (pos != hosts.end() && *pos == host) {
        hosts.erase(pos);
        held = true;
      }
      it = hosts.empty() ? holders_.erase(it) : std::next(it);
    }
  }
  if (held) ++removals_;
  // Tell the survivors even if the host held nothing: they may have flows
  // in flight from it that were dispatched before its last drop.
  for (const auto& [name, slot] : slots_) {
    if (slot != host && is_member(slot)) members_[slot]->on_peer_lost(host);
  }
}

std::optional<ChunkRegistry::Peer> ChunkRegistry::locate(
    ChunkId chunk, Slot requester, std::uint64_t requester_hash) const {
  SODA_EXPECTS(is_member(requester));
  const auto it = holders_.find(chunk.digest);
  if (it == holders_.end()) return std::nullopt;
  // Every holder is a member, so the candidates are the holders less the
  // requester: index them as if the requester's slot were not there.
  const std::vector<Slot>& hosts = it->second;
  const auto self =
      ranked(requester) ? position(hosts, requester) : hosts.end();
  const bool holds = self != hosts.end() && *self == requester;
  const std::size_t count = hosts.size() - (holds ? 1 : 0);
  if (count == 0) return std::nullopt;
  const std::uint64_t key = requester_hash ^ chunk.digest;
  auto index = static_cast<std::size_t>(key % count);
  if (holds && index >= static_cast<std::size_t>(self - hosts.begin())) {
    ++index;
  }
  return peer(hosts[index]);
}

std::size_t ChunkRegistry::holder_count(ChunkId chunk) const {
  auto it = holders_.find(chunk.digest);
  return it == holders_.end() ? 0 : it->second.size();
}

// --- ImageDistributor -------------------------------------------------------

ImageDistributor::ImageDistributor(sim::Engine& engine,
                                   net::FlowNetwork& network,
                                   net::NodeId host_node, std::string host_name,
                                   DistributionConfig config)
    : engine_(engine),
      network_(network),
      host_node_(host_node),
      host_name_(std::move(host_name)),
      name_hash_(util::fnv1a(util::kFnvBasis, host_name_)),
      config_(config),
      downloader_(engine, network, host_node),
      cache_(config.cache_bytes) {}

ImageDistributor::~ImageDistributor() {
  if (registry_ != nullptr) registry_->detach(this);
}

void ImageDistributor::configure(const DistributionConfig& config) {
  SODA_EXPECTS(jobs_.empty());
  config_ = config;
  cache_.set_capacity(config.cache_bytes);
}

void ImageDistributor::set_registry(ChunkRegistry* registry) {
  if (registry_ == registry) return;
  if (registry_ != nullptr) registry_->detach(this);
  registry_ = registry;
  if (registry_ != nullptr) registry_->attach(this);
}

void ImageDistributor::set_directory(const RepositoryDirectory* directory) {
  directory_ = directory;
  downloader_.set_directory(directory);
}

void ImageDistributor::fetch(const ImageLocation& location, Callback on_done) {
  SODA_EXPECTS(on_done != nullptr);
  SODA_EXPECTS(directory_ != nullptr);
  if (!config_.enabled) {
    downloader_.download(location, std::move(on_done));
    return;
  }
  const std::string key = location.url();
  if (auto it = jobs_.find(key); it != jobs_.end()) {
    ++images_coalesced_;
    it->second->callbacks.push_back(std::move(on_done));
    return;
  }
  auto lookup = directory_->lookup(location);
  if (!lookup.ok()) {
    // Unknown image or repository: the plain downloader path produces the
    // correct 404-after-round-trip (or injected-failure) behavior.
    downloader_.download(location, std::move(on_done));
    return;
  }

  auto job = std::make_shared<Job>();
  job->key = key;
  job->location = location;
  job->image = std::move(lookup).value();
  job->callbacks.push_back(std::move(on_done));
  jobs_.emplace(key, job);
  ++images_fetched_;

  if (config_.p2p) {
    // Rotate the dispatch order by a host-keyed offset so N replicas
    // priming simultaneously pull distinct chunks from the origin first
    // and can then trade the remainder peer-to-peer.
    const std::size_t count = job->image->manifest.chunks.size();
    job->cursor = count > 0 ? static_cast<std::size_t>(name_hash_ % count) : 0;
    job->undispatched = count;
    pump(job);
    return;
  }

  // Pure-cache mode: serve hits locally, fetch every missing byte from the
  // origin as one ranged transfer (a fully cold cache costs exactly one
  // legacy whole-image download).
  std::int64_t missing_bytes = 0;
  for (const ChunkInfo& chunk : job->image->manifest.chunks) {
    if (cache_.touch(chunk.id)) {
      ++chunks_from_cache_;
      cache_bytes_read_ += chunk.bytes;
      ++job->done;
    } else {
      job->missing.push_back(chunk);
      missing_bytes += chunk.bytes;
    }
  }
  if (job->missing.empty()) {
    maybe_complete(job);
    return;
  }
  downloader_.download_range(
      location, missing_bytes,
      [this, job](Result<std::int64_t> got, sim::SimTime) {
        if (job->dead) return;
        if (!got.ok()) {
          fail_job(job, got.error());
          return;
        }
        for (const ChunkInfo& chunk : job->missing) {
          ++chunks_from_origin_;
          origin_bytes_ += chunk.bytes;
          store_chunk(chunk);
          ++job->done;
        }
        job->missing.clear();
        maybe_complete(job);
      });
}

void ImageDistributor::pump(const JobPtr& job) {
  if (job->dead) return;
  const std::vector<ChunkInfo>& chunks = job->image->manifest.chunks;
  while (job->undispatched > 0 &&
         job->inflight_count < kMaxParallelChunkFetches) {
    const ChunkInfo& chunk = chunks[job->cursor];
    job->cursor = job->cursor + 1 == chunks.size() ? 0 : job->cursor + 1;
    --job->undispatched;
    if (cache_.touch(chunk.id)) {
      ++chunks_from_cache_;
      cache_bytes_read_ += chunk.bytes;
      ++job->done;
      continue;
    }
    begin_chunk_fetch(job, chunk);
    if (job->dead) return;  // a synchronous failure killed the job
  }
  maybe_complete(job);
}

void ImageDistributor::begin_chunk_fetch(const JobPtr& job,
                                         const ChunkInfo& chunk) {
  job->inflight[job->inflight_count++] = chunk.id.digest;
  auto it = transfer_at(chunk.id.digest);
  if (it != transfers_.end() && it->chunk.id == chunk.id) {
    it->joined.push_back(job);
    ++chunks_coalesced_;
    return;
  }
  it = transfers_.insert(it, Transfer{});
  it->chunk = chunk;
  it->job = job;
  start_transfer(*it);
}

std::vector<ImageDistributor::Transfer>::iterator
ImageDistributor::transfer_at(std::uint64_t digest) {
  return std::lower_bound(transfers_.begin(), transfers_.end(), digest,
                          [](const Transfer& transfer, std::uint64_t d) {
                            return transfer.chunk.id.digest < d;
                          });
}

std::vector<ImageDistributor::Transfer>::iterator
ImageDistributor::find_transfer(std::uint64_t digest) {
  const auto it = transfer_at(digest);
  return it != transfers_.end() && it->chunk.id.digest == digest
             ? it
             : transfers_.end();
}

void ImageDistributor::start_transfer(Transfer& transfer) {
  const std::uint64_t digest = transfer.chunk.id.digest;
  if (config_.p2p && registry_ != nullptr) {
    if (auto peer = registry_->locate(transfer.chunk.id, slot_, name_hash_)) {
      auto flow = network_.start_flow(
          peer->node, host_node_, transfer.chunk.bytes + kPeerRequestBytes,
          [this, digest](sim::SimTime) {
            finish_transfer(digest, /*from_peer=*/true);
          });
      if (flow.ok()) {
        transfer.from_peer = true;
        transfer.peer = peer->slot;
        transfer.flow = flow.value();
        return;
      }
    }
  }
  transfer.from_peer = false;
  transfer.peer = ChunkRegistry::kNoSlot;
  transfer.flow = net::FlowId{};
  const ImageLocation& location = transfer.job->location;
  if (directory_->find(location.repository) == nullptr) {
    fail_transfer(digest, repository_unavailable(location.repository));
    return;
  }
  // `transfer` may be destroyed by a synchronous failure inside the
  // downloader callback; nothing below may touch it.
  downloader_.download_range(
      location, transfer.chunk.bytes,
      [this, digest](Result<std::int64_t> got, sim::SimTime) {
        const auto it = find_transfer(digest);
        if (it == transfers_.end()) return;  // aborted (host crash)
        if (it->from_peer) return;           // superseded by a peer
        if (!got.ok()) {
          fail_transfer(digest, got.error());
          return;
        }
        finish_transfer(digest, /*from_peer=*/false);
      });
}

void ImageDistributor::finish_transfer(std::uint64_t digest, bool from_peer) {
  const auto it = find_transfer(digest);
  if (it == transfers_.end()) return;
  Transfer transfer = std::move(*it);
  transfers_.erase(it);
  if (from_peer) {
    ++chunks_from_peers_;
    peer_bytes_ += transfer.chunk.bytes;
  } else {
    ++chunks_from_origin_;
    origin_bytes_ += transfer.chunk.bytes;
  }
  store_chunk(transfer.chunk);
  const auto arrived = [digest](Job& job) {
    if (job.dead) return;
    const auto end = job.inflight.begin() +
                     static_cast<std::ptrdiff_t>(job.inflight_count);
    const auto awaited = std::find(job.inflight.begin(), end, digest);
    SODA_ENSURES(awaited != end);
    *awaited = *(end - 1);
    --job.inflight_count;
    ++job.done;
  };
  arrived(*transfer.job);
  for (const JobPtr& job : transfer.joined) arrived(*job);
  if (!transfer.job->dead) pump(transfer.job);
  for (const JobPtr& job : transfer.joined) {
    if (!job->dead) pump(job);
  }
}

void ImageDistributor::fail_transfer(std::uint64_t digest, const Error& error) {
  const auto it = find_transfer(digest);
  if (it == transfers_.end()) return;
  Transfer transfer = std::move(*it);
  transfers_.erase(it);
  if (!transfer.job->dead) fail_job(transfer.job, error);
  for (const JobPtr& job : transfer.joined) {
    if (!job->dead) fail_job(job, error);
  }
}

void ImageDistributor::store_chunk(const ChunkInfo& chunk) {
  const std::vector<ChunkId> evicted = cache_.insert(chunk);
  if (registry_ == nullptr) return;
  if (cache_.contains(chunk.id)) registry_->report_chunk(slot_, chunk.id);
  for (const ChunkId victim : evicted) registry_->drop_chunk(slot_, victim);
}

void ImageDistributor::maybe_complete(const JobPtr& job) {
  if (job->dead || job->undispatched > 0 || job->inflight_count > 0 ||
      !job->missing.empty()) {
    return;
  }
  SODA_ENSURES(job->done == job->image->manifest.chunks.size());
  // Completion is delivered through the event queue (zero delay) so a
  // fully-cached fetch still calls back asynchronously, like every other
  // download path.
  engine_.schedule_after(sim::SimTime::zero(), [this, job] {
    if (!job->dead) finish_job(job, engine_.now());
  });
}

void ImageDistributor::finish_job(const JobPtr& job, sim::SimTime at) {
  jobs_.erase(job->key);
  job->dead = true;
  std::vector<Callback> callbacks = std::move(job->callbacks);
  auto lookup = directory_->lookup(job->location);
  if (!lookup.ok()) {
    for (Callback& cb : callbacks) {
      cb(Error{"image withdrawn during transfer: " + lookup.error().message},
         at);
    }
    return;
  }
  for (Callback& cb : callbacks) cb(lookup.value(), at);
}

void ImageDistributor::fail_job(const JobPtr& job, const Error& error) {
  job->dead = true;
  jobs_.erase(job->key);
  std::vector<Callback> callbacks = std::move(job->callbacks);
  const sim::SimTime now = engine_.now();
  for (Callback& cb : callbacks) cb(error, now);
}

void ImageDistributor::handle_local_crash() {
  for (const Transfer& transfer : transfers_) {
    if (transfer.from_peer && transfer.flow.valid()) {
      network_.cancel_flow(transfer.flow);
    }
  }
  // Origin range transfers cannot be cancelled through the downloader; their
  // completions find no transfer record and become no-ops.
  transfers_.clear();
  std::map<std::string, JobPtr> jobs = std::move(jobs_);
  jobs_.clear();
  const sim::SimTime now = engine_.now();
  for (auto& [key, job] : jobs) {
    if (job->dead) continue;
    job->dead = true;
    std::vector<Callback> callbacks = std::move(job->callbacks);
    for (Callback& cb : callbacks) {
      cb(Error{"host " + host_name_ + " crashed mid-download"}, now);
    }
  }
  cache_.clear();
  downloader_.reset_connections();
  if (registry_ != nullptr) registry_->remove_host(slot_);
}

void ImageDistributor::on_peer_lost(ChunkRegistry::Slot host) {
  if (host == slot_) return;
  std::vector<std::uint64_t> affected;
  for (const Transfer& transfer : transfers_) {
    if (transfer.from_peer && transfer.peer == host) {
      affected.push_back(transfer.chunk.id.digest);
    }
  }
  for (const std::uint64_t digest : affected) {
    const auto it = find_transfer(digest);
    if (it == transfers_.end()) continue;
    network_.cancel_flow(it->flow);
    ++peer_failovers_;
    util::global_logger().warn(
        "distributor@" + host_name_,
        "peer " + std::string(registry_->name(host)) +
            " lost mid-chunk; re-dispatching");
    start_transfer(*it);
  }
}

void ImageDistributor::drop_cache() {
  if (registry_ != nullptr) {
    for (const ChunkId id : cache_.chunks()) {
      registry_->drop_chunk(slot_, id);
    }
  }
  cache_.clear();
}

template <class Ar>
void ImageDistributor::serialize(Ar& ar) {
  SODA_EXPECTS(jobs_.empty() && transfers_.empty());
  ar.begin_section("distributor");
  auto&& same = ar.expect("distributor config mismatch");
  same.boolean(config_.enabled);
  same.i64(config_.cache_bytes);
  same.i64(kChunkBytes);
  same.boolean(config_.p2p);
  same.i64(kMaxParallelChunkFetches);
  ar.walk(cache_);
  ar.walk(downloader_);
  ar.u64(images_fetched_);
  ar.u64(images_coalesced_);
  ar.u64(chunks_coalesced_);
  ar.u64(chunks_from_cache_);
  ar.u64(chunks_from_peers_);
  ar.u64(chunks_from_origin_);
  ar.i64(cache_bytes_read_);
  ar.i64(peer_bytes_);
  ar.i64(origin_bytes_);
  ar.u64(peer_failovers_);
  ar.end_section();
}
template void ImageDistributor::serialize(snapshot::Writer&);
template void ImageDistributor::serialize(snapshot::Reader&);

}  // namespace soda::image
