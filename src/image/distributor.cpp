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
/// In-flight chunk transfers per image job (p2p mode).
constexpr std::size_t kMaxParallelChunkFetches = 4;
}  // namespace

// --- ChunkRegistry ----------------------------------------------------------

ChunkRegistry::~ChunkRegistry() {
  for (auto& [name, member] : members_) member->registry_ = nullptr;
}

void ChunkRegistry::attach(ImageDistributor* distributor) {
  SODA_EXPECTS(distributor != nullptr);
  auto [it, fresh] =
      members_.try_emplace(distributor->host_name(), distributor);
  if (fresh) {
    strays_ -= held_by(it->first);
    return;
  }
  // The displaced distributor may outlive this registry: it must not
  // detach from it later.
  if (it->second != distributor) it->second->registry_ = nullptr;
  it->second = distributor;
}

void ChunkRegistry::detach(const ImageDistributor* distributor) {
  if (distributor == nullptr) return;
  auto it = members_.find(distributor->host_name());
  if (it == members_.end() || it->second != distributor) return;
  members_.erase(it);
  strays_ += held_by(distributor->host_name());
}

void ChunkRegistry::report_chunk(const std::string& host, ChunkId chunk) {
  auto& hosts = holders_[chunk.digest];
  auto it = std::lower_bound(hosts.begin(), hosts.end(), host);
  if (it != hosts.end() && *it == host) return;
  if (!is_member(host)) ++strays_;
  hosts.insert(it, host);
  ++reports_;
}

void ChunkRegistry::drop_chunk(const std::string& host, ChunkId chunk) {
  auto holder_it = holders_.find(chunk.digest);
  if (holder_it == holders_.end()) return;
  auto& hosts = holder_it->second;
  auto it = std::lower_bound(hosts.begin(), hosts.end(), host);
  if (it == hosts.end() || *it != host) return;
  if (!is_member(host)) --strays_;
  hosts.erase(it);
  ++drops_;
  if (hosts.empty()) holders_.erase(holder_it);
}

void ChunkRegistry::remove_host(const std::string& host) {
  const bool attached = is_member(host);
  std::size_t held = 0;
  for (auto it = holders_.begin(); it != holders_.end();) {
    auto& hosts = it->second;
    auto pos = std::lower_bound(hosts.begin(), hosts.end(), host);
    if (pos != hosts.end() && *pos == host) {
      hosts.erase(pos);
      ++held;
    }
    it = hosts.empty() ? holders_.erase(it) : std::next(it);
  }
  if (!attached) strays_ -= held;
  if (held > 0) ++removals_;
  // Tell the survivors even if the host held nothing: they may have flows
  // in flight from it that were dispatched before its last drop.
  for (auto& [name, member] : members_) {
    if (name != host) member->on_peer_lost(host);
  }
}

std::optional<ChunkRegistry::Peer> ChunkRegistry::locate(
    ChunkId chunk, const std::string& requester) const {
  const auto it = holders_.find(chunk.digest);
  if (it == holders_.end()) return std::nullopt;
  const std::vector<std::string>& hosts = it->second;
  const std::uint64_t key =
      util::fnv1a(util::kFnvBasis, requester) ^ chunk.digest;
  const auto peer = [this](const std::string& host) {
    return Peer{host, members_.at(host)->node()};
  };
  if (strays_ == 0) {
    // Every holder is a member, so the candidates are the holders less the
    // requester: index them as if the requester's slot were not there.
    const auto self = std::lower_bound(hosts.begin(), hosts.end(), requester);
    const bool holds = self != hosts.end() && *self == requester;
    const std::size_t count = hosts.size() - (holds ? 1 : 0);
    if (count == 0) return std::nullopt;
    auto index = static_cast<std::size_t>(key % count);
    if (holds && index >= static_cast<std::size_t>(self - hosts.begin())) {
      ++index;
    }
    return peer(hosts[index]);
  }
  const auto eligible = [&](const std::string& host) {
    return host != requester && is_member(host);
  };
  const auto count = static_cast<std::size_t>(
      std::count_if(hosts.begin(), hosts.end(), eligible));
  if (count == 0) return std::nullopt;
  auto index = static_cast<std::size_t>(key % count);
  for (const std::string& host : hosts) {
    if (eligible(host) && index-- == 0) return peer(host);
  }
  return std::nullopt;  // unreachable: `count` hosts are eligible
}

std::size_t ChunkRegistry::holder_count(ChunkId chunk) const {
  auto it = holders_.find(chunk.digest);
  return it == holders_.end() ? 0 : it->second.size();
}

std::size_t ChunkRegistry::held_by(const std::string& host) const {
  std::size_t held = 0;
  for (const auto& [digest, hosts] : holders_) {
    if (std::binary_search(hosts.begin(), hosts.end(), host)) ++held;
  }
  return held;
}

void ChunkRegistry::count_strays() {
  strays_ = 0;
  for (const auto& [digest, hosts] : holders_) {
    for (const std::string& host : hosts) {
      if (!is_member(host)) ++strays_;
    }
  }
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
    const std::uint64_t key = util::fnv1a(util::kFnvBasis, host_name_);
    const std::size_t offset =
        count > 0 ? static_cast<std::size_t>(key % count) : 0;
    for (std::size_t i = 0; i < count; ++i) {
      job->queue.push_back((offset + i) % count);
    }
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
  while (!job->queue.empty() &&
         job->inflight.size() < kMaxParallelChunkFetches) {
    const std::size_t index = job->queue.front();
    job->queue.pop_front();
    const ChunkInfo& chunk = job->image->manifest.chunks[index];
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
  auto [it, fresh] = transfers_.try_emplace(chunk.id.digest);
  Transfer& transfer = it->second;
  transfer.jobs.push_back(job);
  job->inflight.insert(chunk.id.digest);
  if (!fresh) {
    ++chunks_coalesced_;
    return;
  }
  transfer.chunk = chunk;
  start_transfer(transfer);
}

void ImageDistributor::start_transfer(Transfer& transfer) {
  const std::uint64_t digest = transfer.chunk.id.digest;
  if (config_.p2p && registry_ != nullptr) {
    if (auto peer = registry_->locate(transfer.chunk.id, host_name_)) {
      auto flow = network_.start_flow(
          peer->node, host_node_, transfer.chunk.bytes + kPeerRequestBytes,
          [this, digest](sim::SimTime at) {
            finish_transfer(digest, at, /*from_peer=*/true);
          });
      if (flow.ok()) {
        transfer.from_peer = true;
        transfer.peer = peer->host;
        transfer.flow = flow.value();
        return;
      }
    }
  }
  transfer.from_peer = false;
  transfer.peer.clear();
  transfer.flow = net::FlowId{};
  const ImageLocation& location = transfer.jobs.front()->location;
  if (directory_->find(location.repository) == nullptr) {
    fail_transfer(digest, repository_unavailable(location.repository));
    return;
  }
  // `transfer` may be destroyed by a synchronous failure inside the
  // downloader callback; nothing below may touch it.
  downloader_.download_range(
      location, transfer.chunk.bytes,
      [this, digest](Result<std::int64_t> got, sim::SimTime at) {
        auto it = transfers_.find(digest);
        if (it == transfers_.end()) return;         // aborted (host crash)
        if (it->second.from_peer) return;           // superseded by a peer
        if (!got.ok()) {
          fail_transfer(digest, got.error());
          return;
        }
        finish_transfer(digest, at, /*from_peer=*/false);
      });
}

void ImageDistributor::finish_transfer(std::uint64_t digest, sim::SimTime at,
                                       bool from_peer) {
  auto it = transfers_.find(digest);
  if (it == transfers_.end()) return;
  Transfer transfer = std::move(it->second);
  transfers_.erase(it);
  if (from_peer) {
    ++chunks_from_peers_;
    peer_bytes_ += transfer.chunk.bytes;
  } else {
    ++chunks_from_origin_;
    origin_bytes_ += transfer.chunk.bytes;
  }
  store_chunk(transfer.chunk);
  for (const JobPtr& job : transfer.jobs) {
    if (job->dead) continue;
    job->inflight.erase(digest);
    ++job->done;
  }
  for (const JobPtr& job : transfer.jobs) {
    if (!job->dead) pump(job);
  }
  (void)at;
}

void ImageDistributor::fail_transfer(std::uint64_t digest, const Error& error) {
  auto it = transfers_.find(digest);
  if (it == transfers_.end()) return;
  Transfer transfer = std::move(it->second);
  transfers_.erase(it);
  for (const JobPtr& job : transfer.jobs) {
    if (!job->dead) fail_job(job, error);
  }
}

void ImageDistributor::store_chunk(const ChunkInfo& chunk) {
  const std::vector<ChunkId> evicted = cache_.insert(chunk);
  if (registry_ == nullptr) return;
  if (cache_.contains(chunk.id)) registry_->report_chunk(host_name_, chunk.id);
  for (const ChunkId victim : evicted) {
    registry_->drop_chunk(host_name_, victim);
  }
}

void ImageDistributor::maybe_complete(const JobPtr& job) {
  if (job->dead || !job->queue.empty() || !job->inflight.empty() ||
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
  for (auto& [digest, transfer] : transfers_) {
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
  if (registry_ != nullptr) registry_->remove_host(host_name_);
}

void ImageDistributor::on_peer_lost(const std::string& host) {
  if (host == host_name_) return;
  std::vector<std::uint64_t> affected;
  for (const auto& [digest, transfer] : transfers_) {
    if (transfer.from_peer && transfer.peer == host) affected.push_back(digest);
  }
  for (const std::uint64_t digest : affected) {
    auto it = transfers_.find(digest);
    if (it == transfers_.end()) continue;
    network_.cancel_flow(it->second.flow);
    ++peer_failovers_;
    util::global_logger().warn(
        "distributor@" + host_name_,
        "peer " + host + " lost mid-chunk; re-dispatching");
    start_transfer(it->second);
  }
}

void ImageDistributor::drop_cache() {
  if (registry_ != nullptr) {
    for (const ChunkId id : cache_.chunks()) {
      registry_->drop_chunk(host_name_, id);
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
