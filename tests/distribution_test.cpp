// Tests for the content-addressed image-distribution subsystem: chunk
// manifests, the per-host LRU chunk cache, download coalescing, the chunk
// registry and peer-to-peer priming, admission-time cache warming, and
// replica determinism of the whole stack under the parallel runner.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/hup.hpp"
#include "image/cache.hpp"
#include "image/chunk.hpp"
#include "image/distributor.hpp"
#include "image/image.hpp"
#include "scenario/scenario.hpp"
#include "sim/parallel_runner.hpp"
#include "util/log.hpp"

namespace soda::core {
namespace {

host::MachineConfig small_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

image::DistributionConfig cache_only() {
  image::DistributionConfig config;
  config.enabled = true;
  config.p2p = false;
  return config;
}

image::DistributionConfig p2p_mode() {
  image::DistributionConfig config;
  config.enabled = true;
  config.p2p = true;
  return config;
}

TEST(ChunkManifest, DeterministicAndCoversPackagedBytes) {
  const auto image = image::web_content_image(5 * 1024 * 1024 + 123);
  const auto a = image::build_manifest(image);
  const auto b = image::build_manifest(image);
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  ASSERT_FALSE(a.chunks.empty());
  std::int64_t covered = 0;
  std::set<std::uint64_t> digests;
  for (std::size_t i = 0; i < a.chunks.size(); ++i) {
    EXPECT_EQ(a.chunks[i].id, b.chunks[i].id);
    EXPECT_EQ(a.chunks[i].index, i);
    covered += a.chunks[i].bytes;
    digests.insert(a.chunks[i].id.digest);
  }
  EXPECT_EQ(covered, image.packaged_bytes());
  EXPECT_EQ(a.total_bytes, image.packaged_bytes());
  // Content addressing: every chunk of one image is distinct, and the same
  // logical image in a different repository shares the same digests.
  EXPECT_EQ(digests.size(), a.chunks.size());
  // A different image must not collide.
  const auto other = image::build_manifest(image::honeypot_image());
  for (const auto& chunk : other.chunks) {
    EXPECT_EQ(digests.count(chunk.id.digest), 0u);
  }
}

TEST(ChunkCache, LruEvictionIsDeterministic) {
  image::ImageCache cache(3 * 100);
  auto chunk = [](std::uint64_t digest, std::size_t index) {
    return image::ChunkInfo{image::ChunkId{digest}, 100, index};
  };
  EXPECT_TRUE(cache.insert(chunk(1, 0)).empty());
  EXPECT_TRUE(cache.insert(chunk(2, 1)).empty());
  EXPECT_TRUE(cache.insert(chunk(3, 2)).empty());
  EXPECT_EQ(cache.chunk_count(), 3u);

  // Touch 1: order (MRU first) becomes 1, 3, 2 — so 2 is evicted next.
  EXPECT_TRUE(cache.touch(image::ChunkId{1}));
  const auto evicted = cache.insert(chunk(4, 3));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].digest, 2u);
  EXPECT_TRUE(cache.contains(image::ChunkId{1}));
  EXPECT_TRUE(cache.contains(image::ChunkId{3}));
  EXPECT_TRUE(cache.contains(image::ChunkId{4}));
  EXPECT_FALSE(cache.contains(image::ChunkId{2}));

  // Shrinking the bound evicts from the LRU end, in order.
  const auto shed = cache.set_capacity(100);
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[0].digest, 3u);
  EXPECT_EQ(shed[1].digest, 1u);
  EXPECT_EQ(cache.chunk_count(), 1u);
  EXPECT_EQ(cache.used_bytes(), 100);

  // A chunk wider than the whole cache is refused outright.
  EXPECT_TRUE(cache.insert(image::ChunkInfo{image::ChunkId{9}, 1000, 9}).empty());
  EXPECT_FALSE(cache.contains(image::ChunkId{9}));
}

TEST(ChunkRegistry, LocatesSpreadsAndForgetsCrashedHosts) {
  image::ChunkRegistry registry;
  const image::ChunkId chunk{42};
  registry.report_chunk("host-0", chunk);
  registry.report_chunk("host-1", chunk);
  registry.report_chunk("host-1", chunk);  // duplicate report is idempotent
  EXPECT_EQ(registry.holder_count(chunk), 2u);
  EXPECT_EQ(registry.reports(), 2u);
  // Only attached members are eligible peers, and never the requester —
  // with no members attached there is nobody to fetch from.
  EXPECT_FALSE(registry.locate(chunk, "host-2").has_value());
  registry.remove_host("host-0");
  EXPECT_EQ(registry.holder_count(chunk), 1u);
  registry.drop_chunk("host-1", chunk);
  EXPECT_EQ(registry.holder_count(chunk), 0u);
  EXPECT_EQ(registry.tracked_chunks(), 0u);
}

/// Two concurrent fetches of the same image on one host must share one
/// origin transfer and finish at the identical instant.
TEST(Distribution, ConcurrentDuplicateFetchesCoalesce) {
  util::global_logger().set_level(util::LogLevel::kOff);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto host_node = network.add_node("host");
  const auto repo_node = network.add_node("repo");
  network.add_duplex_link(host_node, repo_node, 100,
                          sim::SimTime::microseconds(100));
  image::ImageRepository repo("repo", repo_node);
  const auto location = must(repo.publish(image::web_content_image(4 * 1024 * 1024)));

  image::ImageDistributor distributor(engine, network, host_node, "host",
                                      cache_only());
  std::vector<sim::SimTime> finished;
  for (int i = 0; i < 2; ++i) {
    distributor.fetch(repo, location, [&](auto image, sim::SimTime at) {
      ASSERT_TRUE(image.ok());
      finished.push_back(at);
    });
  }
  EXPECT_EQ(distributor.inflight_jobs(), 1u);
  engine.run();
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0], finished[1]);
  EXPECT_EQ(distributor.downloader().downloads_completed(), 1u);
  EXPECT_EQ(distributor.images_fetched(), 1u);
  EXPECT_EQ(distributor.images_coalesced(), 1u);

  // A third fetch after completion is served from the cache alone: no new
  // download, and the callback still arrives asynchronously.
  bool third = false;
  distributor.fetch(repo, location, [&](auto image, sim::SimTime) {
    ASSERT_TRUE(image.ok());
    third = true;
  });
  EXPECT_FALSE(third);
  engine.run();
  EXPECT_TRUE(third);
  EXPECT_EQ(distributor.downloader().downloads_completed(), 1u);
  EXPECT_GT(distributor.chunks_from_cache(), 0u);
}

/// The host cache outlives service teardown: re-creating a service with the
/// same image downloads nothing.
TEST(Distribution, CachePersistsAcrossServiceCreations) {
  util::global_logger().set_level(util::LogLevel::kOff);
  MasterConfig config;
  config.distribution = cache_only();
  Hup hup(config);
  hup.add_host(host::HostSpec::seattle(), net::Ipv4Address(10, 0, 0, 16), 16);
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(4 * 1024 * 1024)));

  auto create = [&](const std::string& name) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = location;
    request.requirement = {1, small_unit()};
    hup.agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup.engine().run();
    return hup.find_daemon("seattle")->priming_report(name + "/0")->download_time;
  };

  const sim::SimTime cold = create("web");
  EXPECT_GT(cold, sim::SimTime::zero());
  must(hup.agent().service_teardown(
      ServiceTeardownRequest{{"asp", "key"}, "web"}));

  const sim::SimTime warm = create("web2");
  // Every chunk came from the cache; the "download" is a zero-delay event.
  EXPECT_EQ(warm, sim::SimTime::zero());
  const auto& distributor = hup.find_daemon("seattle")->distributor();
  EXPECT_GT(distributor.chunks_from_cache(), 0u);
  EXPECT_EQ(distributor.cache().hits(), distributor.chunks_from_cache());
}

/// N hosts priming the same image simultaneously swarm: each pulls distinct
/// chunks from the origin and trades the rest over the LAN, so origin bytes
/// stay near one image copy instead of N.
TEST(Distribution, PeerToPeerPrimingSharesOriginLoad) {
  util::global_logger().set_level(util::LogLevel::kOff);
  MasterConfig config;
  config.distribution = p2p_mode();
  Hup hup(config);
  constexpr int kHosts = 4;
  for (int i = 0; i < kHosts; ++i) {
    host::HostSpec spec = host::HostSpec::seattle();
    spec.name = "host-" + std::to_string(i);
    hup.add_host(spec, net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
                 16);
  }
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(16 * 1024 * 1024)));

  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = location;
  request.requirement = {kHosts, small_unit()};
  hup.agent().service_creation(
      request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
  hup.engine().run();

  std::int64_t origin_bytes = 0;
  std::int64_t peer_bytes = 0;
  for (int i = 0; i < kHosts; ++i) {
    const auto& distributor =
        hup.find_daemon("host-" + std::to_string(i))->distributor();
    origin_bytes += distributor.bytes_from_origin();
    peer_bytes += distributor.bytes_from_peers();
  }
  const auto manifest =
      image::build_manifest(*must(repo.lookup(location.path)));
  EXPECT_GT(peer_bytes, 0);
  // The origin served well under N full copies (the paper's repository
  // bottleneck), and the swarm covered the rest.
  EXPECT_LT(origin_bytes, (kHosts - 1) * manifest.total_bytes);
  EXPECT_EQ(hup.master().chunk_registry().tracked_chunks(),
            manifest.chunks.size());
}

/// warm_hosts pre-populates target caches so creation skips the origin.
TEST(Distribution, WarmHostsMakesLaterPrimingFree) {
  util::global_logger().set_level(util::LogLevel::kOff);
  MasterConfig config;
  config.distribution = cache_only();
  Hup hup(config);
  for (int i = 0; i < 2; ++i) {
    host::HostSpec spec = host::HostSpec::seattle();
    spec.name = "host-" + std::to_string(i);
    hup.add_host(spec, net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
                 16);
  }
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(4 * 1024 * 1024)));

  bool warmed = false;
  hup.master().warm_hosts(location, {"host-0", "host-1", "no-such-host"},
                          [&](Status status, sim::SimTime) {
                            must(std::move(status));
                            warmed = true;
                          });
  hup.engine().run();
  EXPECT_TRUE(warmed);
  EXPECT_GT(hup.find_daemon("host-0")->distributor().cache().chunk_count(), 0u);
  EXPECT_GT(hup.find_daemon("host-1")->distributor().cache().chunk_count(), 0u);

  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = location;
  request.requirement = {2, small_unit()};
  hup.agent().service_creation(
      request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
  hup.engine().run();
  const ServiceRecord* record = hup.master().find_service("web");
  ASSERT_NE(record, nullptr);
  for (const auto& node : record->nodes) {
    const auto* report =
        hup.find_daemon(node.host_name)->priming_report(node.node_name);
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->download_time, sim::SimTime::zero());
  }
}

/// The full distribution stack — chunk dispatch order, peer selection, LRU
/// eviction — must be bit-identical across seeded replicas, serial or
/// parallel.
TEST(Distribution, ReplicasAreBitIdenticalUnderParallelRunner) {
  auto run_replica = [](std::size_t) -> std::string {
    util::global_logger().set_level(util::LogLevel::kOff);
    MasterConfig config;
    config.distribution = p2p_mode();
    // A tight cache bound forces LRU evictions mid-swarm.
    config.distribution.cache_bytes = 3 * config.distribution.chunk_bytes;
    Hup hup(config);
    for (int i = 0; i < 3; ++i) {
      host::HostSpec spec = host::HostSpec::seattle();
      spec.name = "host-" + std::to_string(i);
      hup.add_host(spec,
                   net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
                   16);
    }
    auto& repo = hup.add_repository("asp-repo");
    hup.agent().register_asp("asp", "key");
    const auto location =
        must(repo.publish(image::web_content_image(8 * 1024 * 1024)));
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = "web";
    request.image_location = location;
    request.requirement = {3, small_unit()};
    hup.agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup.engine().run();

    std::string fingerprint =
        std::to_string(hup.engine().now().ns()) + "|" +
        std::to_string(hup.master().chunk_registry().reports()) + "|" +
        std::to_string(hup.master().chunk_registry().drops());
    for (int i = 0; i < 3; ++i) {
      const auto& d = hup.find_daemon("host-" + std::to_string(i))->distributor();
      fingerprint += "|" + std::to_string(d.chunks_from_peers()) + "," +
                     std::to_string(d.chunks_from_origin()) + "," +
                     std::to_string(d.cache().evictions());
      for (const auto id : d.cache().chunks()) {
        fingerprint += ":" + std::to_string(id.digest);
      }
    }
    return fingerprint;
  };

  constexpr std::size_t kReplicas = 6;
  std::vector<std::string> serial;
  serial.reserve(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) serial.push_back(run_replica(i));
  for (std::size_t i = 1; i < kReplicas; ++i) EXPECT_EQ(serial[i], serial[0]);

  const sim::ParallelRunner runner(4);
  const auto parallel = runner.map(kReplicas, run_replica);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < kReplicas; ++i) EXPECT_EQ(parallel[i], serial[i]);
}

/// Scenario verbs drive the subsystem end to end.
TEST(Distribution, ScenarioVerbsCoverWarmAndCacheExpectations) {
  util::global_logger().set_level(util::LogLevel::kOff);
  const char* script = R"(
    distribution p2p
    host seattle 10.0.0.16
    host seattle 10.0.1.16
    repo asp-repo
    asp acme key
    publish web content-mb=4
    expect-cached seattle 0
    warm web seattle
    expect-cached seattle 1
    create store web n=1
    expect-nodes store 1
    drop-cache seattle
    expect-cached seattle 0
    expect-error warm nope seattle
  )";
  auto scenario = must(Scenario::parse(script));
  const auto transcript = must(scenario.run());
  bool saw_warm = false;
  for (const auto& line : transcript) {
    saw_warm |= line.find("warmed web on seattle") != std::string::npos;
  }
  EXPECT_TRUE(saw_warm);
}

}  // namespace
}  // namespace soda::core
