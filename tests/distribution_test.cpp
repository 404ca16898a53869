// Tests for the content-addressed image-distribution subsystem: chunk
// manifests, the per-host LRU chunk cache, download coalescing, the chunk
// registry and peer-to-peer priming, admission-time cache warming, and
// replica determinism of the whole stack under the parallel runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hup.hpp"
#include "image/cache.hpp"
#include "image/chunk.hpp"
#include "image/distributor.hpp"
#include "image/image.hpp"
#include "scenario/scenario.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/random.hpp"
#include "snapshot/format.hpp"
#include "util/fnv.hpp"
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

/// A chunk registry and its members: one distributor per host name, all
/// on one network. The members die before the registry, detaching as they
/// go.
struct Members {
  Members(sim::Engine& engine, net::FlowNetwork& network)
      : engine(engine), network(network) {}

  sim::Engine& engine;
  net::FlowNetwork& network;
  image::ChunkRegistry registry;
  std::map<std::string, std::unique_ptr<image::ImageDistributor>> by_name;

  /// A fresh distributor for `name` at `node` joins the registry and
  /// displaces any earlier one under the name, which then dies.
  image::ImageDistributor& join(const std::string& name, net::NodeId node) {
    auto fresh = std::make_unique<image::ImageDistributor>(engine, network,
                                                           node, name);
    fresh->set_registry(&registry);
    std::swap(by_name[name], fresh);
    return *by_name[name];
  }
  image::ImageDistributor& join(const std::string& name) {
    return join(name, network.add_node(name));
  }
  [[nodiscard]] image::ChunkRegistry::Slot slot(const std::string& name) const {
    return by_name.at(name)->registry_slot();
  }
  void report(const std::string& host, std::uint64_t chunk) {
    registry.report_chunk(slot(host), image::ChunkId{chunk});
  }
  void drop(const std::string& host, std::uint64_t chunk) {
    registry.drop_chunk(slot(host), image::ChunkId{chunk});
  }
  void remove(const std::string& host) { registry.remove_host(slot(host)); }
  /// The peer the distributor of `requester` would fetch `chunk` from.
  [[nodiscard]] std::optional<image::ChunkRegistry::Peer> locate(
      std::uint64_t chunk, const std::string& requester) const {
    const image::ImageDistributor& member = *by_name.at(requester);
    return registry.locate(image::ChunkId{chunk}, member.registry_slot(),
                           member.name_hash());
  }
  [[nodiscard]] std::size_t holders(std::uint64_t chunk) const {
    return registry.holder_count(image::ChunkId{chunk});
  }
};

TEST(ChunkRegistry, LocatesSpreadsAndForgetsCrashedHosts) {
  sim::Engine engine;
  net::FlowNetwork network(engine);
  Members fleet{engine, network};
  for (const char* host : {"host-0", "host-1", "host-2"}) fleet.join(host);
  constexpr std::uint64_t kChunk = 42;
  fleet.report("host-0", kChunk);
  fleet.report("host-1", kChunk);
  fleet.report("host-1", kChunk);  // duplicate report is idempotent
  EXPECT_EQ(fleet.holders(kChunk), 2u);
  EXPECT_EQ(fleet.registry.reports(), 2u);
  // Never the requester itself.
  EXPECT_EQ(fleet.locate(kChunk, "host-0")->host, "host-1");
  EXPECT_EQ(fleet.locate(kChunk, "host-1")->host, "host-0");
  ASSERT_TRUE(fleet.locate(kChunk, "host-2").has_value());
  fleet.remove("host-0");
  EXPECT_EQ(fleet.holders(kChunk), 1u);
  EXPECT_EQ(fleet.registry.hosts_removed(), 1u);
  EXPECT_EQ(fleet.locate(kChunk, "host-2")->host, "host-1");
  EXPECT_FALSE(fleet.locate(kChunk, "host-1").has_value());
  fleet.drop("host-1", kChunk);
  EXPECT_EQ(fleet.holders(kChunk), 0u);
  EXPECT_EQ(fleet.registry.tracked_chunks(), 0u);
}

/// A distributor displaced by a later one under its name must forget the
/// registry: here the registry dies first, as a Hup's does before its
/// daemons, and the displaced distributor's destructor must not reach it.
TEST(ChunkRegistry, DisplacedMemberMayOutliveRegistry) {
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const net::NodeId node = network.add_node("h");
  auto first =
      std::make_unique<image::ImageDistributor>(engine, network, node, "h");
  {
    image::ChunkRegistry registry;
    first->set_registry(&registry);
    image::ImageDistributor second(engine, network, node, "h");
    second.set_registry(&registry);
  }
  first.reset();
}

/// Every holder is a member: a member that detaches takes its holdings
/// with it, and a load refuses a holder that is not a member of the
/// registry it loads into, whether the name never attached there or left.
TEST(ChunkRegistry, DetachForgetsHoldingsAndLoadRefusesNonMembers) {
  util::global_logger().set_level(util::LogLevel::kOff);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  Members fleet{engine, network};
  fleet.join("a");
  fleet.join("b");
  fleet.join("c");
  fleet.report("a", 1);
  fleet.report("b", 1);
  fleet.report("a", 2);
  fleet.by_name.at("a")->set_registry(nullptr);
  EXPECT_EQ(fleet.holders(1), 1u);
  EXPECT_EQ(fleet.holders(2), 0u);
  EXPECT_EQ(fleet.registry.tracked_chunks(), 1u);
  EXPECT_EQ(fleet.registry.hosts_removed(), 1u);
  EXPECT_EQ(fleet.locate(1, "c")->host, "b");
  EXPECT_FALSE(fleet.locate(1, "b").has_value());
  // A slot that is not a member's cannot hold a chunk.
  EXPECT_DEATH(fleet.report("a", 3), "is_member");

  snapshot::Writer writer;
  fleet.registry.serialize(writer);
  const std::string bytes = writer.finish();
  const auto load = [&bytes](Members& target) {
    snapshot::Reader reader(bytes);
    target.registry.serialize(reader);
    return reader.ok() ? std::string() : reader.error();
  };
  Members stranger{engine, network};  // b never attached here
  stranger.join("a");
  EXPECT_EQ(load(stranger), "chunk holder 'b' is not an attached host");
  Members departed{engine, network};  // b attached here, then left
  departed.join("b").set_registry(nullptr);
  departed.join("c");
  EXPECT_EQ(load(departed), "chunk holder 'b' is not an attached host");
  Members twin{engine, network};
  twin.join("c");
  twin.join("b");
  ASSERT_EQ(load(twin), "");
  EXPECT_EQ(twin.locate(1, "c")->host, "b");
}

/// locate() binary-searches each holder list, so a load refuses one that
/// is out of order.
TEST(ChunkRegistry, LoadRejectsUnsortedHolders) {
  sim::Engine engine;
  net::FlowNetwork network(engine);
  Members fleet{engine, network};
  fleet.join("host-b");
  fleet.join("host-c");
  fleet.report("host-b", 1);
  fleet.report("host-c", 1);
  snapshot::Writer writer;
  fleet.registry.serialize(writer);
  std::string bytes = writer.finish();
  // A name of the same length keeps the layout: holders become {z, c}.
  bytes.replace(bytes.find("host-b"), 6, "host-z");
  const std::uint64_t sum =
      snapshot::fnv1a(std::string_view(bytes).substr(0, bytes.size() - 8));
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  }
  // Both holders are members of the target, so only the order is wrong.
  Members loaded{engine, network};
  loaded.join("host-c");
  loaded.join("host-z");
  snapshot::Reader reader(bytes);
  loaded.registry.serialize(reader);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("ascending"), std::string::npos)
      << reader.error();
}

/// locate() against the rule applied literally: of the chunk's holders in
/// name order, drop the requester, then index the rest by
/// (fnv1a(requester) ^ digest) % count. A seeded walk attaches, detaches
/// and replaces members and reports, drops and removes their holdings;
/// hosts also join mid-walk under names that sort between existing
/// holders and report at once into every held chunk. The reference
/// forgets a member's holdings when it leaves and requires every holder
/// to be a member. After every step every chunk is located for every
/// member. Every few steps the registry is saved and loaded into a fresh
/// registry with the same members: the load must re-save the same bytes
/// and locate exactly as the reference does.
TEST(ChunkRegistry, LocateMatchesTheFilterThenIndexRule) {
  util::global_logger().set_level(util::LogLevel::kOff);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  Members fleet{engine, network};

  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) names.push_back("host-" + std::to_string(i));
  // Hosts that join mid-walk, each under a name between two earlier ones.
  const std::map<int, std::string> arrivals = {
      {130, "host-2m"}, {260, "host-0a"}, {390, "host-4z"}, {520, "host-1b"}};
  // The reference state: members by name, and holders by chunk.
  std::map<std::string, net::NodeId> members;
  std::map<std::uint64_t, std::set<std::string>> holders;
  const std::vector<std::uint64_t> chunks = {11, 12, 13, 0x5eedULL << 40};

  const auto forget = [&](const std::string& host) {
    for (auto it = holders.begin(); it != holders.end();) {
      it->second.erase(host);
      it = it->second.empty() ? holders.erase(it) : std::next(it);
    }
  };
  // A member that leaves takes its holdings with it.
  int left_holding = 0;
  const auto leave = [&](const std::string& host) {
    left_holding += std::any_of(holders.begin(), holders.end(),
                                [&](const auto& chunk) {
                                  return chunk.second.count(host) != 0;
                                });
    forget(host);
    members.erase(host);
  };
  const auto set_attached = [&](const std::string& host, bool attach) {
    image::ImageDistributor& member = *fleet.by_name.at(host);
    if (attach) {
      member.set_registry(&fleet.registry);
      members[host] = member.node();
    } else {
      member.set_registry(nullptr);
      leave(host);
    }
  };
  // A fresh distributor for `host` replaces (and destroys) the old one. An
  // attached one displaces it, holdings included; an unattached one leaves
  // the registry as its predecessor dies.
  const auto replace = [&](const std::string& host, bool attach) {
    if (attach) {
      members[host] = fleet.join(host).node();
      return;
    }
    fleet.by_name[host] = std::make_unique<image::ImageDistributor>(
        engine, network, network.add_node(host), host);
    if (members.count(host) != 0) leave(host);
  };
  const auto report = [&](const std::string& host, std::uint64_t chunk) {
    fleet.report(host, chunk);
    holders[chunk].insert(host);
  };
  const auto reference = [&](std::uint64_t digest, const std::string& requester)
      -> std::optional<std::pair<std::string, net::NodeId>> {
    const auto it = holders.find(digest);
    if (it == holders.end()) return std::nullopt;
    std::vector<std::string> candidates;
    for (const std::string& host : it->second) {
      EXPECT_EQ(members.count(host), 1u) << host << " holds as a non-member";
      if (host != requester) candidates.push_back(host);
    }
    if (candidates.empty()) return std::nullopt;
    const std::uint64_t key = util::fnv1a(util::kFnvBasis, requester);
    const std::string& host = candidates[(key ^ digest) % candidates.size()];
    return std::make_pair(host, members.at(host));
  };
  // Every chunk located for every member of `under_test`.
  const auto check = [&](const Members& under_test, int step) {
    for (const std::uint64_t digest : chunks) {
      const auto held = holders.find(digest);
      ASSERT_EQ(under_test.holders(digest),
                held == holders.end() ? 0u : held->second.size())
          << "step " << step << ", chunk " << digest;
      for (const auto& [requester, node] : members) {
        const auto got = under_test.locate(digest, requester);
        const auto want = reference(digest, requester);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "step " << step << ", chunk " << digest << ", " << requester;
        if (!got) continue;
        ASSERT_EQ(std::string(got->host), want->first)
            << "step " << step << ", chunk " << digest << ", " << requester;
        ASSERT_EQ(got->node, want->second) << "step " << step;
      }
    }
  };
  // Saves the registry and loads it into a fresh one whose members are
  // twins of the current ones (same names and nodes), attached in reverse
  // name order so that they join in another order than the originals.
  const auto round_trip = [&](int step) {
    snapshot::Writer writer;
    fleet.registry.serialize(writer);
    const std::string bytes = writer.finish();
    Members loaded{engine, network};
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      loaded.join(it->first, it->second);
    }
    snapshot::Reader reader(bytes);
    loaded.registry.serialize(reader);
    ASSERT_TRUE(reader.ok()) << "step " << step << ": " << reader.error();
    snapshot::Writer again;
    loaded.registry.serialize(again);
    ASSERT_EQ(again.finish(), bytes) << "step " << step;
    check(loaded, step);
  };
  for (std::size_t i = 0; i < names.size(); ++i) replace(names[i], i % 2 == 0);

  sim::Rng rng(15);
  int round_trips = 0;
  for (int step = 0; step < 600; ++step) {
    if (const auto arrival = arrivals.find(step); arrival != arrivals.end()) {
      // A new member is located against before it holds anything, then
      // reports into every chunk that has holders.
      names.push_back(arrival->second);
      replace(arrival->second, true);
      ASSERT_NO_FATAL_FAILURE(check(fleet, step));
      std::vector<std::uint64_t> held;
      for (const auto& [digest, hosts] : holders) held.push_back(digest);
      for (const std::uint64_t digest : held) report(arrival->second, digest);
    }
    const std::string& host = names[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
    const std::uint64_t chunk =
        chunks[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const bool attached = members.count(host) != 0;
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 8) {
      set_attached(host, !attached);
    } else if (roll < 14) {
      replace(host, rng.uniform_int(0, 3) != 0);
    } else if (!attached) {
      set_attached(host, true);
    } else if (roll < 64) {
      report(host, chunk);
    } else if (roll < 92) {
      fleet.drop(host, chunk);
      if (auto it = holders.find(chunk); it != holders.end()) {
        it->second.erase(host);
        if (it->second.empty()) holders.erase(it);
      }
    } else {
      fleet.remove(host);
      forget(host);
    }

    ASSERT_NO_FATAL_FAILURE(check(fleet, step));
    if (step % 5 == 4) {
      ASSERT_NO_FATAL_FAILURE(round_trip(step));
      ++round_trips;
    }
  }
  // The walk takes holdings away by every route a member can leave by.
  EXPECT_GT(left_holding, 20);
  EXPECT_EQ(round_trips, 120);
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
  image::RepositoryDirectory directory;
  directory.add(&repo);

  image::ImageDistributor distributor(engine, network, host_node, "host",
                                      cache_only());
  distributor.set_directory(&directory);
  std::vector<sim::SimTime> finished;
  for (int i = 0; i < 2; ++i) {
    distributor.fetch(location, [&](auto image, sim::SimTime at) {
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
  distributor.fetch(location, [&](auto image, sim::SimTime) {
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
  const image::ImageManifest manifest =
      must(repo.lookup(location.path))->manifest;
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
    config.distribution.cache_bytes = 3 * image::kChunkBytes;
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
        fingerprint += ':';
        fingerprint += std::to_string(id.digest);
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
