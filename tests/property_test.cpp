// Property-based tests: invariants that must hold across randomized inputs
// and parameter sweeps (seeds drive deterministic xoshiro streams).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/config_file.hpp"
#include "core/switch.hpp"
#include "net/address.hpp"
#include "net/flow_network.hpp"
#include "os/filesystem.hpp"
#include "sched/cpu_sim.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "util/fnv.hpp"

namespace soda {
namespace {

class SeededTest : public ::testing::TestWithParam<std::uint64_t> {};

/// `prefix` followed by `i`. Built by appending: GCC 12 at -O3 reports a
/// false -Wrestrict on `"h" + std::to_string(i)` at some call sites.
std::string label(std::string prefix, std::int64_t i) {
  prefix += std::to_string(i);
  return prefix;
}

// ---------- Event queue: random schedules pop in nondecreasing time ----------

class EventQueueProperty : public SeededTest {};

TEST_P(EventQueueProperty, PopsAreTimeOrderedUnderRandomOps) {
  sim::Rng rng(GetParam());
  sim::EventQueue queue;
  std::vector<sim::EventId> live;
  for (int i = 0; i < 500; ++i) {
    const auto when = sim::SimTime::nanoseconds(rng.uniform_int(0, 1'000'000));
    live.push_back(queue.schedule(when, [] {}));
    if (rng.bernoulli(0.3) && !live.empty()) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      queue.cancel(live[victim]);
    }
  }
  sim::SimTime last = sim::SimTime::zero();
  std::size_t popped = 0;
  while (!queue.empty()) {
    const auto fired = queue.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
    ++popped;
  }
  EXPECT_GT(popped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- IP pool: invariant under random alloc/release ----------

class IpPoolProperty : public SeededTest {};

TEST_P(IpPoolProperty, NeverDoubleAllocatesAndConservesCount) {
  sim::Rng rng(GetParam());
  net::IpPool pool(net::Ipv4Address(10, 0, 0, 1), 16);
  std::set<std::uint32_t> held;
  for (int step = 0; step < 2000; ++step) {
    if (rng.bernoulli(0.55) && pool.available() > 0) {
      const auto addr = must(pool.allocate());
      EXPECT_TRUE(held.insert(addr.value()).second)
          << "double allocation of " << addr.to_string();
    } else if (!held.empty()) {
      const auto it = std::next(
          held.begin(),
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      pool.release(net::Ipv4Address(*it));
      held.erase(it);
    }
    EXPECT_EQ(pool.in_use(), held.size());
    EXPECT_EQ(pool.available(), pool.capacity() - held.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IpPoolProperty, ::testing::Values(11, 22, 33));

// ---------- Flow network: max-min fairness invariants ----------

class FlowFairnessProperty : public SeededTest {};

TEST_P(FlowFairnessProperty, RatesNeverExceedLinkCapacityOrCaps) {
  sim::Rng rng(GetParam());
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto sw = network.add_node("sw");
  std::vector<net::NodeId> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(network.add_node(label("h", i)));
    network.add_duplex_link(hosts.back(), sw, 100, sim::SimTime::zero());
  }
  std::vector<std::pair<net::FlowId, double>> flows;  // id, cap
  for (int i = 0; i < 12; ++i) {
    const auto src = hosts[rng.uniform_int(0, 3)];
    auto dst = hosts[rng.uniform_int(0, 3)];
    if (dst == src) dst = hosts[(rng.uniform_int(0, 2) + 1 + (&src - &hosts[0])) % 4];
    const double cap = rng.bernoulli(0.5) ? rng.uniform(5, 50) : net::kUncapped;
    auto flow = network.start_flow(src, dst, 1'000'000'000, [](sim::SimTime) {},
                                   cap);
    if (flow.ok()) flows.emplace_back(flow.value(), cap);
  }
  // Inspect instantaneous allocations.
  double total = 0;
  for (const auto& [id, cap] : flows) {
    const double rate = network.flow_rate_mbps(id);
    EXPECT_GE(rate, 0.0);
    if (std::isfinite(cap)) {
      EXPECT_LE(rate, cap * (1 + 1e-9));
    }
    EXPECT_LE(rate, 100.0 * (1 + 1e-9));  // no flow beats its access link
    total += rate;
  }
  // Aggregate cannot exceed the sum of all access links.
  EXPECT_LE(total, 4 * 100.0 * (1 + 1e-9));
}

TEST_P(FlowFairnessProperty, EqualFlowsGetEqualRates) {
  sim::Rng rng(GetParam());
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto a = network.add_node("a");
  const auto b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::zero());
  const int n = static_cast<int>(rng.uniform_int(2, 7));
  std::vector<net::FlowId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(
        must(network.start_flow(a, b, 1'000'000'000, [](sim::SimTime) {})));
  }
  for (const auto id : ids) {
    EXPECT_NEAR(network.flow_rate_mbps(id), 100.0 / n, 1e-6);
  }
}

// Folds into one digest the bit pattern of each live flow's rate after
// every operation and every completion (flow and time). The digests below
// are pinned, so a change to the allocator or the router that moves any rate
// in its last bit, or any completion by a nanosecond, fails them.
struct RateDigest {
  explicit RateDigest(net::FlowNetwork& under_test) : network(under_test) {}

  net::FlowNetwork& network;
  std::uint64_t digest = util::kFnvBasis;
  std::vector<net::FlowId> started;  // every flow, in start order
  std::vector<std::size_t> live;     // indices into started, in start order
  std::size_t completions = 0;
  std::size_t peak_live = 0;

  void fold_rates() {
    peak_live = std::max(peak_live, live.size());
    for (const std::size_t i : live) {
      digest = util::fnv1a_word(
          digest, std::bit_cast<std::uint64_t>(network.flow_rate_mbps(started[i])));
    }
  }
  void forget(std::size_t index) {
    live.erase(std::find(live.begin(), live.end(), index));
  }
  // Starts a flow whose completion folds its id and time, runs `then`, and
  // folds the rates.
  void start(net::NodeId src, net::NodeId dst, std::int64_t bytes, double cap,
             std::span<const net::LinkId> extra, std::function<void()> then) {
    const std::size_t index = started.size();
    started.emplace_back();
    live.push_back(index);
    started[index] = must(network.start_flow(
        src, dst, bytes,
        [this, index, then = std::move(then)](sim::SimTime at) {
          ++completions;
          digest = util::fnv1a_word(digest, started[index].value);
          digest = util::fnv1a_word(digest, static_cast<std::uint64_t>(at.ns()));
          forget(index);
          if (then) then();
          fold_rates();
        },
        cap, extra));
  }
  // Cancels the live flow at position `position` of `live`.
  void cancel(std::size_t position) {
    const std::size_t index = live[position];
    EXPECT_TRUE(network.cancel_flow(started[index]));
    forget(index);
  }
  void expect_drained_to(const std::map<std::uint64_t, std::uint64_t>& pinned,
                         std::uint64_t seed) const {
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(network.active_flows(), 0u);
    EXPECT_EQ(digest, pinned.at(seed))
        << "digest 0x" << std::hex << digest << " after " << std::dec
        << completions << " completions, at most " << peak_live << " live";
  }
};

// Drives a seeded world through every public entry point of the network.
TEST_P(FlowFairnessProperty, CompletionAndRateDigestIsPinned) {
  sim::Rng rng(GetParam());
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  // Two or three LAN switches in a ring (two make a pair of parallel links),
  // and hosts homed on one switch or on two neighbours, so equal-length
  // alternative routes exist. Each host has guests behind it.
  const std::size_t lan = pick(2) + 2;
  std::vector<net::NodeId> switches;
  for (std::size_t i = 0; i < lan; ++i) {
    switches.push_back(network.add_node(label("sw", i)));
  }
  for (std::size_t i = 0; i < lan; ++i) {
    network.add_duplex_link(switches[i], switches[(i + 1) % lan],
                            rng.bernoulli(0.5) ? 100 : rng.uniform(50, 400),
                            sim::SimTime::microseconds(rng.uniform_int(50, 200)));
  }
  std::vector<net::NodeId> hosts;
  std::vector<net::NodeId> endpoints;
  const auto host_count = static_cast<int>(rng.uniform_int(4, 6));
  for (int h = 0; h < host_count; ++h) {
    const auto host = network.add_node(label("h", h));
    const std::size_t home = pick(lan);
    network.add_duplex_link(host, switches[home], 100,
                            sim::SimTime::microseconds(100));
    if (rng.bernoulli(0.4)) {
      network.add_duplex_link(host, switches[(home + 1) % lan], 100,
                              sim::SimTime::microseconds(100));
    }
    hosts.push_back(host);
    endpoints.push_back(host);
    const auto guests = static_cast<int>(rng.uniform_int(1, 3));
    for (int g = 0; g < guests; ++g) {
      const auto guest =
          network.add_node(label(label("h", h) + "g", g));
      network.add_duplex_link(guest, host,
                              rng.bernoulli(0.5) ? 50 : rng.uniform(20, 100),
                              sim::SimTime::microseconds(10));
      endpoints.push_back(guest);
    }
  }
  // Per-IP shaper links, each shared by several flows.
  std::vector<net::LinkId> shapers;
  for (int i = 0; i < 3; ++i) {
    shapers.push_back(network.add_virtual_link(rng.uniform(5, 40)));
  }

  RateDigest world(network);
  // A completion may start a follow-up flow, up to `chain` generations deep.
  std::function<void(int)> start = [&](int chain) {
    const net::NodeId src = endpoints[pick(endpoints.size())];
    const net::NodeId dst =
        rng.bernoulli(0.05) ? src : endpoints[pick(endpoints.size())];
    const std::int64_t bytes =
        rng.bernoulli(0.1) ? 0 : rng.uniform_int(10'000, 4'000'000);
    const double cap = rng.bernoulli(0.3) ? rng.uniform(2, 60) : net::kUncapped;
    std::vector<net::LinkId> extra;
    if (rng.bernoulli(0.5)) {
      extra.push_back(shapers[pick(shapers.size())]);
      if (rng.bernoulli(0.1)) extra.push_back(extra.front());  // counts twice
    }
    world.start(src, dst, bytes, cap, extra, [&, chain] {
      if (chain > 0 && rng.bernoulli(0.5)) start(chain - 1);
    });
  };

  for (int step = 0; step < 240; ++step) {
    const double op = rng.uniform();
    if (step == 120) {
      // A new direct path between two hosts shortens routes mid-run.
      network.add_duplex_link(hosts.front(), hosts.back(), 100,
                              sim::SimTime::microseconds(100));
    } else if (op < 0.45) {
      start(2);
    } else if (op < 0.6) {
      network.set_link_capacity(net::LinkId{pick(network.link_count())},
                                rng.bernoulli(0.3) ? 100 : rng.uniform(5, 200));
    } else if (op < 0.7 && !world.live.empty()) {
      world.cancel(pick(world.live.size()));
    } else {
      engine.run_until(engine.now() +
                       sim::SimTime::milliseconds(rng.uniform_int(1, 40)));
    }
    world.fold_rates();
  }
  engine.run();
  EXPECT_GT(world.completions, 100u);
  EXPECT_GT(world.peak_live, 20u);
  world.expect_drained_to({{7, 0xab6f8e61d87d7aa1},
                           {8, 0xa70104eba4394e80},
                           {9, 0x56d37e590af72a39},
                           {10, 0x176c02d4a9d53389}},
                          GetParam());
}

// The same digest under bursts: a few hundred flows at once from four
// servers into one client, on eight routes (each server's path and shaper,
// with or without that server's cap; one server lists its shaper twice). The
// client's downlink carries routes that freeze at different rates, so its
// residual subtracts mixed rates in flow order. Zero-hop and zero-byte
// flows, cancels and capacity changes ride along.
TEST_P(FlowFairnessProperty, BurstCompletionAndRateDigestIsPinned) {
  sim::Rng rng(GetParam());
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto sw = network.add_node("sw");
  const auto client = network.add_node("client");
  std::vector<net::LinkId> links{
      network.add_duplex_link(sw, client, 100, sim::SimTime::microseconds(100))
          .first};
  std::vector<net::NodeId> servers;
  std::vector<net::LinkId> shapers;
  std::vector<double> caps;
  for (int s = 0; s < 4; ++s) {
    servers.push_back(network.add_node(label("s", s)));
    links.push_back(network
                        .add_duplex_link(servers.back(), sw, 100,
                                         sim::SimTime::microseconds(
                                             rng.uniform_int(20, 200)))
                        .first);
    shapers.push_back(network.add_virtual_link(rng.uniform(10, 60)));
    links.push_back(shapers.back());
    caps.push_back(rng.uniform(0.1, 1));
  }

  RateDigest world(network);
  for (int step = 0; step < 100; ++step) {
    const double op = rng.uniform();
    if (op < 0.3) {
      for (auto n = rng.uniform_int(10, 25); n > 0; --n) {
        const std::size_t s = pick(servers.size());
        std::vector<net::LinkId> extra{shapers[s]};
        if (s == 0) extra.push_back(shapers[s]);  // counts twice
        const std::int64_t bytes =
            rng.bernoulli(0.05) ? 0 : rng.uniform_int(20'000, 300'000);
        world.start(servers[s], client, bytes,
                    rng.bernoulli(0.4) ? caps[s] : net::kUncapped, extra, {});
      }
    } else if (op < 0.4) {
      // Zero hops: crossing no link at all, or only a shaper.
      std::vector<net::LinkId> extra;
      if (rng.bernoulli(0.5)) extra.push_back(shapers[pick(shapers.size())]);
      world.start(client, client, rng.uniform_int(0, 200'000), net::kUncapped,
                  extra, {});
    } else if (op < 0.55) {
      network.set_link_capacity(links[pick(links.size())],
                                rng.uniform(10, 150));
    } else if (op < 0.7 && !world.live.empty()) {
      for (auto n = rng.uniform_int(1, 8); n > 0 && !world.live.empty(); --n) {
        world.cancel(pick(world.live.size()));
      }
    } else {
      engine.run_until(engine.now() +
                       sim::SimTime::milliseconds(rng.uniform_int(5, 250)));
    }
    world.fold_rates();
  }
  engine.run();
  EXPECT_GE(world.peak_live, 150u);
  world.expect_drained_to({{7, 0xb6645418c6a91792},
                           {8, 0xd2c8fb5b75580e46},
                           {9, 0x4edb316383d47d39},
                           {10, 0x061f803918a7371b}},
                          GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowFairnessProperty,
                         ::testing::Values(7, 8, 9, 10));

// ---------- Schedulers: proportionality across random weights ----------

class SchedulerProperty : public SeededTest {};

TEST_P(SchedulerProperty, SharesTrackArbitraryWeights) {
  sim::Rng rng(GetParam());
  sched::CpuSimulator sim(sched::make_proportional_scheduler());
  std::map<std::string, double> weights;
  const int services = static_cast<int>(rng.uniform_int(2, 5));
  double weight_sum = 0;
  for (int i = 0; i < services; ++i) {
    const std::string uid = "svc" + std::to_string(i);
    const double w = rng.uniform(0.5, 4.0);
    weights[uid] = w;
    weight_sum += w;
    sim.add_thread(uid, sched::DemandPattern::cpu_bound());
    sim.set_weight(uid, w);
  }
  const auto result = sim.run(sim::SimTime::seconds(30));
  double total = 0;
  for (const auto& [uid, s] : result.total_cpu_s) total += s;
  for (const auto& [uid, w] : weights) {
    EXPECT_NEAR(result.total_cpu_s.at(uid) / total, w / weight_sum, 0.03) << uid;
  }
}

TEST_P(SchedulerProperty, NoServiceExceedsUtilizationOne) {
  sim::Rng rng(GetParam());
  sched::CpuSimulator sim(sched::make_stride_scheduler());
  const int services = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < services; ++i) {
    sim.add_thread("svc" + std::to_string(i),
                   rng.bernoulli(0.5)
                       ? sched::DemandPattern::cpu_bound()
                       : sched::DemandPattern::io_cycle(
                             sim::SimTime::milliseconds(rng.uniform_int(1, 8)),
                             sim::SimTime::milliseconds(rng.uniform_int(1, 8))));
  }
  const double duration = 20;
  const auto result = sim.run(sim::SimTime::seconds(duration));
  double total = 0;
  for (const auto& [uid, s] : result.total_cpu_s) {
    EXPECT_LE(s, duration * (1 + 1e-9));
    total += s;
  }
  EXPECT_NEAR(total + result.idle_fraction * duration, duration, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(101, 102, 103, 104));

// ---------- Config file: serialize/parse round trip under fuzz ----------

class ConfigRoundTrip : public SeededTest {};

TEST_P(ConfigRoundTrip, RandomFilesSurviveRoundTrip) {
  sim::Rng rng(GetParam());
  core::ServiceConfigFile file;
  const int rows = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < rows; ++i) {
    core::BackEndEntry entry;
    entry.address = net::Ipv4Address(
        static_cast<std::uint32_t>(rng.uniform_int(1, 0x7FFFFFFF)));
    entry.port = static_cast<int>(rng.uniform_int(1, 65535));
    entry.capacity = static_cast<int>(rng.uniform_int(1, 64));
    if (!file.add(entry).ok()) continue;  // rare duplicate address
  }
  const auto parsed = must(core::ServiceConfigFile::parse(file.serialize()));
  EXPECT_EQ(parsed.entries(), file.entries());
  EXPECT_EQ(parsed.total_capacity(), file.total_capacity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigRoundTrip,
                         ::testing::Values(201, 202, 203, 204, 205));

// ---------- Switch: WRR proportionality for arbitrary capacities ----------

class WrrProperty : public SeededTest {};

TEST_P(WrrProperty, LongRunMixMatchesCapacities) {
  sim::Rng rng(GetParam());
  core::ServiceSwitch sw("svc", net::Ipv4Address(10, 0, 0, 1), 80);
  std::map<std::uint32_t, int> capacity;
  const int backends = static_cast<int>(rng.uniform_int(2, 6));
  int total_capacity = 0;
  for (int i = 0; i < backends; ++i) {
    const net::Ipv4Address addr(10, 0, 0, static_cast<std::uint8_t>(i + 1));
    const int cap = static_cast<int>(rng.uniform_int(1, 5));
    must(sw.add_backend(core::BackEndEntry{addr, 80, cap, {}}));
    capacity[addr.value()] = cap;
    total_capacity += cap;
  }
  const int rounds = 60 * total_capacity;
  for (int i = 0; i < rounds; ++i) {
    const auto backend = must(sw.route());
    sw.on_request_complete(backend.address, backend.port);
  }
  for (const auto& [addr, cap] : capacity) {
    // Smooth WRR is exact over full cycles.
    EXPECT_EQ(sw.routed_to(net::Ipv4Address(addr), 80),
              static_cast<std::uint64_t>(60 * cap));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrrProperty, ::testing::Values(301, 302, 303));

// ---------- Filesystem: random ops tracked against a shadow model ----------

class FsProperty : public SeededTest {};

TEST_P(FsProperty, RandomOpsAgreeWithShadowModel) {
  sim::Rng rng(GetParam());
  os::FileSystem fs;
  std::map<std::string, std::int64_t> shadow;  // regular files only

  auto random_path = [&rng](bool from_shadow_ok,
                            const std::map<std::string, std::int64_t>& shadow_map)
      -> std::string {
    if (from_shadow_ok && !shadow_map.empty() && rng.bernoulli(0.5)) {
      auto it = std::next(shadow_map.begin(),
                          rng.uniform_int(0, static_cast<std::int64_t>(
                                                 shadow_map.size()) - 1));
      return it->first;
    }
    std::string path;
    const int depth = static_cast<int>(rng.uniform_int(1, 3));
    for (int d = 0; d < depth; ++d) {
      path += "/d" + std::to_string(rng.uniform_int(0, 4));
    }
    return path + "/f" + std::to_string(rng.uniform_int(0, 9));
  };

  for (int step = 0; step < 400; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.6) {
      const std::string path = random_path(true, shadow);
      const auto size = rng.uniform_int(0, 10'000);
      if (fs.add_file(path, size).ok()) {
        shadow[path] = size;
      }
    } else if (!shadow.empty()) {
      // Remove a known file.
      auto it = std::next(shadow.begin(),
                          rng.uniform_int(0, static_cast<std::int64_t>(
                                                 shadow.size()) - 1));
      EXPECT_TRUE(fs.remove(it->first).ok());
      shadow.erase(it);
    }
    // Invariants: every shadow file exists with its size; totals agree.
    std::int64_t expected_total = 0;
    for (const auto& [path, size] : shadow) expected_total += size;
    EXPECT_EQ(fs.total_size(), expected_total);
    EXPECT_EQ(fs.file_count(), shadow.size());
  }
  for (const auto& [path, size] : shadow) {
    ASSERT_TRUE(fs.stat(path).has_value()) << path;
    EXPECT_EQ(fs.stat(path)->size_bytes, size) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsProperty, ::testing::Values(501, 502, 503));

// ---------- Rng: uniform_int covers its range ----------

class RngProperty : public SeededTest {};

TEST_P(RngProperty, UniformIntHitsAllValuesInSmallRange) {
  sim::Rng rng(GetParam());
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperty, ::testing::Values(401, 402));

}  // namespace
}  // namespace soda
