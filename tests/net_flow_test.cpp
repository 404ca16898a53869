// Unit tests for the flow-level network: transfer timing, max-min sharing,
// per-flow caps (traffic shaping), routing, and dynamic capacity changes.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/flow_network.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "snapshot/format.hpp"

namespace soda::net {
namespace {

constexpr double kMbps100Bps = 100e6 / 8;  // bytes/sec on a 100 Mbps link

struct Lan {
  sim::Engine engine;
  FlowNetwork network{engine};
  NodeId sw, a, b, c;

  Lan() {
    sw = network.add_node("switch");
    a = network.add_node("a");
    b = network.add_node("b");
    c = network.add_node("c");
    network.add_duplex_link(a, sw, 100, sim::SimTime::zero());
    network.add_duplex_link(b, sw, 100, sim::SimTime::zero());
    network.add_duplex_link(c, sw, 100, sim::SimTime::zero());
  }
};

TEST(FlowNetwork, SingleFlowTakesBytesOverCapacity) {
  Lan lan;
  const std::int64_t bytes = 25'000'000;  // 25 MB over 12.5 MB/s = 2 s
  double completed_at = -1;
  must(lan.network.start_flow(lan.a, lan.b, bytes, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  lan.engine.run();
  EXPECT_NEAR(completed_at, bytes / kMbps100Bps, 1e-6);
}

TEST(FlowNetwork, LatencyAddsToCompletion) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(5));
  double completed_at = -1;
  must(network.start_flow(a, b, 12'500'000, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  engine.run();
  EXPECT_NEAR(completed_at, 1.0 + 0.005, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterLatencyOnly) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(3));
  double completed_at = -1;
  must(network.start_flow(a, b, 0, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  engine.run();
  EXPECT_NEAR(completed_at, 0.003, 1e-9);
}

TEST(FlowNetwork, TwoFlowsShareBottleneckFairly) {
  Lan lan;
  // Both flows converge on the same destination access link (sw -> c).
  const std::int64_t bytes = 12'500'000;  // alone: 1 s; sharing: 1.5 s total
  std::vector<double> completions;
  for (NodeId src : {lan.a, lan.b}) {
    must(lan.network.start_flow(src, lan.c, bytes, [&](sim::SimTime t) {
      completions.push_back(t.to_seconds());
    }));
  }
  lan.engine.run();
  ASSERT_EQ(completions.size(), 2u);
  // Shared at 50 Mbps each; both finish together at 2 s.
  EXPECT_NEAR(completions[0], 2.0, 1e-6);
  EXPECT_NEAR(completions[1], 2.0, 1e-6);
}

TEST(FlowNetwork, ShorterFlowFinishesThenLongerSpeedsUp) {
  Lan lan;
  double short_done = -1, long_done = -1;
  must(lan.network.start_flow(lan.a, lan.c, 6'250'000, [&](sim::SimTime t) {
    short_done = t.to_seconds();
  }));
  must(lan.network.start_flow(lan.b, lan.c, 12'500'000, [&](sim::SimTime t) {
    long_done = t.to_seconds();
  }));
  lan.engine.run();
  // Share 50/50 until the short one drains at t=1 (6.25 MB at 6.25 MB/s);
  // the long one then has 6.25 MB left at full speed: done at 1.5 s.
  EXPECT_NEAR(short_done, 1.0, 1e-6);
  EXPECT_NEAR(long_done, 1.5, 1e-6);
}

TEST(FlowNetwork, RateCapLimitsFlow) {
  Lan lan;
  double completed_at = -1;
  must(lan.network.start_flow(
      lan.a, lan.b, 12'500'000,
      [&](sim::SimTime t) { completed_at = t.to_seconds(); },
      /*rate_cap_mbps=*/10));
  lan.engine.run();
  EXPECT_NEAR(completed_at, 10.0, 1e-6);  // 12.5 MB at 1.25 MB/s
}

TEST(FlowNetwork, CapLeftoverGoesToOtherFlows) {
  Lan lan;
  double capped_done = -1, open_done = -1;
  must(lan.network.start_flow(
      lan.a, lan.c, 2'500'000,
      [&](sim::SimTime t) { capped_done = t.to_seconds(); },
      /*rate_cap_mbps=*/20));  // 2.5 MB at 2.5 MB/s = 1 s
  must(lan.network.start_flow(
      lan.b, lan.c, 10'000'000,
      [&](sim::SimTime t) { open_done = t.to_seconds(); }));
  lan.engine.run();
  EXPECT_NEAR(capped_done, 1.0, 1e-6);
  // Open flow gets 80 Mbps while sharing, 100 after: 10 MB = 1 s at
  // 10 MB/s... while capped runs it gets 10 MB/s? 100-20=80 Mbps = 10 MB/s:
  // at t=1 it moved 10 MB -> done at exactly 1 s too.
  EXPECT_NEAR(open_done, 1.0, 1e-6);
}

TEST(FlowNetwork, VirtualLinkActsAsSharedShaper) {
  Lan lan;
  const LinkId shaper = lan.network.add_virtual_link(10);  // 10 Mbps per-IP cap
  const std::array<LinkId, 1> via_shaper{shaper};
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    must(lan.network.start_flow(
        lan.a, lan.b, 1'250'000,
        [&](sim::SimTime t) { done.push_back(t.to_seconds()); },
        kUncapped, via_shaper));
  }
  lan.engine.run();
  // Both flows cross the same 10 Mbps virtual link: 2.5 MB total at
  // 1.25 MB/s -> both complete at 2 s.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST(FlowNetwork, SetLinkCapacityMidFlight) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const auto [ab, ba] = network.add_duplex_link(a, b, 100, sim::SimTime::zero());
  (void)ba;
  double completed_at = -1;
  must(network.start_flow(a, b, 25'000'000, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  engine.schedule_after(sim::SimTime::seconds(1),
                        [&] { network.set_link_capacity(ab, 50); });
  engine.run();
  // 12.5 MB in the first second, the remaining 12.5 MB at 6.25 MB/s = 2 s.
  EXPECT_NEAR(completed_at, 3.0, 1e-6);
}

TEST(FlowNetwork, CancelPreventsCompletion) {
  Lan lan;
  bool fired = false;
  const FlowId id = must(lan.network.start_flow(
      lan.a, lan.b, 12'500'000, [&](sim::SimTime) { fired = true; }));
  EXPECT_GT(lan.network.flow_rate_mbps(id), 0.0);
  EXPECT_TRUE(lan.network.cancel_flow(id));
  EXPECT_FALSE(lan.network.cancel_flow(id));
  lan.engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(lan.network.active_flows(), 0u);
}

TEST(FlowNetwork, NoRouteIsError) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("island");
  auto result = network.start_flow(a, b, 100, [](sim::SimTime) {});
  EXPECT_FALSE(result.ok());
}

TEST(FlowNetwork, OneWayLinkIsDirectional) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_link(a, b, 100, sim::SimTime::zero());
  EXPECT_TRUE(network.start_flow(a, b, 10, [](sim::SimTime) {}).ok());
  EXPECT_FALSE(network.start_flow(b, a, 10, [](sim::SimTime) {}).ok());
}

TEST(FlowNetwork, MultiHopRouteUsesBothLinks) {
  Lan lan;
  // a -> sw -> b: bottleneck is still 100 Mbps.
  double done = -1;
  must(lan.network.start_flow(lan.a, lan.b, 12'500'000, [&](sim::SimTime t) {
    done = t.to_seconds();
  }));
  lan.engine.run();
  EXPECT_NEAR(done, 1.0, 1e-6);
}

TEST(FlowNetwork, RouteFollowsNewShorterLink) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  const auto hop = sim::SimTime::milliseconds(1);
  network.add_link(a, b, 100, hop);
  network.add_link(b, c, 100, hop);
  const auto transfer_a_to_c = [&] {
    const sim::SimTime started = engine.now();
    sim::SimTime took;
    must(network.start_flow(a, c, 1'250'000,
                            [&](sim::SimTime t) { took = t - started; }));
    engine.run();
    return took;
  };
  const sim::SimTime via_b = transfer_a_to_c();
  // A route found before the new link must not outlive it.
  network.add_link(a, c, 100, hop);
  const sim::SimTime direct = transfer_a_to_c();
  EXPECT_EQ((via_b - direct).ns(), hop.ns());
}

/// A topology grown the way a HUP grows its LAN: two roots (switches), then
/// each new node (host, guest or client) attached by one duplex link under
/// a node at most two levels below a root, plus a node never linked. An
/// attachment is add_duplex_link either way round, or add_link both ways.
/// Link k has latency 2^k ns, except that add_duplex_link gives its second
/// direction the first one's; no path crosses both directions of one link,
/// so a zero-byte flow's completion time names the links it crossed.
class LeafBuiltForest {
 public:
  explicit LeafBuiltForest(std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<std::size_t> depth;
    const auto node = [&](std::size_t d) {
      depth.push_back(d);
      std::string name(1, 'n');
      name += std::to_string(nodes_.size());
      return network_.add_node(std::move(name)).value;
    };
    nodes_.push_back(node(0));
    nodes_.push_back(node(0));
    for (int i = 0; i < 18; ++i) {
      std::size_t parent = 0;
      do {
        parent = pick(rng);
      } while (depth[parent] >= 3);
      const std::size_t child = node(depth[parent] + 1);
      nodes_.push_back(child);
      switch (rng.uniform_int(0, 2)) {
        case 0:
          duplex(child, parent);
          break;
        case 1:
          duplex(parent, child);
          break;
        default:  // one direction at a time, each with its own latency
          link(child, parent);
          link(parent, child);
          break;
      }
    }
    nodes_.push_back(node(0));  // never linked
  }

  FlowNetwork& network() { return network_; }
  sim::Engine& engine() { return engine_; }

  /// Adds one duplex link between two distinct, unlinked-to-each-other
  /// nodes of the same tree: it closes a ring.
  void add_ring_link(std::uint64_t seed) {
    sim::Rng rng(seed);
    for (;;) {
      const std::size_t a = pick(rng);
      const std::size_t b = pick(rng);
      if (a == b || !reference_route(a, b) || adjacent(a, b)) continue;
      duplex(a, b);
      return;
    }
  }

  /// Shortest-hop route by BFS over the links in id order.
  std::optional<std::vector<std::size_t>> reference_route(std::size_t src,
                                                          std::size_t dst) const {
    if (src == dst) return std::vector<std::size_t>{};
    std::vector<std::size_t> via(network_.node_count(), SIZE_MAX);
    std::vector<bool> seen(network_.node_count(), false);
    std::vector<std::size_t> frontier{src};
    seen[src] = true;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      for (std::size_t l = 0; l < links_.size(); ++l) {
        if (links_[l].first != frontier[head] || seen[links_[l].second]) continue;
        seen[links_[l].second] = true;
        via[links_[l].second] = l;
        frontier.push_back(links_[l].second);
      }
    }
    if (!seen[dst]) return std::nullopt;
    std::vector<std::size_t> path;
    for (std::size_t at = dst; at != src; at = links_[via[at]].first) {
      path.insert(path.begin(), via[at]);
    }
    return path;
  }

  /// Starts a zero-byte flow for every ordered pair of nodes at once and
  /// checks each against the reference: the same link set, or no route.
  void expect_routes_match(FlowNetwork& network, sim::Engine& engine) const {
    const sim::SimTime start = engine.now();
    std::vector<std::optional<sim::SimTime>> took(nodes_.size() * nodes_.size());
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      for (std::size_t d = 0; d < nodes_.size(); ++d) {
        auto flow = network.start_flow(
            NodeId{nodes_[s]}, NodeId{nodes_[d]}, 0,
            [&took, &start, i = s * nodes_.size() + d](sim::SimTime t) {
              took[i] = t - start;
            });
        const auto want = reference_route(nodes_[s], nodes_[d]);
        EXPECT_EQ(flow.ok(), want.has_value()) << s << " -> " << d;
      }
    }
    engine.run();
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      for (std::size_t d = 0; d < nodes_.size(); ++d) {
        const auto want = reference_route(nodes_[s], nodes_[d]);
        if (!want) continue;
        std::int64_t latency = 0;
        for (std::size_t l : *want) latency += latency_ns_[l];
        const auto& got = took[s * nodes_.size() + d];
        ASSERT_TRUE(got.has_value()) << s << " -> " << d;
        EXPECT_EQ(got->ns(), latency) << s << " -> " << d;
      }
    }
  }

 private:
  void link(std::size_t from, std::size_t to) {
    const std::int64_t latency = std::int64_t{1} << links_.size();
    network_.add_link(NodeId{from}, NodeId{to}, 100,
                      sim::SimTime::nanoseconds(latency));
    links_.emplace_back(from, to);
    latency_ns_.push_back(latency);
  }
  void duplex(std::size_t a, std::size_t b) {
    const std::int64_t latency = std::int64_t{1} << links_.size();
    network_.add_duplex_link(NodeId{a}, NodeId{b}, 100,
                             sim::SimTime::nanoseconds(latency));
    links_.emplace_back(a, b);
    links_.emplace_back(b, a);
    latency_ns_.insert(latency_ns_.end(), 2, latency);
  }
  std::size_t pick(sim::Rng& rng) const {
    return nodes_[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes_.size()) - 1))];
  }
  bool adjacent(std::size_t a, std::size_t b) const {
    for (const auto& [from, to] : links_) {
      if ((from == a && to == b) || (from == b && to == a)) return true;
    }
    return false;
  }

  sim::Engine engine_;
  FlowNetwork network_{engine_};
  std::vector<std::size_t> nodes_;
  std::vector<std::pair<std::size_t, std::size_t>> links_;  // by link id
  std::vector<std::int64_t> latency_ns_;                    // by link id
};

TEST(FlowNetworkRoutes, LeafBuiltForestsMatchReferenceBfs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LeafBuiltForest forest(seed);
    // The tree as loaded from its snapshot routes the same way.
    snapshot::Writer writer;
    forest.network().serialize(writer);
    const std::string bytes = writer.finish();
    sim::Engine engine;
    FlowNetwork loaded(engine);
    snapshot::Reader reader(bytes);
    loaded.serialize(reader);
    ASSERT_TRUE(reader.ok()) << reader.error();

    forest.expect_routes_match(forest.network(), forest.engine());
    forest.expect_routes_match(loaded, engine);
    // A ring makes the topology general; routes must still match.
    forest.add_ring_link(seed + 100);
    forest.expect_routes_match(forest.network(), forest.engine());
  }
}

TEST(FlowNetwork, BytesDeliveredAccumulates) {
  Lan lan;
  must(lan.network.start_flow(lan.a, lan.b, 1000, [](sim::SimTime) {}));
  must(lan.network.start_flow(lan.b, lan.c, 500, [](sim::SimTime) {}));
  lan.engine.run();
  EXPECT_EQ(lan.network.bytes_delivered(), 1500);
}

TEST(FlowNetwork, CompletionCallbackCanStartNewFlow) {
  Lan lan;
  double second_done = -1;
  must(lan.network.start_flow(lan.a, lan.b, 12'500'000, [&](sim::SimTime) {
    must(lan.network.start_flow(lan.b, lan.c, 12'500'000, [&](sim::SimTime t2) {
      second_done = t2.to_seconds();
    }));
  }));
  lan.engine.run();
  EXPECT_NEAR(second_done, 2.0, 1e-6);
}

TEST(FlowNetwork, ManyFlowsAllComplete) {
  Lan lan;
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    must(lan.network.start_flow(lan.a, lan.c, 100'000 + i * 1000,
                                [&](sim::SimTime) { ++completed; }));
  }
  lan.engine.run();
  EXPECT_EQ(completed, 40);
  EXPECT_EQ(lan.network.active_flows(), 0u);
}

TEST(FlowNetwork, FractionalRatesStillTerminate) {
  // Regression: three flows sharing a link get 33.33 Mbps each; residuals
  // smaller than one nanosecond of transfer used to reschedule the
  // completion event at the same timestamp forever. The run must terminate
  // with every flow delivered.
  Lan lan;
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    must(lan.network.start_flow(lan.a, lan.c, 999'999 + i,
                                [&](sim::SimTime) { ++completed; }));
  }
  const auto fired = lan.engine.run();
  EXPECT_EQ(completed, 3);
  EXPECT_LT(fired, 1000u);  // and without event-storming its way there
}

TEST(FlowNetwork, RateChangeNearCompletionTerminates) {
  // Same pathology via a mid-flight capacity change just before the end.
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto a = network.add_node("a");
  const auto b = network.add_node("b");
  const auto [ab, ba] = network.add_duplex_link(a, b, 100, sim::SimTime::zero());
  (void)ba;
  bool done = false;
  must(network.start_flow(a, b, 1'250'000, [&](sim::SimTime) { done = true; }));
  // 1.25 MB at 12.5 MB/s completes at t=100ms; perturb at 99.9999 ms.
  engine.schedule_at(sim::SimTime::nanoseconds(99'999'900),
                     [&] { network.set_link_capacity(ab, 37); });
  engine.run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, DrainedFlowCompletionLeavesRatesUnchanged) {
  // Flow `a` drains at about 32 ms but owes 10 ms of path latency. A
  // zero-byte flow started at 35 ms reallocates: `a` stops competing and the
  // others re-share (b1 takes what d1's cap and b2's cap leave). Removing
  // `a` at its completion must leave every live rate's bits as they were.
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId sw = network.add_node("switch");
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  const NodeId d = network.add_node("d");
  network.add_duplex_link(a, sw, 100, sim::SimTime::milliseconds(10));
  for (const NodeId node : {b, c, d}) {
    network.add_duplex_link(node, sw, 100, sim::SimTime::zero());
  }
  const auto ignore = [](sim::SimTime) {};
  std::vector<FlowId> live;
  const auto rate_bits = [&] {
    std::vector<std::uint64_t> bits;
    for (const FlowId id : live) {
      bits.push_back(std::bit_cast<std::uint64_t>(network.flow_rate_mbps(id)));
    }
    return bits;
  };
  std::vector<std::uint64_t> before;
  std::vector<std::uint64_t> after;
  sim::SimTime a_done;
  must(network.start_flow(a, c, 125'000, [&](sim::SimTime at) {
    a_done = at;
    after = rate_bits();
  }));
  live.push_back(must(network.start_flow(b, c, 10'000'000, ignore)));
  live.push_back(must(network.start_flow(b, c, 10'000'000, ignore, 7.3)));
  live.push_back(must(network.start_flow(d, c, 10'000'000, ignore, 31.7)));
  EXPECT_NEAR(network.flow_rate_mbps(live[0]), (100 - 7.3) / 3, 1e-9);
  engine.schedule_at(sim::SimTime::milliseconds(35), [&] {
    must(network.start_flow(c, b, 0, ignore));
  });
  engine.schedule_at(sim::SimTime::milliseconds(38),
                     [&] { before = rate_bits(); });
  engine.run_until(sim::SimTime::milliseconds(60));
  EXPECT_GT(a_done, sim::SimTime::milliseconds(40));
  EXPECT_NEAR(network.flow_rate_mbps(live[0]), 100 - 7.3 - 31.7, 1e-9);
  ASSERT_EQ(before.size(), 3u);
  EXPECT_EQ(after, before);
}

TEST(FlowNetwork, SamePathWithOtherLatencyCompletesAtItsOwnInstant) {
  // Both flows cross a->b alone, at one cap, so they share one rate. One is
  // routed over the link and owes its 5 ms latency; the other runs from a to
  // a and names the link as an extra, which adds no latency.
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const std::array<LinkId, 1> extra{
      network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(5)).first};
  sim::SimTime routed_done;
  sim::SimTime extra_done;
  const FlowId routed = must(network.start_flow(
      a, b, 625'000, [&](sim::SimTime t) { routed_done = t; }));
  const FlowId named = must(network.start_flow(
      a, a, 625'000, [&](sim::SimTime t) { extra_done = t; }, kUncapped, extra));
  EXPECT_EQ(network.flow_rate_mbps(routed), 50.0);
  EXPECT_EQ(network.flow_rate_mbps(named), 50.0);
  engine.run();
  // 625 kB at 6.25 MB/s: both drain at 100 ms.
  EXPECT_EQ(extra_done, sim::SimTime::milliseconds(100));
  EXPECT_EQ(routed_done, sim::SimTime::milliseconds(105));
}

TEST(FlowNetwork, CancelAtTheDrainInstantResharesTheRoute) {
  // Two flows share a->b at 50 Mbps each; the smaller drains at exactly
  // 100 ms and would complete at 110 ms, after the link's latency. Cancelled
  // at 100 ms it is still in flight: the cancel succeeds, the callback never
  // fires, and the other flow takes the whole link from that instant.
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(10));
  bool small_fired = false;
  sim::SimTime large_done;
  const FlowId small = must(
      network.start_flow(a, b, 625'000, [&](sim::SimTime) { small_fired = true; }));
  const FlowId large = must(network.start_flow(
      a, b, 1'875'000, [&](sim::SimTime t) { large_done = t; }));
  bool cancelled = false;
  double large_rate = 0;
  engine.schedule_at(sim::SimTime::milliseconds(100), [&] {
    cancelled = network.cancel_flow(small);
    large_rate = network.flow_rate_mbps(large);
  });
  engine.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(small_fired);
  EXPECT_FALSE(network.cancel_flow(small));
  EXPECT_EQ(large_rate, 100.0);
  // 1.25 MB left at 100 ms, at 12.5 MB/s: drained at 200 ms, plus latency.
  EXPECT_EQ(large_done, sim::SimTime::milliseconds(210));
}

TEST(FlowNetwork, DrainedFlowWaitingReadsZeroWhileItsRouteKeepsItsRate) {
  // Three flows capped at 10 Mbps share a->b (10 ms latency). The smallest
  // drains at 100 ms and waits until 110 ms. A zero-byte flow at 105 ms
  // settles the network: the drained flow reads 0, the other two still read
  // their cap, and the drained one completes when its projection said.
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(10));
  sim::SimTime small_done;
  const FlowId small = must(network.start_flow(
      a, b, 125'000, [&](sim::SimTime t) { small_done = t; }, 10));
  const FlowId first = must(
      network.start_flow(a, b, 1'250'000, [](sim::SimTime) {}, 10));
  const FlowId second = must(
      network.start_flow(a, b, 1'250'000, [](sim::SimTime) {}, 10));
  std::array<double, 3> rates{-1, -1, -1};
  engine.schedule_at(sim::SimTime::milliseconds(105), [&] {
    must(network.start_flow(b, a, 0, [](sim::SimTime) {}));
    rates = {network.flow_rate_mbps(small), network.flow_rate_mbps(first),
             network.flow_rate_mbps(second)};
  });
  engine.run();
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_EQ(rates[1], 10.0);
  EXPECT_EQ(rates[2], 10.0);
  EXPECT_EQ(small_done, sim::SimTime::milliseconds(110));
}

TEST(FlowNetwork, FlowsDueTogetherCompleteInStartOrder) {
  // Flow 1 crosses a->b (10 ms) and drains at 100 ms, due at 110 ms. Flow 2,
  // zero bytes over c->b (60 ms) from 50 ms, is due at 110 ms too, and
  // waits for its latency before flow 1 has drained. Flow 3 crosses no link
  // and starts at 110 ms. All three complete at 110 ms, in start order.
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(10));
  network.add_duplex_link(c, b, 100, sim::SimTime::milliseconds(60));
  std::vector<std::pair<int, sim::SimTime>> completed;
  const auto record = [&](int flow) {
    return [&completed, flow](sim::SimTime t) { completed.emplace_back(flow, t); };
  };
  must(network.start_flow(a, b, 1'250'000, record(1)));
  engine.schedule_at(sim::SimTime::milliseconds(50),
                     [&] { must(network.start_flow(c, b, 0, record(2))); });
  engine.schedule_at(sim::SimTime::milliseconds(110),
                     [&] { must(network.start_flow(a, a, 500, record(3))); });
  engine.run();
  const sim::SimTime due = sim::SimTime::milliseconds(110);
  EXPECT_EQ(completed, (std::vector<std::pair<int, sim::SimTime>>{
                           {1, due}, {2, due}, {3, due}}));
}

TEST(FlowNetwork, DrainWithoutAProjectionIsPinnedAfterTheDoneScan) {
  // Flow 1 sends one byte at 1e-10 B/s: its completion, about 1e10 s away,
  // does not fit the clock, so it has none. Flow 2, zero bytes over a link of
  // 6e9 s latency, is due at 6e9 s. The completion event then settles flow 1
  // to 0.4 bytes: drained, it is pinned at that instant only after the event
  // completed flow 2, and completes in the next event at the same instant.
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const NodeId c = network.add_node("c");
  network.add_duplex_link(a, b, 8e-16, sim::SimTime::zero());
  network.add_duplex_link(c, b, 100, sim::SimTime::seconds(6e9));
  std::vector<std::pair<int, sim::SimTime>> completed;
  const auto record = [&](int flow) {
    return [&completed, flow](sim::SimTime t) { completed.emplace_back(flow, t); };
  };
  must(network.start_flow(a, b, 1, record(1)));
  must(network.start_flow(c, b, 0, record(2)));
  engine.run();
  const sim::SimTime due = sim::SimTime::seconds(6e9);
  EXPECT_EQ(completed, (std::vector<std::pair<int, sim::SimTime>>{{2, due}, {1, due}}));
}

TEST(FlowNetwork, TransferPastTheClockNeverCompletes) {
  // At 1e-300 Mbps a megabyte takes about 8e300 s, past SimTime's range: the
  // flow keeps its positive rate and never completes, as at rate 0.
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 1e-300, sim::SimTime::zero());
  bool fired = false;
  const FlowId flow = must(
      network.start_flow(a, b, 1'000'000, [&](sim::SimTime) { fired = true; }));
  EXPECT_GT(network.flow_rate_mbps(flow), 0.0);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(network.active_flows(), 1u);
}

TEST(FlowNetwork, NodeNamesAndCounts) {
  Lan lan;
  EXPECT_EQ(lan.network.node_count(), 4u);
  EXPECT_EQ(lan.network.node_name(lan.a), "a");
}

TEST(FlowNetwork, LinkCapacityQuery) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const auto [ab, ba] = network.add_duplex_link(a, b, 37.5, sim::SimTime::zero());
  EXPECT_NEAR(network.link_capacity_mbps(ab), 37.5, 1e-9);
  EXPECT_NEAR(network.link_capacity_mbps(ba), 37.5, 1e-9);
}

}  // namespace
}  // namespace soda::net
