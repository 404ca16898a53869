// Unit tests for the flow-level network: transfer timing, max-min sharing,
// per-flow caps (traffic shaping), routing, and dynamic capacity changes.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "net/flow_network.hpp"
#include "sim/engine.hpp"

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
