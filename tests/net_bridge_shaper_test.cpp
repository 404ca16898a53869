// Unit tests for the host-OS bridging module and the traffic shaper
// (token bucket + per-IP flow-network shaping).
#include <gtest/gtest.h>

#include <array>

#include "net/bridge.hpp"
#include "net/shaper.hpp"
#include "sim/engine.hpp"

namespace soda::net {
namespace {

const Ipv4Address kVm1(128, 10, 9, 125);
const Ipv4Address kVm2(128, 10, 9, 126);

// ---------- Bridge ----------

TEST(Bridge, AttachThenLookup) {
  Bridge bridge("seattle", NodeId{7});
  must(bridge.attach(kVm1, NodeId{1}));
  ASSERT_TRUE(bridge.lookup(kVm1).has_value());
  EXPECT_EQ(bridge.lookup(kVm1)->value, 1u);
  EXPECT_FALSE(bridge.lookup(kVm2).has_value());
  EXPECT_EQ(bridge.attached_count(), 1u);
}

TEST(Bridge, DuplicateAttachFails) {
  Bridge bridge("seattle", NodeId{7});
  must(bridge.attach(kVm1, NodeId{1}));
  EXPECT_FALSE(bridge.attach(kVm1, NodeId{2}).ok());
}

TEST(Bridge, DetachRemovesMapping) {
  Bridge bridge("seattle", NodeId{7});
  must(bridge.attach(kVm1, NodeId{1}));
  must(bridge.detach(kVm1));
  EXPECT_FALSE(bridge.lookup(kVm1).has_value());
  EXPECT_FALSE(bridge.detach(kVm1).ok());  // second detach fails
}

TEST(Bridge, ForwardRoutesLocalToVmAndForeignToUplink) {
  Bridge bridge("seattle", NodeId{7});
  must(bridge.attach(kVm1, NodeId{1}));
  EXPECT_EQ(bridge.forward(kVm1).value, 1u);
  EXPECT_EQ(bridge.forward(kVm2).value, 7u);
  EXPECT_EQ(bridge.frames_to_vms(), 1u);
  EXPECT_EQ(bridge.frames_to_uplink(), 1u);
}

TEST(Bridge, ReattachAfterDetachWorks) {
  Bridge bridge("h", NodeId{0});
  must(bridge.attach(kVm1, NodeId{1}));
  must(bridge.detach(kVm1));
  must(bridge.attach(kVm1, NodeId{9}));
  EXPECT_EQ(bridge.forward(kVm1).value, 9u);
}

// ---------- TokenBucket ----------

TEST(TokenBucket, StartsFullAndConsumes) {
  TokenBucket bucket(1000, 500);
  EXPECT_TRUE(bucket.try_consume(500, sim::SimTime::zero()));
  EXPECT_FALSE(bucket.try_consume(1, sim::SimTime::zero()));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(1000, 500);  // 1000 bytes/s, 500 burst
  EXPECT_TRUE(bucket.try_consume(500, sim::SimTime::zero()));
  EXPECT_FALSE(bucket.try_consume(300, sim::SimTime::milliseconds(100)));  // 100 avail
  EXPECT_TRUE(bucket.try_consume(300, sim::SimTime::milliseconds(300)));   // 300 avail
}

TEST(TokenBucket, NeverExceedsBurst) {
  TokenBucket bucket(1000, 500);
  EXPECT_NEAR(bucket.tokens(sim::SimTime::seconds(100)), 500, 1e-9);
}

TEST(TokenBucket, AvailableAtPredictsWait) {
  TokenBucket bucket(1000, 500);
  ASSERT_TRUE(bucket.try_consume(500, sim::SimTime::zero()));
  const auto when = bucket.available_at(250, sim::SimTime::zero());
  EXPECT_NEAR(when.to_seconds(), 0.25, 1e-9);
  EXPECT_EQ(bucket.available_at(0, sim::SimTime::zero()), sim::SimTime::zero());
}

// A request larger than the burst can never be satisfied; both halves of
// the contract must say so the same way. available_at already asserts —
// try_consume must not silently return false forever.
TEST(TokenBucket, OversizedRequestViolatesContractSymmetrically) {
  TokenBucket bucket(1000, 500);
  EXPECT_DEATH(bucket.try_consume(501, sim::SimTime::zero()), "precondition");
  EXPECT_DEATH((void)bucket.available_at(501, sim::SimTime::zero()),
               "precondition");
}

// Epsilon consistency: consuming `bytes` at exactly the instant
// available_at(bytes, now) promises must always succeed, despite the
// floating-point refill arithmetic in between.
TEST(TokenBucket, ConsumeAtAvailableAtAlwaysSucceeds) {
  const double rates[] = {3.0, 997.0, 1e6, 0.125};
  const double bursts[] = {1.0, 499.5, 1e5, 7.3};
  for (const double rate : rates) {
    for (const double burst : bursts) {
      if (burst < 1) continue;  // constructor requires burst >= 1
      TokenBucket bucket(rate, burst);
      sim::SimTime now = sim::SimTime::zero();
      for (int i = 1; i <= 50; ++i) {
        const double bytes = burst * (static_cast<double>(i % 10) + 0.37) / 10.5;
        const sim::SimTime ready = bucket.available_at(bytes, now);
        ASSERT_GE(ready, now);
        ASSERT_TRUE(bucket.try_consume(bytes, ready))
            << "rate=" << rate << " burst=" << burst << " bytes=" << bytes;
        now = ready;
      }
    }
  }
}

TEST(TokenBucket, MonotonicRefillIgnoresPastTimes) {
  TokenBucket bucket(1000, 500);
  ASSERT_TRUE(bucket.try_consume(400, sim::SimTime::seconds(1)));
  // Asking about an earlier time must not rewind the bucket.
  EXPECT_NEAR(bucket.tokens(sim::SimTime::zero()), 100, 1e-9);
}

// ---------- TrafficShaper ----------

TEST(TrafficShaper, ConfigureCreatesLink) {
  sim::Engine engine;
  FlowNetwork network(engine);
  TrafficShaper shaper(network);
  shaper.configure(kVm1, 10);
  ASSERT_TRUE(shaper.link_for(kVm1).has_value());
  EXPECT_NEAR(network.link_capacity_mbps(*shaper.link_for(kVm1)), 10, 1e-9);
  EXPECT_EQ(shaper.limit_mbps(kVm1).value(), 10);
  EXPECT_EQ(shaper.shaped_count(), 1u);
}

TEST(TrafficShaper, ReconfigureUpdatesCapacity) {
  sim::Engine engine;
  FlowNetwork network(engine);
  TrafficShaper shaper(network);
  shaper.configure(kVm1, 10);
  const LinkId link = *shaper.link_for(kVm1);
  shaper.configure(kVm1, 25);
  EXPECT_EQ(*shaper.link_for(kVm1), link);  // same link, new capacity
  EXPECT_NEAR(network.link_capacity_mbps(link), 25, 1e-9);
}

TEST(TrafficShaper, RemoveAndLinkReuse) {
  sim::Engine engine;
  FlowNetwork network(engine);
  TrafficShaper shaper(network);
  shaper.configure(kVm1, 10);
  const LinkId link = *shaper.link_for(kVm1);
  EXPECT_TRUE(shaper.remove(kVm1));
  EXPECT_FALSE(shaper.remove(kVm1));
  EXPECT_FALSE(shaper.link_for(kVm1).has_value());
  // A later configure reuses the parked virtual link.
  shaper.configure(kVm2, 5);
  EXPECT_EQ(*shaper.link_for(kVm2), link);
}

TEST(TrafficShaper, ShapedFlowIsRateLimited) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::zero());
  TrafficShaper shaper(network);
  shaper.configure(kVm1, 10);
  const std::array<LinkId, 1> via_shaper{*shaper.link_for(kVm1)};
  double done = -1;
  must(network.start_flow(a, b, 1'250'000,
                          [&](sim::SimTime t) { done = t.to_seconds(); },
                          kUncapped, via_shaper));
  engine.run();
  EXPECT_NEAR(done, 1.0, 1e-6);  // 1.25 MB at 10 Mbps
}

TEST(TrafficShaper, IndependentIpsIndependentLimits) {
  sim::Engine engine;
  FlowNetwork network(engine);
  TrafficShaper shaper(network);
  shaper.configure(kVm1, 10);
  shaper.configure(kVm2, 20);
  EXPECT_NE(*shaper.link_for(kVm1), *shaper.link_for(kVm2));
  EXPECT_EQ(shaper.limit_mbps(kVm2).value(), 20);
}

}  // namespace
}  // namespace soda::net
