// Tests for the switch's allocation-free data plane: epoch-cached routable
// snapshots (rebuilt only when the control plane changes membership, health,
// or drain state), dense per-slot policy state that survives health flips
// but reseeds on membership changes, and deterministic routing under the
// parallel experiment runner.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/switch.hpp"
#include "sim/parallel_runner.hpp"
#include "util/fnv.hpp"

namespace soda::core {
namespace {

const net::Ipv4Address kA(10, 0, 0, 1);
const net::Ipv4Address kB(10, 0, 0, 2);
const net::Ipv4Address kC(10, 0, 0, 3);

ServiceSwitch make_switch() {
  ServiceSwitch sw("web", kA, 80);
  must(sw.add_backend(BackEndEntry{kA, 8080, 2, {}}));
  must(sw.add_backend(BackEndEntry{kB, 8080, 1, {}}));
  return sw;
}

TEST(SwitchDataPlane, EpochStableAcrossSteadyStateRouting) {
  auto sw = make_switch();
  must(sw.route());  // builds the snapshot lazily
  const std::uint64_t epoch = sw.epoch();
  for (int i = 0; i < 100; ++i) {
    const auto backend = must(sw.route());
    sw.report_response_time(backend.address, backend.port, 0.01);
    sw.on_request_complete(backend.address, backend.port);
  }
  EXPECT_EQ(sw.epoch(), epoch);
}

TEST(SwitchDataPlane, EpochBumpsOnControlPlaneChanges) {
  auto sw = make_switch();
  std::uint64_t epoch = sw.epoch();

  must(sw.add_backend(BackEndEntry{kC, 8080, 1, {}}));
  EXPECT_GT(sw.epoch(), epoch);
  epoch = sw.epoch();

  must(sw.set_backend_health(kC, 8080, false));
  EXPECT_GT(sw.epoch(), epoch);
  epoch = sw.epoch();

  // Re-asserting the current health is a no-op: no flip, no rebuild.
  must(sw.set_backend_health(kC, 8080, false));
  EXPECT_EQ(sw.epoch(), epoch);

  must(sw.set_backend_health(kC, 8080, true));
  EXPECT_GT(sw.epoch(), epoch);
  epoch = sw.epoch();

  must(sw.remove_backend(kC, 8080));
  EXPECT_GT(sw.epoch(), epoch);
  epoch = sw.epoch();

  sw.report_backend_failure(kB, 8080);
  EXPECT_GT(sw.epoch(), epoch);
  epoch = sw.epoch();

  must(sw.set_backend_capacity(kA, 8080, 3));
  EXPECT_GT(sw.epoch(), epoch);
}

TEST(SwitchDataPlane, SnapshotTracksHealthFlips) {
  auto sw = make_switch();
  must(sw.set_backend_health(kA, 8080, false));
  for (int i = 0; i < 6; ++i) {
    const auto backend = must(sw.route());
    EXPECT_EQ(backend.address, kB);
    sw.on_request_complete(backend.address, backend.port);
  }
  must(sw.set_backend_health(kA, 8080, true));
  bool saw_a = false;
  for (int i = 0; i < 6; ++i) {
    const auto backend = must(sw.route());
    saw_a = saw_a || backend.address == kA;
    sw.on_request_complete(backend.address, backend.port);
  }
  EXPECT_TRUE(saw_a);
}

// Health flips rebuild the snapshot but must NOT reseed policy state: a
// fastest-response switch that already learned which backend is fast keeps
// that knowledge across a flap (the seed switch behaved the same way — its
// maps were only cleared on membership changes).
TEST(SwitchDataPlane, PolicyStateSurvivesHealthFlip) {
  auto sw = make_switch();
  sw.set_policy(make_fastest_response(1.0));
  const auto first = must(sw.route());  // exploration: first backend
  sw.report_response_time(first.address, first.port, 0.500);
  sw.on_request_complete(first.address, first.port);
  const auto second = must(sw.route());  // exploration: the other one
  ASSERT_NE(second.address, first.address);
  sw.report_response_time(second.address, second.port, 0.001);
  sw.on_request_complete(second.address, second.port);

  must(sw.set_backend_health(first.address, 8080, false));
  must(sw.set_backend_health(first.address, 8080, true));
  // Estimates survived: the fast backend still wins, no re-exploration.
  const auto after = must(sw.route());
  EXPECT_EQ(after.address, second.address);
  sw.on_request_complete(after.address, after.port);
}

// Membership changes DO reseed: adding a backend resets the estimates and
// fastest-response re-enters its exploration phase from the first slot.
TEST(SwitchDataPlane, MembershipChangeReseedsPolicyState) {
  auto sw = make_switch();
  sw.set_policy(make_fastest_response(1.0));
  sw.report_response_time(kA, 8080, 0.500);
  sw.report_response_time(kB, 8080, 0.001);
  EXPECT_EQ(must(sw.route()).address, kB);  // kB learned fastest
  must(sw.add_backend(BackEndEntry{kC, 8080, 1, {}}));
  // All estimates dropped: exploration restarts at the first slot.
  EXPECT_EQ(must(sw.route()).address, kA);
}

TEST(SwitchDataPlane, DrainingBackendInvisibleUntilErased) {
  auto sw = make_switch();
  sw.set_policy(make_plain_round_robin());
  // Open one connection to each backend, then complete only kA's so kB
  // holds an in-flight request when it is removed.
  const auto first = must(sw.route());
  const auto second = must(sw.route());
  ASSERT_NE(first.address, second.address);
  sw.on_request_complete(kA, 8080);
  must(sw.remove_backend(kB, 8080));  // drains instead of erasing
  EXPECT_EQ(sw.backends().size(), 2u);
  const std::uint64_t epoch = sw.epoch();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(must(sw.route()).address, kA);  // draining = invisible
    sw.on_request_complete(kA, 8080);
  }
  EXPECT_EQ(sw.epoch(), epoch);  // draining routes are steady state too
  sw.on_request_complete(kB, 8080);  // last in-flight completion erases
  EXPECT_EQ(sw.backends().size(), 1u);
  EXPECT_GT(sw.epoch(), epoch);
}

// One deterministic scenario: routes, completions, response times, and a
// health flap, reduced to a hash of the routed endpoints.
std::uint64_t scenario_hash() {
  ServiceSwitch sw("det", kA, 80);
  must(sw.add_backend(BackEndEntry{kA, 8080, 2, {}}));
  must(sw.add_backend(BackEndEntry{kB, 8080, 1, {}}));
  must(sw.add_backend(BackEndEntry{kC, 8080, 3, {}}));
  sw.set_policy(make_random_policy(7));
  std::uint64_t hash = util::kFnvBasis;
  for (int i = 0; i < 5000; ++i) {
    if (i == 1500) must(sw.set_backend_health(kB, 8080, false));
    if (i == 3000) must(sw.set_backend_health(kB, 8080, true));
    const auto backend = must(sw.route());
    hash = util::fnv1a_word(hash, backend.address.value());
    hash = util::fnv1a_word(hash, static_cast<std::uint64_t>(backend.port));
    sw.report_response_time(backend.address, backend.port, 1e-4 * (i % 7 + 1));
    sw.on_request_complete(backend.address, backend.port);
  }
  return hash;
}

TEST(SwitchDataPlane, RoutingIdenticalSerialAndParallel) {
  std::vector<std::uint64_t> serial;
  for (int i = 0; i < 8; ++i) serial.push_back(scenario_hash());
  const sim::ParallelRunner runner;
  const auto parallel =
      runner.map(8, [](std::size_t) { return scenario_hash(); });
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "replica " << i;
  }
}

}  // namespace
}  // namespace soda::core
