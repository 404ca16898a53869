// Unit tests for the service configuration file (Table 3) and the service
// switch with its request-switching policies.
#include <gtest/gtest.h>

#include <map>

#include "core/config_file.hpp"
#include "core/switch.hpp"

namespace soda::core {
namespace {

const net::Ipv4Address kNode1(128, 10, 9, 125);
const net::Ipv4Address kNode2(128, 10, 9, 126);
const net::Ipv4Address kNode3(128, 10, 9, 127);

// ---------- ServiceConfigFile ----------

TEST(ConfigFile, SerializesTable3Format) {
  ServiceConfigFile file;
  must(file.add(BackEndEntry{kNode1, 8080, 2, {}}));
  must(file.add(BackEndEntry{kNode2, 8080, 1, {}}));
  EXPECT_EQ(file.serialize(),
            "BackEnd 128.10.9.125 8080 2\n"
            "BackEnd 128.10.9.126 8080 1\n");
  EXPECT_EQ(file.total_capacity(), 3);
}

TEST(ConfigFile, ParseRoundTrip) {
  ServiceConfigFile file;
  must(file.add(BackEndEntry{kNode1, 8080, 2, {}}));
  must(file.add(BackEndEntry{kNode2, 9000, 5, {}}));
  const auto parsed = must(ServiceConfigFile::parse(file.serialize()));
  EXPECT_EQ(parsed.entries(), file.entries());
}

TEST(ConfigFile, ParseSkipsCommentsAndBlanks) {
  const auto parsed = must(ServiceConfigFile::parse(
      "# service: web-content\n\n  BackEnd 10.0.0.1 80 1  \n"));
  ASSERT_EQ(parsed.entries().size(), 1u);
  EXPECT_EQ(parsed.entries()[0].port, 80);
}

TEST(ConfigFile, ParseRejectsMalformedRows) {
  EXPECT_FALSE(ServiceConfigFile::parse("FrontEnd 10.0.0.1 80 1\n").ok());
  EXPECT_FALSE(ServiceConfigFile::parse("BackEnd 10.0.0.1 80\n").ok());
  EXPECT_FALSE(ServiceConfigFile::parse("BackEnd 300.0.0.1 80 1\n").ok());
  EXPECT_FALSE(ServiceConfigFile::parse("BackEnd 10.0.0.1 0 1\n").ok());
  EXPECT_FALSE(ServiceConfigFile::parse("BackEnd 10.0.0.1 99999 1\n").ok());
  EXPECT_FALSE(ServiceConfigFile::parse("BackEnd 10.0.0.1 80 0\n").ok());
  EXPECT_FALSE(ServiceConfigFile::parse("BackEnd 10.0.0.1 80 x\n").ok());
}

TEST(ConfigFile, DuplicateEndpointRejected) {
  ServiceConfigFile file;
  must(file.add(BackEndEntry{kNode1, 8080, 1, {}}));
  // Same (address, port) is a duplicate; same address on another port is a
  // legitimate proxied-component row.
  EXPECT_FALSE(file.add(BackEndEntry{kNode1, 8080, 2, {}}).ok());
  EXPECT_TRUE(file.add(BackEndEntry{kNode1, 9090, 1, {}}).ok());
}

TEST(ConfigFile, RemoveAndSetCapacity) {
  ServiceConfigFile file;
  must(file.add(BackEndEntry{kNode1, 8080, 1, {}}));
  must(file.set_capacity(kNode1, 4));
  EXPECT_EQ(file.entries()[0].capacity, 4);
  must(file.remove(kNode1));
  EXPECT_TRUE(file.empty());
  EXPECT_FALSE(file.remove(kNode1).ok());
  EXPECT_FALSE(file.set_capacity(kNode1, 2).ok());
}

// ---------- ServiceSwitch routing ----------

ServiceSwitch make_switch(int cap1 = 2, int cap2 = 1) {
  ServiceSwitch sw("web-content", kNode1, 8080);
  must(sw.add_backend(BackEndEntry{kNode1, 8080, cap1, {}}));
  must(sw.add_backend(BackEndEntry{kNode2, 8080, cap2, {}}));
  return sw;
}

std::map<std::uint32_t, int> route_n(ServiceSwitch& sw, int n) {
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < n; ++i) {
    const auto backend = must(sw.route());
    ++counts[backend.address.value()];
    sw.on_request_complete(backend.address, backend.port);
  }
  return counts;
}

TEST(Switch, DefaultPolicyIsWeightedRoundRobin) {
  auto sw = make_switch();
  EXPECT_EQ(sw.policy().name(), "weighted-round-robin");
}

TEST(Switch, WrrHonorsCapacitiesExactly) {
  auto sw = make_switch(2, 1);
  const auto counts = route_n(sw, 300);
  EXPECT_EQ(counts.at(kNode1.value()), 200);
  EXPECT_EQ(counts.at(kNode2.value()), 100);
}

TEST(Switch, SmoothWrrInterleavesInsteadOfBursting) {
  auto sw = make_switch(2, 1);
  // Smooth WRR with weights 2:1 produces A B A | A B A | ... — node2 is
  // never starved for more than 2 consecutive picks.
  int consecutive_node1 = 0, worst = 0;
  for (int i = 0; i < 30; ++i) {
    const auto backend = must(sw.route());
    if (backend.address == kNode1) {
      worst = std::max(worst, ++consecutive_node1);
    } else {
      consecutive_node1 = 0;
    }
    sw.on_request_complete(backend.address, backend.port);
  }
  EXPECT_LE(worst, 2);
}

TEST(Switch, PlainRoundRobinIgnoresCapacity) {
  auto sw = make_switch(2, 1);
  sw.set_policy(make_plain_round_robin());
  const auto counts = route_n(sw, 100);
  EXPECT_EQ(counts.at(kNode1.value()), 50);
  EXPECT_EQ(counts.at(kNode2.value()), 50);
}

TEST(Switch, RandomPolicyRoughlyUniform) {
  auto sw = make_switch(1, 1);
  sw.set_policy(make_random_policy(42));
  const auto counts = route_n(sw, 2000);
  EXPECT_NEAR(counts.at(kNode1.value()), 1000, 120);
}

TEST(Switch, LeastConnectionsPrefersIdleBackend) {
  auto sw = make_switch(1, 1);
  sw.set_policy(make_least_connections());
  // Route without completing: connections pile up alternately.
  const auto first = must(sw.route());
  const auto second = must(sw.route());
  EXPECT_NE(first.address, second.address);
}

TEST(Switch, LeastConnectionsIsCapacityWeighted) {
  auto sw = make_switch(2, 1);
  sw.set_policy(make_least_connections());
  // Hold all connections open: the capacity-2 backend should carry ~2x.
  std::map<std::uint32_t, int> counts;
  for (int i = 0; i < 30; ++i) ++counts[must(sw.route()).address.value()];
  EXPECT_EQ(counts.at(kNode1.value()), 20);
  EXPECT_EQ(counts.at(kNode2.value()), 10);
}

TEST(Switch, FastestResponseExploresThenPrefersFaster) {
  auto sw = make_switch(1, 1);
  sw.set_policy(make_fastest_response(0.5));
  EXPECT_EQ(sw.policy().name(), "fastest-response");
  // Exploration: the first two picks cover both backends.
  const auto first = must(sw.route());
  sw.report_response_time(first.address, first.port, 0.100);
  sw.on_request_complete(first.address, first.port);
  const auto second = must(sw.route());
  EXPECT_NE(second.address, first.address);
  sw.report_response_time(second.address, second.port, 0.005);
  sw.on_request_complete(second.address, second.port);
  // Exploitation: the fast backend now wins repeatedly.
  for (int i = 0; i < 10; ++i) {
    const auto pick = must(sw.route());
    EXPECT_EQ(pick.address, second.address);
    sw.report_response_time(pick.address, pick.port, 0.005);
    sw.on_request_complete(pick.address, pick.port);
  }
}

TEST(Switch, FastestResponseAdaptsWhenSpeedsFlip) {
  auto sw = make_switch(1, 1);
  sw.set_policy(make_fastest_response(0.5));
  // Prime both estimates: node1 fast, node2 slow.
  must(sw.route());
  sw.report_response_time(kNode1, 8080, 0.010);
  must(sw.route());
  sw.report_response_time(kNode2, 8080, 0.200);
  // node1 degrades; the EWMA crosses over after a few bad samples.
  for (int i = 0; i < 6; ++i) sw.report_response_time(kNode1, 8080, 0.500);
  EXPECT_EQ(must(sw.route()).address, kNode2);
}

TEST(Switch, FastestResponseCapacityPreference) {
  auto sw = make_switch(4, 1);  // node1 has 4x capacity
  sw.set_policy(make_fastest_response(0.5));
  must(sw.route());
  sw.report_response_time(kNode1, 8080, 0.300);
  must(sw.route());
  sw.report_response_time(kNode2, 8080, 0.100);
  // Scores: node1 0.300/4 = 0.075 vs node2 0.100/1 = 0.10 -> node1 wins
  // despite the slower raw time: at comparable latency the larger node has
  // more headroom for the next request.
  EXPECT_EQ(must(sw.route()).address, kNode1);
}

TEST(Switch, ReportResponseTimeForUnknownBackendIsNoOp) {
  auto sw = make_switch();
  sw.report_response_time(kNode3, 8080, 1.0);  // must not crash or throw
  EXPECT_TRUE(sw.route().ok());
}

TEST(Switch, CustomAspPolicyPlugsIn) {
  auto sw = make_switch();
  // An ASP policy that always picks the last healthy backend.
  sw.set_policy(make_custom_policy(
      "always-last", [](const std::vector<BackEndState>& backends) {
        return std::optional<std::size_t>{backends.size() - 1};
      }));
  EXPECT_EQ(sw.policy().name(), "always-last");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(must(sw.route()).address, kNode2);
  }
}

TEST(Switch, IllBehavedCustomPolicyOnlyRefuses) {
  auto sw = make_switch();
  sw.set_policy(make_custom_policy(
      "broken", [](const std::vector<BackEndState>&) {
        return std::optional<std::size_t>{};  // always refuses
      }));
  EXPECT_FALSE(sw.route().ok());
  EXPECT_EQ(sw.requests_refused(), 1u);
  // Out-of-range picks are refused too, not crashes.
  sw.set_policy(make_custom_policy(
      "oob", [](const std::vector<BackEndState>& b) {
        return std::optional<std::size_t>{b.size() + 7};
      }));
  EXPECT_FALSE(sw.route().ok());
}

TEST(Switch, UnhealthyBackendSkipped) {
  auto sw = make_switch(1, 1);
  must(sw.set_backend_health(kNode1, 8080, false));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(must(sw.route()).address, kNode2);
  }
  must(sw.set_backend_health(kNode1, 8080, true));
  const auto counts = route_n(sw, 10);
  EXPECT_TRUE(counts.count(kNode1.value()));
}

TEST(Switch, AllUnhealthyRefuses) {
  auto sw = make_switch();
  must(sw.set_backend_health(kNode1, 8080, false));
  must(sw.set_backend_health(kNode2, 8080, false));
  EXPECT_FALSE(sw.route().ok());
}

TEST(Switch, AddRemoveBackendsAtRuntime) {
  auto sw = make_switch();
  must(sw.add_backend(BackEndEntry{kNode3, 8080, 1, {}}));
  EXPECT_EQ(sw.backends().size(), 3u);
  must(sw.remove_backend(kNode3, 8080));
  EXPECT_EQ(sw.backends().size(), 2u);
  EXPECT_FALSE(sw.remove_backend(kNode3, 8080).ok());
  EXPECT_FALSE(sw.add_backend(BackEndEntry{kNode1, 8080, 1, {}}).ok());
}

TEST(Switch, SetBackendCapacityChangesMix) {
  auto sw = make_switch(1, 1);
  must(sw.set_backend_capacity(kNode1, 8080, 3));
  const auto counts = route_n(sw, 400);
  EXPECT_EQ(counts.at(kNode1.value()), 300);
  EXPECT_EQ(counts.at(kNode2.value()), 100);
}

TEST(Switch, ConfigTextMatchesBackends) {
  auto sw = make_switch(2, 1);
  EXPECT_EQ(sw.config_text(),
            "BackEnd 128.10.9.125 8080 2\nBackEnd 128.10.9.126 8080 1\n");
}

TEST(Switch, LoadConfigReplacesBackends) {
  auto sw = make_switch();
  ServiceConfigFile file;
  must(file.add(BackEndEntry{kNode3, 9999, 7, {}}));
  sw.load_config(file);
  ASSERT_EQ(sw.backends().size(), 1u);
  EXPECT_EQ(sw.backends()[0].entry.port, 9999);
}

TEST(Switch, CountsRoutedAndPerBackend) {
  auto sw = make_switch(2, 1);
  route_n(sw, 30);
  EXPECT_EQ(sw.requests_routed(), 30u);
  EXPECT_EQ(sw.routed_to(kNode1, 8080), 20u);
  EXPECT_EQ(sw.routed_to(kNode2, 8080), 10u);
  EXPECT_EQ(sw.routed_to(kNode3, 8080), 0u);
}

// Components of one partitioned service may share their host's address on
// different ports; each backend keeps its own routed count.
TEST(Switch, RoutedToDistinguishesPortsOnOneAddress) {
  ServiceSwitch sw("shop", kNode1, 8080);
  must(sw.add_backend(BackEndEntry{kNode1, 8080, 2, {}}));
  must(sw.add_backend(BackEndEntry{kNode1, 9090, 1, {}}));
  for (int i = 0; i < 30; ++i) {
    const auto backend = must(sw.route());
    sw.on_request_complete(backend.address, backend.port);
  }
  EXPECT_EQ(sw.routed_to(kNode1, 8080), 20u);
  EXPECT_EQ(sw.routed_to(kNode1, 9090), 10u);
  EXPECT_EQ(sw.routed_to(kNode1, 7070), 0u);
}

TEST(Switch, ActiveConnectionsTracked) {
  auto sw = make_switch(1, 1);
  const auto backend = must(sw.route());
  std::uint64_t active = 0;
  for (const auto& b : sw.backends()) active += b.active_connections;
  EXPECT_EQ(active, 1u);
  sw.on_request_complete(backend.address, backend.port);
  active = 0;
  for (const auto& b : sw.backends()) active += b.active_connections;
  EXPECT_EQ(active, 0u);
}

// Two proxied components of one partitioned service may share their host's
// public address on different ports (add_backend permits this). Policy
// state must be keyed by (address, port), not address alone: with an
// address-only key the two backends alias one smooth-WRR weight slot and
// the interleave degenerates (one backend starves).
TEST(Switch, WrrKeysStateByAddressAndPort) {
  ServiceSwitch sw("shop", kNode1, 8080);
  must(sw.add_backend(BackEndEntry{kNode1, 8080, 2, {}}));
  must(sw.add_backend(BackEndEntry{kNode1, 9090, 1, {}}));
  std::map<int, int> by_port;
  for (int i = 0; i < 300; ++i) ++by_port[must(sw.route()).port];
  EXPECT_EQ(by_port[8080], 200);
  EXPECT_EQ(by_port[9090], 100);
}

TEST(Switch, ListenEndpointExposed) {
  auto sw = make_switch();
  EXPECT_EQ(sw.listen_address(), kNode1);
  EXPECT_EQ(sw.listen_port(), 8080);
  EXPECT_EQ(sw.service_name(), "web-content");
}

// Same-address backends must also keep separate EWMA estimates and
// connection counts — a shared slot would let one component's slow
// responses poison its sibling's estimate.
TEST(Switch, FastestResponseKeysEwmaByAddressAndPort) {
  ServiceSwitch sw("shop", kNode1, 8080);
  must(sw.add_backend(BackEndEntry{kNode1, 8080, 1, {}}));
  must(sw.add_backend(BackEndEntry{kNode1, 9090, 1, {}}));
  sw.set_policy(make_fastest_response(1.0));  // alpha 1: last sample wins
  sw.report_response_time(kNode1, 8080, 0.500);
  sw.report_response_time(kNode1, 9090, 0.001);
  std::map<int, int> by_port;
  for (int i = 0; i < 20; ++i) {
    const auto backend = must(sw.route());
    ++by_port[backend.port];
    sw.on_request_complete(backend.address, backend.port);
  }
  EXPECT_EQ(by_port[9090], 20);
  EXPECT_EQ(by_port[8080], 0);
}

// Smooth WRR accumulated the per-pick weight total in `int`; two backends
// at capacity 2^30 pushed the sum to 2^31 and overflowed. The accumulator
// is `long long` now, and huge equal capacities alternate cleanly.
TEST(Switch, WrrSurvivesHugeCapacities) {
  constexpr int kHuge = 1 << 30;
  ServiceSwitch sw("big", kNode1, 8080);
  must(sw.add_backend(BackEndEntry{kNode1, 8080, kHuge, {}}));
  must(sw.add_backend(BackEndEntry{kNode2, 8080, kHuge, {}}));
  const auto counts = route_n(sw, 300);
  EXPECT_EQ(counts.at(kNode1.value()), 150);
  EXPECT_EQ(counts.at(kNode2.value()), 150);
}

TEST(Switch, LeastConnectionsKeysActiveByAddressAndPort) {
  ServiceSwitch sw("shop", kNode1, 8080);
  must(sw.add_backend(BackEndEntry{kNode1, 8080, 1, {}}));
  must(sw.add_backend(BackEndEntry{kNode1, 9090, 1, {}}));
  sw.set_policy(make_least_connections());
  const auto first = must(sw.route());
  const auto second = must(sw.route());
  EXPECT_NE(first.port, second.port);
  // Completing on one port credits only that backend.
  sw.on_request_complete(kNode1, first.port);
  const auto third = must(sw.route());
  EXPECT_EQ(third.port, first.port);
}

// ---------- Prefix -> component resolution ----------

// Pins the component_for contract the prefix table must preserve: longest
// prefix wins; among equal-length prefixes the LAST registered rule wins;
// no match (and the empty target) falls through to the default "" component.
TEST(Switch, ComponentForLongestPrefixWins) {
  auto sw = make_switch();
  sw.set_component_route("/", "frontend");
  sw.set_component_route("/cart", "db");
  sw.set_component_route("/cart/admin", "admin");
  EXPECT_EQ(sw.component_for("/index.html"), "frontend");
  EXPECT_EQ(sw.component_for("/cart/42"), "db");
  EXPECT_EQ(sw.component_for("/cart/admin/keys"), "admin");
  EXPECT_EQ(sw.component_for("/cart"), "db");
}

TEST(Switch, ComponentForEqualLengthDuplicateLastRegistrationWins) {
  auto sw = make_switch();
  sw.set_component_route("/api", "v1");
  sw.set_component_route("/api", "v2");  // re-registration supersedes
  EXPECT_EQ(sw.component_for("/api/users"), "v2");
}

TEST(Switch, ComponentForNoMatchAndEmptyTarget) {
  auto sw = make_switch();
  EXPECT_EQ(sw.component_for("/anything"), "");  // no rules at all
  sw.set_component_route("/shop", "shop");
  EXPECT_EQ(sw.component_for("/blog"), "");  // no rule matches
  EXPECT_EQ(sw.component_for(""), "");       // empty target matches nothing
  EXPECT_EQ(sw.component_for("/sho"), "");   // prefix longer than target
  EXPECT_EQ(sw.component_for("/shop"), "shop");  // exact-length match
}

// ---------- Draining and failover ----------

TEST(Switch, RemoveWithActiveConnectionsDrains) {
  auto sw = make_switch(1, 1);
  // Open a connection to each backend.
  const auto a = must(sw.route());
  const auto b = must(sw.route());
  ASSERT_NE(a.address, b.address);
  must(sw.remove_backend(kNode2, 8080));
  // Still present (draining), but invisible to routing.
  EXPECT_EQ(sw.backends().size(), 2u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(must(sw.route()).address, kNode1);
    sw.on_request_complete(kNode1, 8080);
  }
  // The last in-flight completion erases the drained backend.
  const auto& drained = a.address == kNode2 ? a : b;
  sw.on_request_complete(drained.address, drained.port);
  EXPECT_EQ(sw.backends().size(), 1u);
  EXPECT_EQ(sw.backends().front().entry.address, kNode1);
}

TEST(Switch, RemoveIdleBackendErasesImmediately) {
  auto sw = make_switch(1, 1);
  must(sw.remove_backend(kNode2, 8080));
  EXPECT_EQ(sw.backends().size(), 1u);
}

TEST(Switch, RouteFailoverRetriesOnceAndMarksDead) {
  auto sw = make_switch(1, 1);
  const auto first = must(sw.route());
  // The data path discovered `first` is dead: failover must route the
  // request to the other backend and count it.
  const auto retried = must(sw.route_failover(first));
  EXPECT_NE(retried.address, first.address);
  EXPECT_EQ(sw.failovers(), 1u);
  // The dead backend is now unhealthy; fresh routes avoid it.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(must(sw.route()).address, retried.address);
    sw.on_request_complete(retried.address, retried.port);
  }
}

TEST(Switch, RouteFailoverRefusesWhenNoAlternative) {
  ServiceSwitch sw("web", kNode1, 8080);
  must(sw.add_backend(BackEndEntry{kNode1, 8080, 1, {}}));
  const auto only = must(sw.route());
  const std::uint64_t refused_before = sw.requests_refused();
  EXPECT_FALSE(sw.route_failover(only).ok());
  EXPECT_EQ(sw.failovers(), 0u);
  EXPECT_GT(sw.requests_refused(), refused_before);
}

TEST(Switch, RehomeMovesListenEndpoint) {
  auto sw = make_switch();
  sw.rehome(kNode3, 9000);
  EXPECT_EQ(sw.listen_address(), kNode3);
  EXPECT_EQ(sw.listen_port(), 9000);
}

}  // namespace
}  // namespace soda::core
