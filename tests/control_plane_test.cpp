// Tests for the decomposed control plane: the typed event bus and metrics
// registry, placement (cache-affinity, the deterministic equal-host
// tie-break, and every placement consumer checked against the policy's
// rule applied literally on seeded mixed fleets), the shared priming
// coordinator's repository re-resolution, and degraded-service behavior of
// warm_hosts and resize_service.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/hup.hpp"
#include "image/chunk.hpp"
#include "image/image.hpp"
#include "scenario/scenario.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/random.hpp"
#include "util/log.hpp"

namespace soda::core {
namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

/// With 1.5x inflation this unit becomes 1800 MHz: a seattle-class host
/// (2.6 GHz) fits exactly one, so every unit lands on its own host.
host::MachineConfig one_per_host_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 1200;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

/// A HUP of `n` identical seattle-class hosts named host-0..host-{n-1}.
struct EqualHosts {
  Hup hup;
  image::ImageRepository* repo;
  image::ImageLocation location;

  explicit EqualHosts(int n, MasterConfig config = {},
                      std::int64_t image_bytes = 4 * kMiB)
      : hup(config) {
    util::global_logger().set_level(util::LogLevel::kOff);
    for (int i = 0; i < n; ++i) {
      host::HostSpec spec = host::HostSpec::seattle();
      spec.name = "host-" + std::to_string(i);
      hup.add_host(spec,
                   net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
                   16);
    }
    repo = &hup.add_repository("asp-repo");
    hup.agent().register_asp("asp", "key");
    location = must(repo->publish(image::web_content_image(image_bytes)));
  }

  ApiResult<ServiceCreationReply> create(const std::string& name, int n,
                                         int* calls = nullptr) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = location;
    request.requirement = {n, one_per_host_unit()};
    ApiResult<ServiceCreationReply> out =
        ApiError{ApiErrorCode::kInternal, "callback never fired"};
    hup.master().create_service(
        request, [&, calls](ApiResult<ServiceCreationReply> reply,
                            sim::SimTime) {
          if (calls != nullptr) ++*calls;
          out = std::move(reply);
        });
    hup.engine().run();
    return out;
  }

  ApiResult<ServiceResizingReply> resize(const std::string& name, int n_new,
                                         int* calls = nullptr) {
    ApiResult<ServiceResizingReply> out =
        ApiError{ApiErrorCode::kInternal, "callback never fired"};
    hup.master().resize_service(
        name, n_new, [&, calls](ApiResult<ServiceResizingReply> reply,
                                sim::SimTime) {
          if (calls != nullptr) ++*calls;
          out = std::move(reply);
        });
    hup.engine().run();
    return out;
  }
};

// ---------- Event bus & metrics ----------

TEST(ControlPlaneBus, PublishFeedsTraceMetricsAndSubscribers) {
  EqualHosts t(2);
  ControlPlaneBus& bus = t.hup.master().bus();
  std::vector<TraceKind> seen;
  const std::size_t id =
      bus.subscribe([&](const ControlPlaneEvent& event) {
        seen.push_back(event.kind);
      });

  ASSERT_TRUE(t.create("web", 2).ok());
  // The bus carried the whole creation sequence to the subscriber...
  EXPECT_NE(std::find(seen.begin(), seen.end(), TraceKind::kAdmitted),
            seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), TraceKind::kServiceRunning),
            seen.end());
  // ...while the bus's trace still holds the sequence older tests assert on.
  const auto kinds = t.hup.trace().kinds_for("web");
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), TraceKind::kServiceRunning),
            kinds.end());
  // Metrics observed the same events.
  const MetricsRegistry& metrics = t.hup.master().metrics();
  EXPECT_EQ(metrics.value("admissions"), 1.0);
  EXPECT_EQ(metrics.value("services_started"), 1.0);
  EXPECT_EQ(metrics.value("primings"), 2.0);
  EXPECT_EQ(metrics.value("boots"), 2.0);

  bus.unsubscribe(id);
  const std::size_t events_before = seen.size();
  must(t.hup.master().teardown_service("web"));
  EXPECT_EQ(seen.size(), events_before);  // unsubscribed: no more deliveries
  EXPECT_EQ(metrics.value("teardowns"), 1.0);

  // The agent records request-received without publishing it, so the trace
  // holds every published event plus exactly those records.
  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "via-agent";
  request.image_location = t.location;
  request.requirement = {1, one_per_host_unit()};
  t.hup.agent().service_creation(
      request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
  t.hup.engine().run();
  const auto& records = t.hup.trace().events();
  const auto requests = static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(), [](const auto& event) {
        return event.kind == TraceKind::kRequestReceived;
      }));
  EXPECT_EQ(requests, 1u);
  EXPECT_EQ(bus.published(), records.size() - requests);
}

TEST(ControlPlaneBus, RejectionAndGaugesAreObservable) {
  EqualHosts t(2);
  EXPECT_FALSE(t.create("too-big", 50).ok());
  const MetricsRegistry& metrics = t.hup.master().metrics();
  EXPECT_EQ(metrics.value("rejections"), 1.0);
  EXPECT_EQ(metrics.value("admissions"), 0.0);

  // The byte gauges read through every daemon's distributor on demand.
  ASSERT_TRUE(metrics.has("bytes_from_origin"));
  ASSERT_TRUE(metrics.has("bytes_from_peers"));
  EXPECT_EQ(metrics.value("bytes_from_origin"), 0.0);
  ASSERT_TRUE(t.create("web", 1).ok());
  EXPECT_GT(metrics.value("bytes_from_origin"), 0.0);
}

TEST(ControlPlaneBus, HealthMonitorTapsTheBus) {
  EqualHosts t(2);
  HealthMonitor& monitor = t.hup.health_monitor();
  EXPECT_EQ(monitor.bus_events_seen(), 0u);
  ASSERT_TRUE(t.create("web", 1).ok());
  EXPECT_GT(monitor.bus_events_seen(), 0u);
}

// ---------- Deterministic placement tie-breaks ----------

constexpr PlacementPolicy kPolicies[] = {
    PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
    PlacementPolicy::kWorstFit, PlacementPolicy::kCacheAffinity};

TEST(Placement, PolicyNamesParseBack) {
  for (const PlacementPolicy policy : kPolicies) {
    EXPECT_EQ(parse_placement_policy(placement_policy_name(policy)), policy)
        << placement_policy_name(policy);
  }
  EXPECT_FALSE(parse_placement_policy("nearest-fit").has_value());
  EXPECT_FALSE(parse_placement_policy("unknown").has_value());
  EXPECT_FALSE(parse_placement_policy("").has_value());
}

TEST(Placement, EqualHostsTieBreakOnRegistrationOrder) {
  for (const PlacementPolicy policy : kPolicies) {
    MasterConfig config;
    config.placement = policy;
    EqualHosts t(4, config);
    // All four hosts are identical, so every policy degenerates to the
    // explicit tie-break: registration order. One unit fills a host, so the
    // plan visits all four.
    const auto plan = must(t.hup.master().planner().plan_allocation(
        "svc", {4, one_per_host_unit()}));
    ASSERT_EQ(plan.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(plan[i].daemon->host_name(), "host-" + std::to_string(i))
          << placement_policy_name(policy);
    }
  }
}

TEST(Placement, EqualHostPlansAreIdenticalAcrossRunsAndParallelRunner) {
  auto run_replica = [](std::size_t) -> std::string {
    MasterConfig config;
    config.placement = PlacementPolicy::kBestFit;
    EqualHosts t(4, config);
    must(t.create("web", 2));
    std::string fingerprint = std::to_string(t.hup.engine().now().ns());
    const ServiceRecord* record = t.hup.master().find_service("web");
    for (const Placement& p : record->placements) {
      fingerprint += "|" + p.daemon->host_name() + ":" + p.node_name + ":" +
                     std::to_string(p.units);
    }
    return fingerprint;
  };

  constexpr std::size_t kReplicas = 6;
  std::vector<std::string> serial;
  for (std::size_t i = 0; i < kReplicas; ++i) serial.push_back(run_replica(i));
  for (std::size_t i = 1; i < kReplicas; ++i) EXPECT_EQ(serial[i], serial[0]);

  const sim::ParallelRunner runner(4);
  const auto parallel = runner.map(kReplicas, run_replica);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < kReplicas; ++i) EXPECT_EQ(parallel[i], serial[i]);
}

// ---------- Cache-affinity placement ----------

TEST(Placement, CacheAffinityPrefersWarmHosts) {
  MasterConfig config;
  config.placement = PlacementPolicy::kCacheAffinity;
  config.distribution.enabled = true;
  config.distribution.p2p = false;
  EqualHosts t(3, config);

  bool warmed = false;
  t.hup.master().warm_hosts(t.location, {"host-2"},
                            [&](Status status, sim::SimTime) {
                              must(std::move(status));
                              warmed = true;
                            });
  t.hup.engine().run();
  ASSERT_TRUE(warmed);

  // Without affinity the tie-break would pick host-0; the warm cache on
  // host-2 must win.
  ASSERT_TRUE(t.create("web", 1).ok());
  const ServiceRecord* record = t.hup.master().find_service("web");
  ASSERT_EQ(record->nodes.size(), 1u);
  EXPECT_EQ(record->nodes[0].host_name, "host-2");
  const auto* report =
      t.hup.find_daemon("host-2")->priming_report(record->nodes[0].node_name);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->download_time, sim::SimTime::zero());
}

TEST(Placement, CacheAffinityWithoutManifestDegradesToWorstFit) {
  MasterConfig config;
  config.placement = PlacementPolicy::kCacheAffinity;
  EqualHosts t(2, config);
  // No manifest: ordering must equal worst-fit's.
  const auto plan = must(t.hup.master().planner().plan_allocation(
      "svc", {1, one_per_host_unit()}));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].daemon->host_name(), "host-0");
}

// ---------- Differential placement: every consumer against the rule ----------

/// 400 MHz per unit (600 inflated): a seattle host fits several, so plans
/// pack units per host and growth can extend nodes in place.
host::MachineConfig small_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 400;
  m.memory_mb = 64;
  m.disk_mb = 256;
  m.bandwidth_mbps = 4;
  return m;
}

/// A seeded fleet of 50 hosts: seattle and tacoma classes, zero to three
/// equal reserved slices each (so spare CPU both ties and differs), a few
/// caches warmed with the published image, and a few hosts declared down.
struct MixedFleet {
  static constexpr int kHosts = 50;

  Hup hup;
  image::ImageLocation location;
  image::ImageManifest manifest;
  int warmed = 0;
  int down = 0;

  static MasterConfig config_for(PlacementPolicy policy) {
    MasterConfig config;
    config.placement = policy;
    config.distribution.enabled = true;
    config.distribution.p2p = false;
    return config;
  }

  MixedFleet(PlacementPolicy policy, std::uint64_t seed)
      : hup(config_for(policy)) {
    util::global_logger().set_level(util::LogLevel::kOff);
    sim::Rng rng(seed);
    host::ResourceVector slice;
    slice.cpu_mhz = 300;
    slice.memory_mb = 64;
    slice.disk_mb = 256;
    slice.bandwidth_mbps = 2;
    for (int i = 0; i < kHosts; ++i) {
      host::HostSpec spec = rng.uniform_int(0, 2) == 0
                                ? host::HostSpec::tacoma()
                                : host::HostSpec::seattle();
      spec.name = "host-" + std::to_string(i);
      host::HupHost& host = hup.add_host(
          spec, net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
          16);
      for (auto k = rng.uniform_int(0, 3); k > 0; --k) {
        must(host.reserve("load", slice));
      }
    }
    image::ImageRepository& repo = hup.add_repository("asp-repo");
    hup.agent().register_asp("asp", "key");
    location = must(repo.publish(image::web_content_image(4 * kMiB)));
    manifest = image::build_manifest(
        *must(repo.lookup(location.path)),
        hup.master().config().distribution.chunk_bytes);

    std::vector<std::string> warm;
    for (int i = 0; i < kHosts; ++i) {
      if (rng.uniform_int(0, 7) == 0) {
        warm.push_back("host-" + std::to_string(i));
      }
    }
    warmed = static_cast<int>(warm.size());
    hup.master().warm_hosts(location, warm, [](Status status, sim::SimTime) {
      must(std::move(status));
    });
    hup.engine().run();
    for (int i = 0; i < kHosts; ++i) {
      if (rng.uniform_int(0, 9) == 0) {
        hup.crash_host("host-" + std::to_string(i));
        ++down;
      }
    }
    hup.master().poll_liveness_once();
  }

  /// Planning without and with the image's manifest.
  [[nodiscard]] std::vector<const image::ImageManifest*> manifests() const {
    return {nullptr, &manifest};
  }

  ApiResult<ServiceCreationReply> create(const std::string& name, int n,
                                         const host::MachineConfig& m) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = location;
    request.requirement = {n, m};
    ApiResult<ServiceCreationReply> out =
        ApiError{ApiErrorCode::kInternal, "callback never fired"};
    hup.master().create_service(
        request, [&](ApiResult<ServiceCreationReply> reply, sim::SimTime) {
          out = std::move(reply);
        });
    hup.engine().run();
    return out;
  }
};

/// The placement rule applied literally: the live hosts sorted by the
/// policy's comparator, ties broken on registration order.
std::vector<SodaDaemon*> reference_order(const SodaMaster& master,
                                         const image::ImageManifest* manifest) {
  struct Key {
    SodaDaemon* daemon;
    std::size_t index;
    double spare;
    std::uint32_t cached;
  };
  std::vector<Key> keys;
  for (SodaDaemon* daemon : master.daemons()) {
    if (master.down_hosts().test(daemon->host_id())) continue;
    std::uint32_t cached = 0;
    if (manifest != nullptr) {
      for (const auto& chunk : manifest->chunks) {
        if (daemon->distributor().cache().contains(chunk.id)) ++cached;
      }
    }
    keys.push_back({daemon, keys.size(), daemon->available().cpu_mhz, cached});
  }
  const PlacementPolicy policy = master.config().placement;
  std::sort(keys.begin(), keys.end(), [policy](const Key& a, const Key& b) {
    switch (policy) {
      case PlacementPolicy::kFirstFit:
        break;
      case PlacementPolicy::kBestFit:
        if (a.spare != b.spare) return a.spare < b.spare;
        break;
      case PlacementPolicy::kWorstFit:
        if (a.spare != b.spare) return a.spare > b.spare;
        break;
      case PlacementPolicy::kCacheAffinity:
        if (a.cached != b.cached) return a.cached > b.cached;
        if (a.spare != b.spare) return a.spare > b.spare;
        break;
    }
    return a.index < b.index;
  });
  std::vector<SodaDaemon*> order;
  for (const Key& key : keys) order.push_back(key.daemon);
  return order;
}

/// The skip/fit/cap loop over `order`: appends to `out` and returns the
/// units that did not fit.
template <typename Skip>
int reference_pack(const std::vector<SodaDaemon*>& order,
                   const host::ResourceVector& unit, int n, int max_nodes,
                   Skip skip, std::vector<Placement>& out) {
  int nodes = 0;
  for (SodaDaemon* daemon : order) {
    if (n == 0 || nodes >= max_nodes) break;
    if (skip(*daemon)) continue;
    const int k = std::min(units_that_fit(daemon->available(), unit), n);
    if (k >= 1) {
      out.push_back(Placement{daemon, "", k, {}});
      ++nodes;
      n -= k;
    }
  }
  return n;
}

/// Partitioned admission applied literally: each component, sized
/// component.units x `m`, lands on the first host in `order` that still
/// fits it after the components placed before it. Empty when one fits
/// nowhere.
std::vector<Placement> reference_components(
    const SodaMaster& master, const std::vector<SodaDaemon*>& order,
    const host::MachineConfig& m,
    const std::vector<image::ServiceComponent>& components) {
  std::vector<host::ResourceVector> used(order.size());
  std::vector<Placement> plan;
  for (const auto& c : components) {
    const host::ResourceVector need =
        master.planner().inflated_unit(m).scaled(c.units);
    std::size_t i = 0;
    while (i < order.size() && !(order[i]->available() - used[i]).fits(need)) {
      ++i;
    }
    if (i == order.size()) return {};
    plan.push_back(Placement{order[i], "", c.units, c.name});
    used[i] += need;
  }
  return plan;
}

/// "host:units[/component] ..." for the placements from `first` on.
std::string describe(const std::vector<Placement>& plan,
                     std::size_t first = 0) {
  std::string text;
  for (std::size_t i = first; i < plan.size(); ++i) {
    text += plan[i].daemon->host_name() + ":" + std::to_string(plan[i].units);
    if (!plan[i].component.empty()) text += "/" + plan[i].component;
    text += " ";
  }
  return text;
}

constexpr std::uint64_t kFleetSeeds[] = {3, 17};

TEST(Placement, AdmissionPlansMatchTheReferenceRule) {
  for (const PlacementPolicy policy : kPolicies) {
    for (const std::uint64_t seed : kFleetSeeds) {
      MixedFleet fleet(policy, seed);
      ASSERT_GT(fleet.warmed, 0);
      ASSERT_GT(fleet.down, 0);
      // A live service puts the admission skip rule to work when "web" is
      // planned again, and primes its image onto more caches.
      ASSERT_TRUE(fleet.create("web", 5, small_unit()).ok());
      const SodaMaster& master = fleet.hup.master();
      const int cap = master.config().max_nodes_per_service;
      host::MachineConfig too_big = one_per_host_unit();
      too_big.cpu_mhz = 2000;
      const struct {
        const char* service;
        host::ResourceRequirement req;
      } requests[] = {
          {"probe", {1, one_per_host_unit()}},
          {"probe", {6, one_per_host_unit()}},
          {"probe", {18, one_per_host_unit()}},  // stopped by the node cap
          {"probe", {9, small_unit()}},
          {"web", {9, small_unit()}},
          {"probe", {1, too_big}},  // no host fits
      };
      bool saw_cap = false;
      bool saw_failure = false;
      for (const auto& request : requests) {
        for (const image::ImageManifest* manifest : fleet.manifests()) {
          const std::string label =
              std::string(placement_policy_name(policy)) + " seed " +
              std::to_string(seed) + " " + request.service + " " +
              request.req.to_string() + (manifest ? " +manifest" : "");
          const auto order = reference_order(master, manifest);
          const host::ResourceVector unit =
              master.planner().inflated_unit(request.req.m);
          const auto skip = [&](const SodaDaemon& daemon) {
            return daemon.serves_service(request.service);
          };
          std::vector<Placement> expected;
          const int short_by = reference_pack(order, unit, request.req.n, cap,
                                              skip, expected);
          const auto planned = master.planner().plan_allocation(
              request.service, request.req, {manifest});
          ASSERT_EQ(planned.ok(), short_by == 0) << label;
          if (planned.ok()) {
            EXPECT_EQ(describe(planned.value()), describe(expected)) << label;
            continue;
          }
          saw_failure = true;
          std::vector<Placement> uncapped;
          if (reference_pack(order, unit, request.req.n,
                             std::numeric_limits<int>::max(), skip,
                             uncapped) == 0) {
            saw_cap = true;
          }
        }
      }
      EXPECT_TRUE(saw_cap) << placement_policy_name(policy);
      EXPECT_TRUE(saw_failure) << placement_policy_name(policy);
    }
  }
}

TEST(Placement, ComponentPlansMatchTheReferenceRule) {
  const auto component = [](const std::string& name, int units) {
    image::ServiceComponent c;
    c.name = name;
    c.units = units;
    return c;
  };
  // Small components share hosts (best-fit too, once twelve of them have
  // filled the tightest hosts); the last set cannot fit anywhere.
  std::vector<image::ServiceComponent> many;
  for (int i = 0; i < 12; ++i) {
    many.push_back(component("c" + std::to_string(i), 1));
  }
  const std::vector<std::vector<image::ServiceComponent>> sets = {
      {component("front", 1), component("search", 1), component("db", 2)},
      {component("a", 3), component("b", 1), component("c", 1),
       component("d", 2), component("e", 1)},
      many,
      {component("front", 1), component("huge", 10)},
  };
  for (const PlacementPolicy policy : kPolicies) {
    bool shared = false;
    for (const std::uint64_t seed : kFleetSeeds) {
      MixedFleet fleet(policy, seed);
      const SodaMaster& master = fleet.hup.master();
      for (std::size_t s = 0; s < sets.size(); ++s) {
        for (const image::ImageManifest* manifest : fleet.manifests()) {
          const std::string label =
              std::string(placement_policy_name(policy)) + " seed " +
              std::to_string(seed) + " set " + std::to_string(s) +
              (manifest ? " +manifest" : "");
          const std::vector<Placement> expected = reference_components(
              master, reference_order(master, manifest), small_unit(),
              sets[s]);
          const bool fits = !expected.empty();
          const auto planned = master.planner().plan_components(
              small_unit(), sets[s], {manifest});
          ASSERT_EQ(planned.ok(), fits) << label;
          if (!fits) continue;
          EXPECT_EQ(describe(planned.value()), describe(expected)) << label;
          std::vector<SodaDaemon*> hosts;
          for (const Placement& p : planned.value()) hosts.push_back(p.daemon);
          std::sort(hosts.begin(), hosts.end());
          shared |=
              std::adjacent_find(hosts.begin(), hosts.end()) != hosts.end();
        }
      }
    }
    EXPECT_TRUE(shared) << placement_policy_name(policy)
                        << ": no plan put two components on one host";
  }
}

/// Growth and recovery skip the hosts the record already places on.
std::function<bool(const SodaDaemon&)> skips_placed_hosts(
    const std::vector<Placement>& current) {
  return [&current](const SodaDaemon& daemon) {
    return std::any_of(current.begin(), current.end(),
                       [&](const Placement& p) { return p.daemon == &daemon; });
  };
}

TEST(Placement, ResizeGrowthMatchesTheReferenceRule) {
  for (const PlacementPolicy policy : kPolicies) {
    for (const std::uint64_t seed : kFleetSeeds) {
      MixedFleet fleet(policy, seed);
      ASSERT_TRUE(fleet.create("web", 3, small_unit()).ok());
      const SodaMaster& master = fleet.hup.master();
      const ServiceRecord* record = master.find_service("web");
      ASSERT_NE(record, nullptr);
      for (const int n_new : {5, 14, 40, 400}) {
        const std::string label = std::string(placement_policy_name(policy)) +
                                  " seed " + std::to_string(seed) + " n=" +
                                  std::to_string(n_new);
        // Growth extends placed nodes in place first, then adds nodes.
        const host::ResourceVector unit =
            master.planner().inflated_unit(small_unit());
        int to_add = n_new;
        for (const Placement& p : record->placements) to_add -= p.units;
        ASSERT_GT(to_add, 0) << label;
        for (const Placement& p : record->placements) {
          to_add -=
              std::min(units_that_fit(p.daemon->available(), unit), to_add);
        }
        std::vector<Placement> expected;
        to_add = reference_pack(reference_order(master, nullptr), unit, to_add,
                                std::numeric_limits<int>::max(),
                                skips_placed_hosts(record->placements),
                                expected);
        const std::size_t before = record->placements.size();
        int calls = 0;
        ApiResult<ServiceResizingReply> grown =
            ApiError{ApiErrorCode::kInternal, "callback never fired"};
        fleet.hup.master().resize_service(
            "web", n_new,
            [&](ApiResult<ServiceResizingReply> reply, sim::SimTime) {
              ++calls;
              grown = std::move(reply);
            });
        fleet.hup.engine().run();
        ASSERT_EQ(calls, 1) << label;
        ASSERT_EQ(grown.ok(), to_add == 0) << label;
        if (grown.ok()) {
          EXPECT_EQ(describe(record->placements, before), describe(expected))
              << label;
        } else {
          EXPECT_EQ(record->placements.size(), before) << label;
        }
      }
    }
  }
}

TEST(Placement, RecoveryMatchesTheReferenceRule) {
  for (const PlacementPolicy policy : kPolicies) {
    for (const std::uint64_t seed : kFleetSeeds) {
      MixedFleet fleet(policy, seed);
      ASSERT_TRUE(fleet.create("web", 9, small_unit()).ok());
      SodaMaster& master = fleet.hup.master();
      const ServiceRecord* record = master.find_service("web");
      ASSERT_NE(record, nullptr);
      ASSERT_GE(record->placements.size(), 2u);
      const std::string label =
          std::string(placement_policy_name(policy)) + " seed " +
          std::to_string(seed);
      // Recovery re-plans the crashed host's units onto the survivors,
      // skipping the hosts the service still holds.
      SodaDaemon* victim = record->placements[1].daemon;
      std::vector<Placement> survivors;
      int missing = record->requirement.n;
      for (const Placement& p : record->placements) {
        if (p.daemon == victim) continue;
        survivors.push_back(p);
        missing -= p.units;
      }
      fleet.hup.crash_host(victim->host_name());
      std::vector<SodaDaemon*> order = reference_order(master, nullptr);
      order.erase(std::find(order.begin(), order.end(), victim));
      std::vector<Placement> expected;
      const int short_by = reference_pack(
          order, master.planner().inflated_unit(small_unit()), missing,
          std::numeric_limits<int>::max(), skips_placed_hosts(survivors),
          expected);
      ASSERT_FALSE(expected.empty()) << label;

      EXPECT_EQ(master.poll_liveness_once(), 1u) << label;
      EXPECT_EQ(describe(record->placements, survivors.size()),
                describe(expected))
          << label;
      fleet.hup.engine().run();
      EXPECT_EQ(record->lifecycle.state() == ServiceState::kRunning,
                short_by == 0)
          << label;
    }
  }
}

/// Every consumer's plan on `master`'s HUP as it stands, against the rule
/// applied literally: admission (with the skip rule at work on "web") and
/// partitioned admission, each without and with the image's manifest, then
/// growth of "web" and its recovery after losing its first placement (both
/// skip the hosts the record holds).
void expect_every_consumer_matches(const SodaMaster& master,
                                   const image::ImageManifest& manifest,
                                   const std::string& label) {
  const PlacementPlanner& planner = master.planner();
  const int cap = master.config().max_nodes_per_service;
  std::vector<image::ServiceComponent> components;
  for (const int units : {3, 1, 1, 2, 1}) {
    image::ServiceComponent c;
    c.name = "c" + std::to_string(components.size());
    c.units = units;
    components.push_back(c);
  }
  const host::ResourceRequirement requests[] = {
      {6, one_per_host_unit()}, {18, one_per_host_unit()}, {9, small_unit()}};
  for (const image::ImageManifest* m :
       {static_cast<const image::ImageManifest*>(nullptr), &manifest}) {
    const std::string at = label + (m ? " +manifest" : "");
    const auto order = reference_order(master, m);
    for (const std::string service : {"probe", "web"}) {
      for (const auto& req : requests) {
        std::vector<Placement> expected;
        const int short_by = reference_pack(
            order, planner.inflated_unit(req.m), req.n, cap,
            [&](const SodaDaemon& d) { return d.serves_service(service); },
            expected);
        const auto planned = planner.plan_allocation(service, req, m);
        ASSERT_EQ(planned.ok(), short_by == 0)
            << at << " " << service << " " << req.to_string();
        if (planned.ok()) {
          EXPECT_EQ(describe(planned.value()), describe(expected))
              << at << " " << service << " " << req.to_string();
        }
      }
    }
    const std::vector<Placement> expected =
        reference_components(master, order, small_unit(), components);
    const auto planned = planner.plan_components(small_unit(), components, m);
    ASSERT_EQ(planned.ok(), !expected.empty()) << at << " components";
    if (planned.ok()) {
      EXPECT_EQ(describe(planned.value()), describe(expected))
          << at << " components";
    }
  }
  const ServiceRecord* web = master.find_service("web");
  ASSERT_NE(web, nullptr) << label;
  std::vector<Placement> held = web->placements;
  const host::ResourceVector unit = planner.inflated_unit(small_unit());
  for (const char* consumer : {"growth", "recovery"}) {
    if (std::string(consumer) == "recovery" && !held.empty()) {
      held.erase(held.begin());
    }
    std::vector<Placement> expected;
    const int short_by = reference_pack(
        reference_order(master, nullptr), unit, 12,
        std::numeric_limits<int>::max(), skips_placed_hosts(held), expected);
    std::vector<Placement> planned;
    EXPECT_EQ(planner.plan_growth(unit, 12, held, planned), short_by)
        << label << " " << consumer;
    EXPECT_EQ(describe(planned), describe(expected))
        << label << " " << consumer;
  }
}

TEST(Placement, EveryConsumerMatchesTheReferenceRuleAcrossMutations) {
  for (const PlacementPolicy policy : kPolicies) {
    for (const std::uint64_t seed : kFleetSeeds) {
      MixedFleet fleet(policy, seed);
      const std::string name = std::string(placement_policy_name(policy)) +
                               " seed " + std::to_string(seed) + " ";
      ASSERT_TRUE(fleet.create("web", 5, small_unit()).ok()) << name;
      ASSERT_TRUE(fleet.create("db", 4, small_unit()).ok()) << name;
      expect_every_consumer_matches(fleet.hup.master(), fleet.manifest,
                                    name + "admitted");

      // Reservations made on the hosts directly, between decisions.
      host::ResourceVector load;
      load.cpu_mhz = 500;
      load.memory_mb = 32;
      load.disk_mb = 64;
      load.bandwidth_mbps = 1;
      std::vector<std::pair<host::HupHost*, host::SliceId>> slices;
      for (const int i : {1, 7, 23, 24, 41}) {
        host::HupHost* host = fleet.hup.find_host("host-" + std::to_string(i));
        ASSERT_NE(host, nullptr);
        if (!host->available().fits(load)) continue;
        slices.emplace_back(host, must(host->reserve("direct", load)));
      }
      ASSERT_GE(slices.size(), 2u) << name;
      expect_every_consumer_matches(fleet.hup.master(), fleet.manifest,
                                    name + "reserved");
      const auto grows = std::find_if(
          slices.begin(), slices.end(),
          [&load](const auto& held) { return held.first->available().fits(load); });
      ASSERT_NE(grows, slices.end()) << name;
      must(grows->first->resize(grows->second, load.scaled(2)));
      must(slices.back().first->resize(slices.back().second, load.scaled(0)));
      expect_every_consumer_matches(fleet.hup.master(), fleet.manifest,
                                    name + "resized");
      for (const auto& [host, slice] : slices) must(host->release(slice));
      expect_every_consumer_matches(fleet.hup.master(), fleet.manifest,
                                    name + "released");

      ASSERT_TRUE(fleet.hup.master().teardown_service("db").ok()) << name;
      expect_every_consumer_matches(fleet.hup.master(), fleet.manifest,
                                    name + "torn down");

      // A host declared down (its slices released, "web" recovered onto
      // the rest), then back up with a new key.
      const std::string victim =
          fleet.hup.master().find_service("web")->placements.front()
              .daemon->host_name();
      fleet.hup.crash_host(victim);
      EXPECT_EQ(fleet.hup.master().poll_liveness_once(), 1u) << name;
      fleet.hup.engine().run();
      ASSERT_TRUE(fleet.hup.master().host_down(victim)) << name;
      expect_every_consumer_matches(fleet.hup.master(), fleet.manifest,
                                    name + "down");
      fleet.hup.recover_host(victim);
      EXPECT_EQ(fleet.hup.master().poll_liveness_once(), 1u) << name;
      fleet.hup.engine().run();
      ASSERT_FALSE(fleet.hup.master().host_down(victim)) << name;
      expect_every_consumer_matches(fleet.hup.master(), fleet.manifest,
                                    name + "up");

      // Save, then load into a fresh Hup: the restored planner ranks the
      // restored hosts and hears their later changes.
      const std::string bytes = must(fleet.hup.save_snapshot());
      Hup restored(MixedFleet::config_for(policy));
      must(restored.load_snapshot(bytes));
      expect_every_consumer_matches(restored.master(), fleet.manifest,
                                    name + "loaded");
      host::HupHost* host = restored.find_host("host-7");
      ASSERT_NE(host, nullptr);
      const host::SliceId slice = must(host->reserve("direct", load));
      expect_every_consumer_matches(restored.master(), fleet.manifest,
                                    name + "loaded, reserved");
      must(host->release(slice));
      expect_every_consumer_matches(restored.master(), fleet.manifest,
                                    name + "loaded, released");
    }
  }
}

// ---------- Repository re-resolution (no cached pointer) ----------

TEST(Priming, ResizeAfterRepositoryUnregisterFailsCleanly) {
  EqualHosts t(2);
  ASSERT_TRUE(t.create("web", 1).ok());
  ASSERT_TRUE(t.hup.master().unregister_repository("asp-repo"));

  // Growth needs a brand-new node on host-1; its priming must re-resolve
  // the repository by name and fail cleanly — never touch a stale pointer.
  int calls = 0;
  const auto grown = t.resize("web", 2, &calls);
  EXPECT_EQ(calls, 1);
  ASSERT_FALSE(grown.ok());
  EXPECT_EQ(grown.error().code, ApiErrorCode::kPrimingFailed);
  EXPECT_NE(grown.error().message.find("unknown repository"), std::string::npos);

  // The service keeps running at its old size, with no orphaned placement.
  const ServiceRecord* record = t.hup.master().find_service("web");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lifecycle.state(), ServiceState::kRunning);
  EXPECT_EQ(record->nodes.size(), 1u);
  EXPECT_EQ(record->placements.size(), 1u);
}

TEST(Priming, RecoveryAfterRepositoryUnregisterStaysDegraded) {
  EqualHosts t(3);
  ASSERT_TRUE(t.create("web", 2).ok());
  ASSERT_TRUE(t.hup.master().unregister_repository("asp-repo"));

  // host-1 dies; recovery plans onto spare host-2 but its re-priming fails
  // on repository resolution: the service stays degraded, cleanly.
  t.hup.crash_host("host-1");
  EXPECT_EQ(t.hup.master().poll_liveness_once(), 1u);
  t.hup.engine().run();

  const ServiceRecord* record = t.hup.master().find_service("web");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lifecycle.state(), ServiceState::kDegraded);
  EXPECT_EQ(record->nodes.size(), 1u);
  for (const Placement& p : record->placements) {
    EXPECT_NE(p.daemon->host_name(), "host-1");
  }
  EXPECT_EQ(t.hup.master().recoveries_completed(), 0u);
}

// ---------- Degraded-service operations ----------

TEST(ControlPlane, WarmHostsSkipsDownHostsAndFiresOnce) {
  MasterConfig config;
  config.distribution.enabled = true;
  config.distribution.p2p = false;
  EqualHosts t(2, config);
  t.hup.crash_host("host-1");
  EXPECT_EQ(t.hup.master().poll_liveness_once(), 1u);

  int calls = 0;
  t.hup.master().warm_hosts(t.location, {"host-0", "host-1"},
                            [&](Status status, sim::SimTime) {
                              ++calls;
                              must(std::move(status));
                            });
  t.hup.engine().run();
  EXPECT_EQ(calls, 1);
  EXPECT_GT(t.hup.find_daemon("host-0")->distributor().cache().chunk_count(),
            0u);
  EXPECT_EQ(t.hup.find_daemon("host-1")->distributor().cache().chunk_count(),
            0u);

  // Every target down: one clean error, not silence.
  int failed_calls = 0;
  t.hup.master().warm_hosts(t.location, {"host-1"},
                            [&](Status status, sim::SimTime) {
                              ++failed_calls;
                              EXPECT_FALSE(status.ok());
                            });
  t.hup.engine().run();
  EXPECT_EQ(failed_calls, 1);
}

TEST(ControlPlane, ResizeOfDegradedServiceIsRejectedOnce) {
  EqualHosts t(2);
  ASSERT_TRUE(t.create("web", 2).ok());
  t.hup.crash_host("host-1");
  EXPECT_EQ(t.hup.master().poll_liveness_once(), 1u);
  t.hup.engine().run();
  const ServiceRecord* record = t.hup.master().find_service("web");
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->lifecycle.state(), ServiceState::kDegraded);

  // Resizing a degraded service is an illegal lifecycle transition: exactly
  // one callback, a clean error, and no placement lands on the dead host.
  int calls = 0;
  const auto resized = t.resize("web", 2, &calls);
  EXPECT_EQ(calls, 1);
  ASSERT_FALSE(resized.ok());
  EXPECT_EQ(resized.error().code, ApiErrorCode::kInvalidRequest);
  for (const Placement& p : record->placements) {
    EXPECT_NE(p.daemon->host_name(), "host-1");
  }
  EXPECT_EQ(record->lifecycle.state(), ServiceState::kDegraded);
}

TEST(ControlPlane, GrowthNeverLandsOnDownHost) {
  EqualHosts t(3);
  ASSERT_TRUE(t.create("web", 1).ok());
  t.hup.crash_host("host-1");
  EXPECT_EQ(t.hup.master().poll_liveness_once(), 1u);
  t.hup.engine().run();

  // The service itself is untouched (its node is on host-0), so growth is
  // legal — but the new node must skip the down host and land on host-2.
  const auto grown = t.resize("web", 2);
  ASSERT_TRUE(grown.ok());
  const ServiceRecord* record = t.hup.master().find_service("web");
  ASSERT_EQ(record->placements.size(), 2u);
  for (const Placement& p : record->placements) {
    EXPECT_NE(p.daemon->host_name(), "host-1");
  }
}

// ---------- Scenario coverage ----------

TEST(Scenario, ExpectMetricAndCacheAffinityVerbs) {
  util::global_logger().set_level(util::LogLevel::kOff);
  const char* script = R"(
    distribution cache
    placement cache-affinity
    host seattle 10.0.0.16
    host seattle 10.0.1.16
    repo asp-repo
    asp acme key
    publish web content-mb=4
    expect-metric admissions 0
    create store web n=1
    expect-metric admissions 1
    expect-metric services_started 1
    expect-metric rejections 0
    expect-error create giant web n=50
    expect-metric rejections 1
    teardown store
    expect-metric teardowns 1
  )";
  auto scenario = must(Scenario::parse(script));
  must(scenario.run());
}

}  // namespace
}  // namespace soda::core
