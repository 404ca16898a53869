// Tests for the decomposed control plane: the typed event bus and metrics
// registry, strategy-driven placement (including cache-affinity and the
// deterministic equal-host tie-break), the shared priming coordinator's
// repository re-resolution, and degraded-service behavior of warm_hosts and
// resize_service.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/hup.hpp"
#include "image/chunk.hpp"
#include "image/image.hpp"
#include "scenario/scenario.hpp"
#include "sim/parallel_runner.hpp"
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

TEST(Placement, EqualHostsTieBreakOnRegistrationOrder) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
        PlacementPolicy::kWorstFit, PlacementPolicy::kCacheAffinity}) {
    MasterConfig config;
    config.placement = policy;
    EqualHosts t(4, config);
    // All four hosts are identical, so every policy degenerates to the
    // explicit tie-break: registration order.
    const auto ordered = t.hup.master().planner().ordered_daemons();
    ASSERT_EQ(ordered.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(ordered[i]->host_name(), "host-" + std::to_string(i))
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
  // No manifest in the query: ordering must equal worst-fit's.
  const auto plan =
      must(t.hup.master().plan_allocation("svc", {1, one_per_host_unit()}));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].daemon->host_name(), "host-0");
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
