// End-to-end tests for the failure-detection and recovery subsystem: host
// fail-stop crashes, the Master's heartbeat-timeout detector, re-priming of
// lost capacity on surviving hosts, switch re-homing, graceful degradation
// when nothing fits, the fault-injection plan layer, downloader retry, and
// monitor flap counting under injected faults.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/hup.hpp"
#include "core/monitor.hpp"
#include "image/downloader.hpp"
#include "image/image.hpp"
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

/// N seattle-class hosts + repo + registered ASP, one replicated web
/// service of `n` units already running.
struct World {
  std::unique_ptr<Hup> hup;
  image::ImageRepository* repo = nullptr;
  image::ImageLocation location;

  explicit World(int hosts, int n, const char* service = "web") {
    util::global_logger().set_level(util::LogLevel::kOff);
    MasterConfig config;
    config.placement = PlacementPolicy::kWorstFit;
    hup = std::make_unique<Hup>(config);
    for (int i = 0; i < hosts; ++i) {
      host::HostSpec spec = host::HostSpec::seattle();
      spec.name = "host-" + std::to_string(i);
      hup->add_host(spec,
                    net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
                    16);
    }
    repo = &hup->add_repository("asp-repo");
    hup->agent().register_asp("asp", "key");
    location = must(repo->publish(image::web_content_image(4 * 1024 * 1024)));
    create(service, n);
  }

  void create(const std::string& name, int n) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = location;
    request.requirement = {n, small_unit()};
    hup->agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup->engine().run();
  }

  [[nodiscard]] const ServiceRecord* record(const char* name = "web") const {
    return hup->master().find_service(name);
  }
};

bool trace_has(Hup& hup, TraceKind kind) {
  for (const auto& event : hup.trace().events()) {
    if (event.kind == kind) return true;
  }
  return false;
}

TEST(FaultRecovery, HostCrashDetectedByPollAndCapacityRestored) {
  World w(3, 3);
  const std::string victim = w.record()->nodes.front().host_name;

  w.hup->crash_host(victim);
  EXPECT_EQ(w.hup->master().poll_liveness_once(), 1u);
  EXPECT_TRUE(w.hup->master().host_down(victim));
  EXPECT_EQ(w.hup->master().placements_lost(), 1u);
  w.hup->engine().run();  // recovery priming completes

  EXPECT_EQ(w.record()->lifecycle.state(), ServiceState::kRunning);
  EXPECT_EQ(w.hup->master().recoveries_completed(), 1u);
  // Full capacity is back (worst-fit packs two units per seattle-class
  // host, so the node count can differ from n), and none of it sits on
  // the dead host.
  int units = 0;
  for (const auto& node : w.record()->nodes) {
    EXPECT_NE(node.host_name, victim);
    units += node.capacity_units;
  }
  EXPECT_EQ(units, 3);
  // Every surviving/re-created backend is routable again.
  ServiceSwitch* sw = w.hup->master().find_switch("web");
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->backends().size(), w.record()->nodes.size());
  int backend_capacity = 0;
  for (const auto& backend : sw->backends()) {
    backend_capacity += backend.entry.capacity;
  }
  EXPECT_EQ(backend_capacity, 3);
  EXPECT_TRUE(sw->route().ok());
  EXPECT_TRUE(trace_has(*w.hup, TraceKind::kHostDown));
  EXPECT_TRUE(trace_has(*w.hup, TraceKind::kNodeLost));
  EXPECT_TRUE(trace_has(*w.hup, TraceKind::kDegraded));
  EXPECT_TRUE(trace_has(*w.hup, TraceKind::kRecovered));
}

TEST(FaultRecovery, HeartbeatTimeoutDetectsWithinBound) {
  World w(3, 3);
  const std::string victim = w.record()->nodes.front().host_name;
  FailureDetectorConfig config;  // 250 ms heartbeats, 1 s timeout
  w.hup->enable_failure_detection(config);

  const sim::SimTime crash_at = w.hup->engine().now() + sim::SimTime::seconds(2);
  FaultPlan plan;
  plan.crash_host(crash_at, victim);
  FaultInjector injector(*w.hup);
  must(injector.arm(plan));

  w.hup->engine().run_until(crash_at + sim::SimTime::seconds(5));
  EXPECT_EQ(w.hup->master().host_failures_detected(), 1u);
  EXPECT_TRUE(w.hup->master().host_down(victim));

  sim::SimTime detected_at = sim::SimTime::zero();
  for (const auto& event : w.hup->trace().events()) {
    if (event.kind == TraceKind::kHostDown) detected_at = event.at;
  }
  const sim::SimTime bound =
      config.timeout + config.heartbeat_interval + config.heartbeat_interval;
  EXPECT_GE(detected_at, crash_at + config.timeout - config.heartbeat_interval);
  EXPECT_LE(detected_at, crash_at + bound);
  // Recovery also completed within the window.
  EXPECT_EQ(w.record()->lifecycle.state(), ServiceState::kRunning);
  EXPECT_EQ(w.hup->master().recoveries_completed(), 1u);
}

TEST(FaultRecovery, HeartbeatsResumeAfterHostRecovers) {
  World w(3, 3);
  const std::string victim = w.record()->nodes.front().host_name;
  w.hup->enable_failure_detection();

  const sim::SimTime crash_at = w.hup->engine().now() + sim::SimTime::seconds(1);
  FaultPlan plan;
  plan.crash_host(crash_at, victim)
      .recover_host(crash_at + sim::SimTime::seconds(5), victim);
  FaultInjector injector(*w.hup);
  must(injector.arm(plan));

  w.hup->engine().run_until(crash_at + sim::SimTime::seconds(10));
  EXPECT_FALSE(w.hup->master().host_down(victim));
  EXPECT_TRUE(trace_has(*w.hup, TraceKind::kHostUp));
  EXPECT_EQ(injector.injected(), 2u);
}

TEST(FaultRecovery, SwitchRehomesWhenColocationHostDies) {
  World w(3, 3);
  ServiceSwitch* sw = w.hup->master().find_switch("web");
  ASSERT_NE(sw, nullptr);
  std::string victim;
  for (const auto& node : w.record()->nodes) {
    if (node.address == sw->listen_address()) victim = node.host_name;
  }
  ASSERT_FALSE(victim.empty());

  w.hup->crash_host(victim);
  w.hup->master().poll_liveness_once();
  w.hup->engine().run();

  bool listen_is_live_node = false;
  for (const auto& node : w.record()->nodes) {
    EXPECT_NE(node.host_name, victim);
    listen_is_live_node |= node.address == sw->listen_address();
  }
  EXPECT_TRUE(listen_is_live_node);
  EXPECT_EQ(w.record()->lifecycle.state(), ServiceState::kRunning);
}

TEST(FaultRecovery, StaysDegradedWhenNothingFitsThenHealsOnHostReturn) {
  // Two tacoma-class hosts fit exactly one inflated unit each: when one
  // dies there is nowhere to re-create its unit.
  util::global_logger().set_level(util::LogLevel::kOff);
  Hup hup;
  for (int i = 0; i < 2; ++i) {
    host::HostSpec spec = host::HostSpec::tacoma();
    spec.name = "host-" + std::to_string(i);
    hup.add_host(spec, net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
                 16);
  }
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(4 * 1024 * 1024)));
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
  const std::string victim = record->nodes.front().host_name;
  hup.crash_host(victim);
  hup.master().poll_liveness_once();
  hup.engine().run();

  // Graceful degradation: half capacity, explicit degraded state, the
  // remaining backend still serves.
  EXPECT_EQ(record->lifecycle.state(), ServiceState::kDegraded);
  EXPECT_EQ(record->nodes.size(), 1u);
  EXPECT_EQ(hup.master().recoveries_completed(), 0u);
  ServiceSwitch* sw = hup.master().find_switch("web");
  ASSERT_NE(sw, nullptr);
  EXPECT_TRUE(sw->route().ok());

  // The host reboots (empty) — the detector re-attempts recovery and the
  // service returns to full capacity.
  hup.recover_host(victim);
  hup.master().poll_liveness_once();
  hup.engine().run();
  EXPECT_EQ(record->lifecycle.state(), ServiceState::kRunning);
  EXPECT_EQ(record->nodes.size(), 2u);
  EXPECT_EQ(hup.master().recoveries_completed(), 1u);
}

TEST(FaultRecovery, CrashDuringPrimingFailsCreationCleanly) {
  // One-host world; the host dies while the service is still priming. The
  // creation callback must see an error (not a crash on released state).
  util::global_logger().set_level(util::LogLevel::kOff);
  Hup hup;
  hup.add_host(host::HostSpec::seattle(), net::Ipv4Address(10, 0, 0, 16), 16);
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(4 * 1024 * 1024)));

  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = location;
  request.requirement = {1, small_unit()};
  bool failed = false;
  hup.agent().service_creation(request,
                               [&](auto reply, sim::SimTime) {
                                 failed = !reply.ok();
                               });
  // Crash while the image download / boot is in flight.
  hup.engine().schedule_after(sim::SimTime::milliseconds(50),
                              [&] { hup.crash_host("seattle"); });
  hup.engine().run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(hup.master().find_service("web"), nullptr);
}

TEST(Faults, PlanBuildsSortedSchedule) {
  FaultPlan plan;
  plan.crash_guest(sim::SimTime::seconds(3), "web/0")
      .crash_host(sim::SimTime::seconds(1), "host-0")
      .recover_host(sim::SimTime::seconds(2), "host-0");
  const auto events = plan.build();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FaultKind::kHostCrash);
  EXPECT_EQ(events[1].kind, FaultKind::kHostRecover);
  EXPECT_EQ(events[2].kind, FaultKind::kGuestCrash);
  EXPECT_EQ(fault_kind_name(FaultKind::kSlowHost), "slow-host");
}

TEST(Faults, SlowHostStretchesTransfers) {
  util::global_logger().set_level(util::LogLevel::kOff);
  Hup hup;
  hup.add_host(host::HostSpec::seattle(), net::Ipv4Address(10, 0, 0, 16), 4);
  const auto client = hup.add_client("c");
  auto measure = [&] {
    double finished = -1;
    const sim::SimTime start = hup.engine().now();
    must(hup.network().start_flow(
        client, hup.find_host("seattle")->lan_node(), 1'250'000,
        [&](sim::SimTime t) { finished = (t - start).to_seconds(); }));
    hup.engine().run();
    return finished;
  };
  const double nominal = measure();
  FaultPlan plan;
  plan.slow_host(hup.engine().now(), "seattle", 0.1);
  FaultInjector injector(hup);
  must(injector.arm(plan));
  hup.engine().run();
  const double slowed = measure();
  EXPECT_NEAR(slowed / nominal, 10.0, 0.5);
  // restore_host_speed is slow_host at factor 1.
  injector.inject(FaultEvent{hup.engine().now(), FaultKind::kSlowHost,
                             "seattle", 1.0});
  EXPECT_NEAR(measure(), nominal, nominal * 0.01);
}

TEST(Faults, GuestCrashCountedByMonitorUnderInjector) {
  // n=3 over two seattle hosts → two nodes (2 units + 1 unit), so one
  // crashed guest leaves a healthy backend to route to.
  World w(2, 3);
  HealthMonitor& monitor = w.hup->health_monitor();
  EXPECT_EQ(monitor.probe_once(), 0u);
  EXPECT_EQ(monitor.transitions_to_unhealthy(), 0u);

  const std::string node_name = w.record()->nodes.front().node_name;
  FaultPlan plan;
  plan.crash_guest(w.hup->engine().now() + sim::SimTime::seconds(1), node_name);
  FaultInjector injector(*w.hup);
  must(injector.arm(plan));
  w.hup->engine().run();

  // One flap to unhealthy, counted once; repeated probes do not re-count.
  EXPECT_EQ(monitor.probe_once(), 1u);
  EXPECT_EQ(monitor.probe_once(), 0u);
  EXPECT_EQ(monitor.transitions_to_unhealthy(), 1u);
  EXPECT_EQ(monitor.transitions_to_healthy(), 0u);
  // The switch no longer routes to the crashed guest.
  ServiceSwitch* sw = w.hup->master().find_switch("web");
  ASSERT_NE(sw, nullptr);
  const auto routed = sw->route();
  ASSERT_TRUE(routed.ok());
  EXPECT_NE(routed.value().address,
            w.record()->nodes.front().address);
}

TEST(DownloaderRetry, TransientFailuresRetriedWithBackoff) {
  util::global_logger().set_level(util::LogLevel::kOff);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto client = network.add_node("client");
  const auto repo_node = network.add_node("repo");
  network.add_duplex_link(client, repo_node, 100, sim::SimTime::microseconds(100));
  image::ImageRepository repo("repo", repo_node);
  const auto location = must(repo.publish(image::honeypot_image()));
  image::RepositoryDirectory directory;
  directory.add(&repo);

  image::HttpDownloader downloader(engine, network, client);
  downloader.set_directory(&directory);
  repo.fail_next_requests(2);
  bool ok = false;
  sim::SimTime finished;
  downloader.download(location, [&](auto image, sim::SimTime at) {
    ok = image.ok();
    finished = at;
  });
  engine.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(downloader.retries(), 2u);
  EXPECT_EQ(downloader.downloads_completed(), 1u);
  EXPECT_EQ(downloader.downloads_failed(), 0u);
  EXPECT_EQ(repo.failing_requests(), 0);
  // Backoff happened: two retries cost at least base + base*multiplier
  // minus the jitter band.
  using Policy = image::RetryPolicy;
  const double base = Policy::kBaseDelay.to_seconds();
  const double min_wait =
      (base + base * Policy::kMultiplier) * (1.0 - Policy::kJitter);
  EXPECT_GE(finished.to_seconds(), min_wait);
}

TEST(DownloaderRetry, DeterministicAcrossRuns) {
  auto run_once = [] {
    util::global_logger().set_level(util::LogLevel::kOff);
    sim::Engine engine;
    net::FlowNetwork network(engine);
    const auto client = network.add_node("client");
    const auto repo_node = network.add_node("repo");
    network.add_duplex_link(client, repo_node, 100,
                            sim::SimTime::microseconds(100));
    image::ImageRepository repo("repo", repo_node);
    const auto location = must(repo.publish(image::honeypot_image()));
    image::RepositoryDirectory directory;
    directory.add(&repo);
    image::HttpDownloader downloader(engine, network, client);
    downloader.set_directory(&directory);
    repo.fail_next_requests(3);
    sim::SimTime finished;
    downloader.download(location,
                        [&](auto, sim::SimTime at) { finished = at; });
    engine.run();
    return finished;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DownloaderRetry, PermanentErrorsNotRetried) {
  util::global_logger().set_level(util::LogLevel::kOff);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto client = network.add_node("client");
  const auto repo_node = network.add_node("repo");
  network.add_duplex_link(client, repo_node, 100, sim::SimTime::microseconds(100));
  image::ImageRepository repo("repo", repo_node);
  image::RepositoryDirectory directory;
  directory.add(&repo);

  image::HttpDownloader downloader(engine, network, client);
  downloader.set_directory(&directory);
  bool failed = false;
  downloader.download(image::ImageLocation{"repo", "/images/none.rpm"},
                      [&](auto image, sim::SimTime) { failed = !image.ok(); });
  engine.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(downloader.retries(), 0u);
  EXPECT_EQ(downloader.downloads_failed(), 1u);
}

TEST(DistributionFaults, PeerFetchFailsOverToOriginWhenPeerCrashes) {
  // host-0 primes the image first and becomes the swarm's seed. host-1 then
  // primes the same image, pulling chunks from host-0 — which crashes
  // mid-transfer. The in-flight peer fetches must fail over (to the origin,
  // since no other host holds the chunks) and the creation still succeed.
  util::global_logger().set_level(util::LogLevel::kOff);
  MasterConfig config;
  config.distribution.enabled = true;
  config.distribution.p2p = true;
  Hup hup(config);
  for (int i = 0; i < 3; ++i) {
    host::HostSpec spec = host::HostSpec::seattle();
    spec.name = "host-" + std::to_string(i);
    hup.add_host(spec, net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 16),
                 16);
  }
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(16 * 1024 * 1024)));

  auto create = [&](const std::string& name, bool expect_ok) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = location;
    request.requirement = {1, small_unit()};
    bool ok = false;
    hup.agent().service_creation(
        request, [&](auto reply, sim::SimTime) { ok = reply.ok(); });
    hup.engine().run();
    EXPECT_EQ(ok, expect_ok) << name;
  };

  create("seed", true);  // worst-fit lands it on host-0
  ASSERT_GT(hup.find_daemon("host-0")->distributor().cache().chunk_count(), 0u);

  // Second service primes on host-1; kill the seed shortly after it starts
  // pulling chunks from host-0.
  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = location;
  request.requirement = {1, small_unit()};
  bool ok = false;
  hup.agent().service_creation(
      request, [&](auto reply, sim::SimTime) { ok = reply.ok(); });
  // ~1.3 s of peer transfers total; at 500 ms some chunks have landed and
  // several more are in flight from the seed.
  hup.engine().schedule_after(sim::SimTime::milliseconds(500),
                              [&] { hup.crash_host("host-0"); });
  hup.engine().run();
  EXPECT_TRUE(ok);

  const auto& distributor = hup.find_daemon("host-1")->distributor();
  EXPECT_GT(distributor.chunks_from_peers(), 0u);   // the swarm did start
  EXPECT_GE(distributor.peer_failovers(), 1u);      // and was cut mid-chunk
  EXPECT_GT(distributor.chunks_from_origin(), 0u);  // origin finished the job
  // The crashed seed's holdings are gone from the registry; host-1's own
  // reports replaced them.
  EXPECT_GT(hup.master().chunk_registry().tracked_chunks(), 0u);
}

TEST(DistributionFaults, RebootedHostPaysHandshakeAgain) {
  // Keep-alive survives service teardown (second download skips the TCP
  // handshake) but not a host crash: a rebooted host pays it again, and the
  // cold-path timing is bit-identical to the first boot.
  util::global_logger().set_level(util::LogLevel::kOff);
  Hup hup;  // distribution disabled: the legacy downloader path
  hup.add_host(host::HostSpec::seattle(), net::Ipv4Address(10, 0, 0, 16), 16);
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(4 * 1024 * 1024)));

  auto timed_create = [&](const std::string& name) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = location;
    request.requirement = {1, small_unit()};
    hup.agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup.engine().run();
    const auto download =
        hup.find_daemon("seattle")->priming_report(name + "/0")->download_time;
    must(hup.agent().service_teardown(
        ServiceTeardownRequest{{"asp", "key"}, name}));
    return download;
  };

  const sim::SimTime first = timed_create("a");
  const sim::SimTime kept_alive = timed_create("b");
  EXPECT_LT(kept_alive, first);  // no handshake on the persistent connection

  hup.crash_host("seattle");
  hup.recover_host("seattle");
  hup.master().poll_liveness_once();
  const sim::SimTime rebooted = timed_create("c");
  EXPECT_EQ(rebooted, first);  // the handshake is back, to the nanosecond
}

TEST(DistributionFaults, RepositoryRemovedDuringBackoffFailsCleanly) {
  // A transient 5xx puts the downloader into backoff; the repository is
  // destroyed before the retry fires. The retry must re-resolve through the
  // directory and fail with a clean error instead of touching freed memory.
  util::global_logger().set_level(util::LogLevel::kOff);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto client = network.add_node("client");
  const auto repo_node = network.add_node("repo");
  network.add_duplex_link(client, repo_node, 100, sim::SimTime::microseconds(100));
  auto repo = std::make_unique<image::ImageRepository>("repo", repo_node);
  const auto location = must(repo->publish(image::honeypot_image()));
  image::RepositoryDirectory directory;
  directory.add(repo.get());

  image::HttpDownloader downloader(engine, network, client);
  downloader.set_directory(&directory);
  repo->fail_next_requests(1);
  std::string error;
  downloader.download(location, [&](auto image, sim::SimTime) {
    ASSERT_FALSE(image.ok());
    error = image.error().message;
  });
  // The first attempt fails in ~1 ms; the retry backs off ~200 ms. Tear the
  // repository down in between.
  engine.schedule_after(sim::SimTime::milliseconds(100), [&] {
    EXPECT_TRUE(directory.remove("repo"));
    repo.reset();
  });
  engine.run();
  EXPECT_EQ(error, "repository 'repo' is no longer available");
  EXPECT_EQ(downloader.retries(), 1u);
  EXPECT_EQ(downloader.downloads_failed(), 1u);
  EXPECT_EQ(downloader.downloads_completed(), 0u);
}

TEST(DownloaderRetry, GivesUpAfterMaxAttempts) {
  util::global_logger().set_level(util::LogLevel::kOff);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto client = network.add_node("client");
  const auto repo_node = network.add_node("repo");
  network.add_duplex_link(client, repo_node, 100, sim::SimTime::microseconds(100));
  image::ImageRepository repo("repo", repo_node);
  const auto location = must(repo.publish(image::honeypot_image()));
  image::RepositoryDirectory directory;
  directory.add(&repo);

  image::HttpDownloader downloader(engine, network, client);
  downloader.set_directory(&directory);
  repo.fail_next_requests(100);
  std::string error;
  downloader.download(location, [&](auto image, sim::SimTime) {
    if (!image.ok()) error = image.error().message;
  });
  engine.run();
  EXPECT_EQ(downloader.retries(), 3u);  // 4 attempts total
  EXPECT_EQ(downloader.downloads_failed(), 1u);
  EXPECT_EQ(error, "HTTP 503 Service Unavailable");
}

// Regression (found by fig_chaos): a host coming back while a re-priming
// batch is still in flight must not flip the service to kRunning early —
// the in-flight placement has no booted node yet, and if that priming then
// fails the service would be stranded kRunning below capacity forever.
TEST(FaultRecovery, RecoveryNotDeclaredWhilePrimingStillInFlight) {
  World w(2, 1);
  const std::string first = w.record()->nodes.front().host_name;
  w.hup->crash_host(first);
  w.hup->master().poll_liveness_once();
  ASSERT_EQ(w.record()->lifecycle.state(), ServiceState::kDegraded);
  ASSERT_EQ(w.record()->placements.size(), 1u);  // re-priming planned
  const std::string second = w.record()->placements.front().daemon->host_name();
  EXPECT_NE(second, first);

  // Mid-priming (the boot alone takes seconds), the crashed host reboots.
  w.hup->engine().run_until(w.hup->engine().now() + sim::SimTime::seconds(1));
  ASSERT_TRUE(w.record()->nodes.empty());  // replacement not booted yet
  w.hup->recover_host(first);
  w.hup->master().poll_liveness_once();
  EXPECT_EQ(w.record()->lifecycle.state(), ServiceState::kDegraded);

  // Then the re-priming host dies too. The failed batch plus the rebooted
  // original host must still converge to full capacity.
  w.hup->crash_host(second);
  w.hup->master().poll_liveness_once();
  w.hup->engine().run();
  EXPECT_EQ(w.record()->lifecycle.state(), ServiceState::kRunning);
  int units = 0;
  for (const auto& node : w.record()->nodes) {
    EXPECT_NE(node.host_name, second);
    units += node.capacity_units;
  }
  EXPECT_EQ(units, 1);
}

// Regression (found by fig_chaos): when two recovery batches overlap —
// crash, re-prime, crash the re-priming host, re-prime elsewhere — the
// first batch's failure cleanup must only drop its own placements. Erasing
// the second batch's in-flight placement leaves its node orphaned when it
// boots, and the service degraded forever.
TEST(FaultRecovery, ConcurrentRecoveryBatchesSurviveFailedSibling) {
  World w(3, 1);
  const std::string first = w.record()->nodes.front().host_name;
  w.hup->crash_host(first);
  w.hup->master().poll_liveness_once();
  ASSERT_EQ(w.record()->placements.size(), 1u);
  const std::string second = w.record()->placements.front().daemon->host_name();

  // Kill the re-priming host while its batch is in flight; detection plans
  // a second batch on the remaining host before the first batch fails.
  w.hup->engine().run_until(w.hup->engine().now() + sim::SimTime::seconds(1));
  w.hup->crash_host(second);
  w.hup->master().poll_liveness_once();
  ASSERT_EQ(w.record()->placements.size(), 1u);  // the second batch's plan
  const std::string third = w.record()->placements.front().daemon->host_name();
  EXPECT_NE(third, first);
  EXPECT_NE(third, second);

  w.hup->engine().run();  // first batch fails, second completes
  EXPECT_EQ(w.record()->lifecycle.state(), ServiceState::kRunning);
  ASSERT_EQ(w.record()->nodes.size(), 1u);
  ASSERT_EQ(w.record()->placements.size(), 1u);
  EXPECT_EQ(w.record()->nodes.front().node_name,
            w.record()->placements.front().node_name);
  EXPECT_EQ(w.record()->nodes.front().host_name, third);
}

TEST(Faults, ArmValidatesPlanBeforeScheduling) {
  World w(2, 1);
  FaultInjector injector(*w.hup);

  FaultPlan unknown_host;
  unknown_host.crash_host(sim::SimTime::seconds(1), "nonesuch");
  const Status bad_host = injector.arm(unknown_host);
  ASSERT_FALSE(bad_host.ok());
  EXPECT_NE(bad_host.error().message.find("nonesuch"), std::string::npos);

  FaultPlan bad_factor;
  bad_factor.slow_host(sim::SimTime::seconds(1), "host-0", 0.0);
  const Status nonpositive = injector.arm(bad_factor);
  ASSERT_FALSE(nonpositive.ok());
  EXPECT_NE(nonpositive.error().message.find("non-positive"),
            std::string::npos);

  FaultPlan unknown_node;
  unknown_node.crash_guest(sim::SimTime::seconds(1), "web/99");
  EXPECT_FALSE(injector.arm(unknown_node).ok());

  // A rejected plan schedules nothing.
  EXPECT_EQ(injector.injected(), 0u);

  const sim::SimTime t0 = w.hup->engine().now();
  FaultPlan good;
  good.slow_host(t0 + sim::SimTime::seconds(1), "host-0", 2.0);
  good.restore_host_speed(t0 + sim::SimTime::seconds(2), "host-0");
  good.lossy_link(t0 + sim::SimTime::seconds(1), "host-1", 0.5);
  good.crash_guest(t0 + sim::SimTime::seconds(3),
                   w.record()->nodes.front().node_name);
  EXPECT_TRUE(injector.arm(good).ok());
  w.hup->engine().run();
  EXPECT_EQ(injector.injected(), 4u);
}

}  // namespace
}  // namespace soda::core
