// Unit tests for the workload layer: web content server, siege client,
// honeypot attack confinement, and the Figure 5 application mix.
#include <gtest/gtest.h>

#include <map>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "workload/apps.hpp"
#include "workload/honeypot.hpp"
#include "workload/siege.hpp"
#include "workload/webservice.hpp"

namespace soda::workload {
namespace {

struct ServerBed {
  sim::Engine engine;
  net::FlowNetwork network{engine};
  net::NodeId sw, client, server_node;

  ServerBed() {
    sw = network.add_node("switch");
    client = network.add_node("client");
    server_node = network.add_node("server");
    network.add_duplex_link(client, sw, 100, sim::SimTime::zero());
    network.add_duplex_link(server_node, sw, 100, sim::SimTime::zero());
  }
};

// ---------- WebContentServer ----------

TEST(WebServer, ProcessingTimeTracedSlowerThanNative) {
  ServerBed bed;
  WebContentServer native(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.6, 1);
  WebContentServer traced(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kUmlTraced, 2.6, 1);
  EXPECT_GT(traced.processing_time(64 * 1024), native.processing_time(64 * 1024));
}

TEST(WebServer, ServesRequestAndDeliversResponse) {
  ServerBed bed;
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.0, 1);
  double delivered = -1;
  server.handle_request(bed.client, 12'500'000 - kResponseHeaderBytes,
                        [&](sim::SimTime t) { delivered = t.to_seconds(); });
  bed.engine.run();
  // ~1 s transfer at 100 Mbps plus sub-ms processing.
  EXPECT_NEAR(delivered, 1.0, 0.05);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_GT(server.busy_seconds(), 0.0);
}

TEST(WebServer, QueuesBeyondWorkerPool) {
  ServerBed bed;
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kUmlTraced, 0.05 /*slow cpu*/, 1);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    server.handle_request(bed.client, 1024, [&](sim::SimTime) { ++done; });
  }
  EXPECT_EQ(server.queue_depth(), 2u);  // one in service, two queued
  bed.engine.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(WebServer, MoreWorkersDrainFaster) {
  auto run_with_workers = [](int workers) {
    ServerBed bed;
    WebContentServer server(bed.engine, bed.network, bed.server_node,
                            vm::ExecMode::kUmlTraced, 0.05, workers);
    double last = 0;
    for (int i = 0; i < 4; ++i) {
      server.handle_request(bed.client, 1024,
                            [&](sim::SimTime t) { last = t.to_seconds(); });
    }
    bed.engine.run();
    return last;
  };
  EXPECT_LT(run_with_workers(4), run_with_workers(1));
}

TEST(WebServer, DownServerDropsRequests) {
  ServerBed bed;
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.0, 1);
  server.set_down(true);
  int done = 0;
  server.handle_request(bed.client, 1024, [&](sim::SimTime) { ++done; });
  bed.engine.run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(server.requests_dropped(), 1u);
  EXPECT_EQ(server.requests_served(), 0u);
}

TEST(WebServer, ShaperLinkLimitsResponseRate) {
  ServerBed bed;
  const net::LinkId shaper = bed.network.add_virtual_link(10);
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.6, 1, {shaper});
  double delivered = -1;
  server.handle_request(bed.client, 1'250'000,
                        [&](sim::SimTime t) { delivered = t.to_seconds(); });
  bed.engine.run();
  EXPECT_NEAR(delivered, 1.0, 0.05);  // 1.25 MB at 10 Mbps, not 100
}

// ---------- SiegeClient ----------

TEST(Siege, ClosedLoopCompletesExactly) {
  ServerBed bed;
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.6, 4);
  SiegeConfig cfg;
  cfg.concurrency = 4;
  cfg.max_requests = 100;
  cfg.response_bytes = 2048;
  cfg.think_time = sim::SimTime::milliseconds(1);
  SiegeClient siege(bed.engine, bed.network, bed.client, nullptr, std::nullopt,
                    cfg);
  siege.register_backend(net::Ipv4Address(10, 0, 0, 1), &server,
                         bed.server_node);
  siege.start();
  bed.engine.run();
  EXPECT_TRUE(siege.finished());
  EXPECT_EQ(siege.completed(), 100u);
  EXPECT_EQ(siege.stats().completed(), 100u);
  EXPECT_EQ(siege.stats().errors(), 0u);
  EXPECT_GT(siege.stats().p50(), 0.0);
  EXPECT_EQ(siege.backend_latency(net::Ipv4Address(10, 0, 0, 1)).count(), 100u);
}

TEST(Siege, RoutesThroughSwitchWithWrrSplit) {
  ServerBed bed;
  const net::NodeId node2 = bed.network.add_node("server2");
  bed.network.add_duplex_link(node2, bed.sw, 100, sim::SimTime::zero());
  WebContentServer s1(bed.engine, bed.network, bed.server_node,
                      vm::ExecMode::kUmlTraced, 2.6, 4);
  WebContentServer s2(bed.engine, bed.network, node2, vm::ExecMode::kUmlTraced,
                      1.8, 2);
  const net::Ipv4Address ip1(10, 0, 0, 1), ip2(10, 0, 0, 2);
  core::ServiceSwitch sw("web", ip1, 8080);
  must(sw.add_backend(core::BackEndEntry{ip1, 8080, 2, {}}));
  must(sw.add_backend(core::BackEndEntry{ip2, 8080, 1, {}}));

  SiegeConfig cfg;
  cfg.concurrency = 3;
  cfg.max_requests = 300;
  cfg.response_bytes = 4096;
  SiegeClient siege(bed.engine, bed.network, bed.client, &sw, bed.server_node,
                    cfg);
  siege.register_backend(ip1, &s1, bed.server_node);
  siege.register_backend(ip2, &s2, node2);
  siege.start();
  bed.engine.run();
  EXPECT_EQ(siege.completed(), 300u);
  EXPECT_EQ(siege.completed_by(ip1), 200u);  // twice the capacity
  EXPECT_EQ(siege.completed_by(ip2), 100u);
  EXPECT_EQ(siege.stats().completed(), 300u);
  EXPECT_GT(siege.backend_latency(ip1).mean(), 0.0);
}

TEST(Siege, BackendLatencyMatchesObservedOutcomes) {
  // Differential: each backend's RunningStats holds exactly the outcomes the
  // observer attributed to it — same count, same sum in the same order.
  ServerBed bed;
  const net::NodeId node2 = bed.network.add_node("server2");
  bed.network.add_duplex_link(node2, bed.sw, 100, sim::SimTime::zero());
  WebContentServer s1(bed.engine, bed.network, bed.server_node,
                      vm::ExecMode::kUmlTraced, 2.6, 4);
  WebContentServer s2(bed.engine, bed.network, node2, vm::ExecMode::kUmlTraced,
                      1.8, 2);
  const net::Ipv4Address ip1(10, 0, 0, 1), ip2(10, 0, 0, 2);
  core::ServiceSwitch sw("web", ip1, 8080);
  must(sw.add_backend(core::BackEndEntry{ip1, 8080, 2, {}}));
  must(sw.add_backend(core::BackEndEntry{ip2, 8080, 1, {}}));

  SiegeConfig cfg;
  cfg.concurrency = 5;
  cfg.max_requests = 150;
  cfg.response_bytes = 16 * 1024;
  SiegeClient siege(bed.engine, bed.network, bed.client, &sw, bed.server_node,
                    cfg);
  siege.register_backend(ip1, &s1, bed.server_node);
  siege.register_backend(ip2, &s2, node2);
  std::map<std::uint32_t, std::pair<std::uint64_t, double>> seen;
  siege.set_observer([&](const SiegeClient::RequestOutcome& o) {
    ASSERT_FALSE(o.refused);
    auto& [count, sum] = seen[o.backend.value()];
    ++count;
    sum += o.latency_s;
  });
  siege.start();
  bed.engine.run();
  ASSERT_EQ(seen.size(), 2u);
  for (const net::Ipv4Address ip : {ip1, ip2}) {
    const sim::RunningStats latency = siege.backend_latency(ip);
    EXPECT_EQ(latency.count(), seen[ip.value()].first);
    EXPECT_EQ(latency.sum(), seen[ip.value()].second);
  }
  EXPECT_EQ(siege.backend_latency(ip1).count() +
                siege.backend_latency(ip2).count(),
            siege.stats().completed());
  EXPECT_EQ(siege.backend_latency(net::Ipv4Address(10, 0, 0, 9)).count(), 0u);
}

TEST(Siege, RefusedWhenNoHealthyBackend) {
  ServerBed bed;
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.6, 1);
  const net::Ipv4Address ip(10, 0, 0, 1);
  core::ServiceSwitch sw("web", ip, 8080);
  must(sw.add_backend(core::BackEndEntry{ip, 8080, 1, {}}));
  must(sw.set_backend_health(ip, 8080, false));
  SiegeConfig cfg;
  cfg.concurrency = 2;
  cfg.max_requests = 10;
  SiegeClient siege(bed.engine, bed.network, bed.client, &sw, bed.server_node,
                    cfg);
  siege.register_backend(ip, &server, bed.server_node);
  siege.start();
  bed.engine.run();
  EXPECT_EQ(siege.completed(), 0u);
  EXPECT_EQ(siege.refused(), 10u);
  EXPECT_TRUE(siege.finished());
}

TEST(Siege, SwitchForwardCostTracedCostsMore) {
  EXPECT_GT(switch_forward_cost(2.6, vm::ExecMode::kUmlTraced),
            switch_forward_cost(2.6, vm::ExecMode::kHostNative));
}

// ---------- Honeypot (attack isolation) ----------

struct HoneypotBed {
  core::Hup::PaperTestbed tb;
  core::Hup& hup;
  vm::VirtualServiceNode* victim_node = nullptr;
  vm::VirtualServiceNode* web_node = nullptr;

  HoneypotBed() : tb(core::Hup::paper_testbed()), hup(*tb.hup) {
    hup.agent().register_asp("asp", "key");
    const auto pot_loc = must(tb.repo->publish(image::honeypot_image()));
    const auto web_loc =
        must(tb.repo->publish(image::web_content_image(4 * 1024 * 1024)));
    create("honeypot", pot_loc);
    create("web-content", web_loc);
    hup.engine().run();
    victim_node = find("honeypot");
    web_node = find("web-content");
  }

  void create(const std::string& name, const image::ImageLocation& loc) {
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = loc;
    request.requirement = {1, {}};
    hup.agent().service_creation(request, [](auto, sim::SimTime) {});
  }

  vm::VirtualServiceNode* find(const std::string& service) {
    const auto* record = hup.master().find_service(service);
    if (!record || record->nodes.empty()) return nullptr;
    return hup.find_daemon(record->nodes[0].host_name)
        ->find_node(record->nodes[0].node_name);
  }
};

TEST(Honeypot, ExploitBindsShellAndCrashesGuest) {
  HoneypotBed bed;
  ASSERT_NE(bed.victim_node, nullptr);
  GhttpdVictim victim(*bed.victim_node);
  must(victim.serve_benign());
  const auto outcome = victim.exploit(bed.hup.engine().now());
  EXPECT_TRUE(outcome.exploited);
  EXPECT_EQ(outcome.shell_port, GhttpdVictim::kShellPort);
  EXPECT_TRUE(outcome.guest_crashed);
  EXPECT_EQ(outcome.victim_state, "crashed");
  EXPECT_EQ(bed.victim_node->uml().processes().count(), 0u);
}

TEST(Honeypot, AttackDoesNotTouchCoHostedService) {
  HoneypotBed bed;
  ASSERT_NE(bed.victim_node, nullptr);
  ASSERT_NE(bed.web_node, nullptr);
  const auto web_procs_before = bed.web_node->uml().processes().count();
  GhttpdVictim victim(*bed.victim_node);
  Attacker attacker(victim);
  EXPECT_EQ(attacker.rampage(5, bed.hup.engine().now()), 5u);
  EXPECT_EQ(attacker.attacks_launched(), 5u);
  // The web content service never noticed.
  EXPECT_TRUE(bed.web_node->running());
  EXPECT_EQ(bed.web_node->uml().processes().count(), web_procs_before);
  EXPECT_TRUE(
      bed.web_node->uml().processes().find_by_command("httpd_19_5").has_value());
}

TEST(Honeypot, RestartRevivesVictim) {
  HoneypotBed bed;
  GhttpdVictim victim(*bed.victim_node);
  victim.exploit(bed.hup.engine().now());
  EXPECT_FALSE(victim.serve_benign().ok());
  must(victim.restart(bed.hup.engine().now()));
  EXPECT_TRUE(victim.serve_benign().ok());
  EXPECT_TRUE(bed.victim_node->uml()
                  .processes()
                  .find_by_command("ghttpd")
                  .has_value());
}

TEST(Honeypot, ExploitOnDeadGuestFails) {
  HoneypotBed bed;
  GhttpdVictim victim(*bed.victim_node);
  victim.exploit(bed.hup.engine().now());
  const auto outcome = victim.exploit(bed.hup.engine().now());
  EXPECT_FALSE(outcome.exploited);
  EXPECT_EQ(victim.times_exploited(), 1u);
}

// ---------- Figure 5 application mix ----------

TEST(Fig5Mix, VanillaLinuxLetsCompDominate) {
  auto sim = make_fig5_scenario(sched::make_timeshare_scheduler());
  const auto result = sim.run(sim::SimTime::seconds(60));
  double total = 0;
  for (const auto& [uid, s] : result.total_cpu_s) total += s;
  // comp has 2 always-runnable threads of 6: it takes well over 1/3.
  EXPECT_GT(result.total_cpu_s.at("svc-comp") / total, 0.40);
}

TEST(Fig5Mix, ProportionalShareHoldsThirds) {
  auto sim = make_fig5_scenario(sched::make_proportional_scheduler());
  const auto result = sim.run(sim::SimTime::seconds(60));
  double total = 0;
  for (const auto& [uid, s] : result.total_cpu_s) total += s;
  for (const char* uid : {"svc-web", "svc-comp", "svc-log"}) {
    EXPECT_NEAR(result.total_cpu_s.at(uid) / total, 1.0 / 3, 0.06) << uid;
  }
}

}  // namespace
}  // namespace soda::workload
