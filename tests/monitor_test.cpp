// Unit tests for the monitoring subsystem: status reports, the health
// monitor's switch synchronization, and the Agent's monitoring API.
#include <gtest/gtest.h>

#include "core/hup.hpp"
#include "core/monitor.hpp"
#include "image/image.hpp"
#include "workload/honeypot.hpp"

namespace soda::core {
namespace {

struct MonitorBed {
  Hup::PaperTestbed tb;
  Hup& hup;
  ServiceCreationReply web;
  ServiceCreationReply pot;

  MonitorBed() : tb(Hup::paper_testbed()), hup(*tb.hup) {
    hup.agent().register_asp("asp", "key");
    hup.agent().register_asp("stranger", "skey");
    web = create(must(tb.repo->publish(image::web_content_image(4 * 1024 * 1024))),
                 "web-content");
    pot = create(must(tb.repo->publish(image::honeypot_image())), "honeypot");
  }

  ServiceCreationReply create(const image::ImageLocation& loc,
                              const std::string& name) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = loc;
    request.requirement = {1, {}};
    ServiceCreationReply out;
    hup.agent().service_creation(request, [&](auto reply, sim::SimTime) {
      out = must(std::move(reply));
    });
    hup.engine().run();
    return out;
  }

  vm::VirtualServiceNode* node_of(const ServiceCreationReply& reply) {
    return hup.find_daemon(reply.nodes[0].host_name)
        ->find_node(reply.nodes[0].node_name);
  }
};

TEST(StatusReport, ReflectsRunningService) {
  MonitorBed bed;
  const auto report = must(collect_service_status(bed.hup.master(), "web-content"));
  EXPECT_EQ(report.service_name, "web-content");
  EXPECT_EQ(report.state, ServiceState::kRunning);
  ASSERT_EQ(report.nodes.size(), 1u);
  const NodeStatus& node = report.nodes[0];
  EXPECT_EQ(node.vm_state, vm::VmState::kRunning);
  EXPECT_GE(node.process_count, 6u);
  EXPECT_GT(node.memory_used_mb, 0);
  EXPECT_EQ(node.memory_cap_mb, 256);
  EXPECT_TRUE(node.healthy_in_switch);
  EXPECT_EQ(node.capacity_units, 1);
}

TEST(StatusReport, UnknownServiceIsError) {
  MonitorBed bed;
  EXPECT_FALSE(collect_service_status(bed.hup.master(), "ghost").ok());
}

TEST(StatusReport, ShowsCrashedGuest) {
  MonitorBed bed;
  bed.node_of(bed.pot)->uml().crash();
  const auto report = must(collect_service_status(bed.hup.master(), "honeypot"));
  EXPECT_EQ(report.nodes[0].vm_state, vm::VmState::kCrashed);
  EXPECT_EQ(report.nodes[0].process_count, 0u);
}

TEST(HealthMonitor, MarksCrashedGuestUnhealthy) {
  MonitorBed bed;
  HealthMonitor& monitor = bed.hup.health_monitor();
  EXPECT_EQ(monitor.probe_once(), 0u);  // everything healthy
  bed.node_of(bed.pot)->uml().crash();
  EXPECT_EQ(monitor.probe_once(), 1u);
  ServiceSwitch* sw = bed.hup.master().find_switch("honeypot");
  EXPECT_FALSE(sw->route().ok());  // no healthy backend left
  EXPECT_EQ(monitor.transitions_to_unhealthy(), 1u);
  // The web service's switch is untouched.
  EXPECT_TRUE(bed.hup.master().find_switch("web-content")->route().ok());
}

TEST(HealthMonitor, MarksRecoveredGuestHealthyAgain) {
  MonitorBed bed;
  HealthMonitor& monitor = bed.hup.health_monitor();
  auto* node = bed.node_of(bed.pot);
  node->uml().crash();
  monitor.probe_once();
  // Recovery (the honeypot's reset path).
  workload::GhttpdVictim victim(*node);
  must(victim.restart(bed.hup.engine().now()));
  EXPECT_EQ(monitor.probe_once(), 1u);
  EXPECT_EQ(monitor.transitions_to_healthy(), 1u);
  EXPECT_TRUE(bed.hup.master().find_switch("honeypot")->route().ok());
}

TEST(HealthMonitor, PeriodicLoopProbesOverTime) {
  MonitorBed bed;
  HealthMonitor& monitor = bed.hup.health_monitor();
  monitor.start();
  monitor.start();  // idempotent
  bed.node_of(bed.pot)->uml().crash();
  bed.hup.engine().run_until(bed.hup.engine().now() + sim::SimTime::seconds(3));
  EXPECT_GE(monitor.probes(), 5u);
  EXPECT_EQ(monitor.transitions_to_unhealthy(), 1u);
  EXPECT_FALSE(bed.hup.master().find_switch("honeypot")->route().ok());
  monitor.stop();
  EXPECT_FALSE(monitor.running());
}

TEST(HealthMonitor, TornDownServiceIsSkippedSilently) {
  MonitorBed bed;
  HealthMonitor& monitor = bed.hup.health_monitor();
  must(bed.hup.agent().service_teardown(
      ServiceTeardownRequest{{"asp", "key"}, "honeypot"}));
  EXPECT_EQ(monitor.probe_once(), 0u);
}

TEST(AgentStatus, RequiresOwnership) {
  MonitorBed bed;
  const auto own = bed.hup.agent().service_status({"asp", "key"}, "web-content");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own.value().nodes.size(), 1u);

  const auto stranger =
      bed.hup.agent().service_status({"stranger", "skey"}, "web-content");
  ASSERT_FALSE(stranger.ok());
  EXPECT_EQ(stranger.error().code, ApiErrorCode::kAuthenticationFailed);

  const auto bad_key = bed.hup.agent().service_status({"asp", "nope"}, "web-content");
  ASSERT_FALSE(bad_key.ok());

  const auto missing = bed.hup.agent().service_status({"asp", "key"}, "ghost");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ApiErrorCode::kNoSuchService);
}

TEST(AgentStatus, CountsRoutedRequests) {
  MonitorBed bed;
  ServiceSwitch* sw = bed.hup.master().find_switch("web-content");
  for (int i = 0; i < 7; ++i) {
    const auto backend = must(sw->route());
    sw->on_request_complete(backend.address, backend.port);
  }
  const auto report = must(bed.hup.agent().service_status({"asp", "key"},
                                                          "web-content"));
  EXPECT_EQ(report.requests_routed, 7u);
  EXPECT_EQ(report.nodes[0].requests_routed, 7u);
}

}  // namespace
}  // namespace soda::core
