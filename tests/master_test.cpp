// Unit tests for the SODA Master: admission control, slice allocation with
// slow-down inflation, placement policies, service creation/teardown, and
// resizing — all against the paper's two-host testbed.
#include <gtest/gtest.h>

#include "core/hup.hpp"
#include "core/service.hpp"
#include "image/image.hpp"

namespace soda::core {
namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

struct Testbed {
  Hup::PaperTestbed tb;
  Hup& hup;
  image::ImageLocation web_loc;

  explicit Testbed(MasterConfig config = {})
      : tb(Hup::paper_testbed(config)), hup(*tb.hup) {
    hup.agent().register_asp("asp", "key");
    web_loc = must(tb.repo->publish(image::web_content_image(8 * kMiB)));
  }

  ApiResult<ServiceCreationReply> create(const std::string& name, int n,
                                         host::MachineConfig m = {}) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = web_loc;
    request.requirement = {n, m};
    ApiResult<ServiceCreationReply> out =
        ApiError{ApiErrorCode::kInternal, "callback never fired"};
    hup.master().create_service(request,
                                [&](ApiResult<ServiceCreationReply> reply,
                                    sim::SimTime) { out = std::move(reply); });
    hup.engine().run();
    return out;
  }

  ApiResult<ServiceResizingReply> resize(const std::string& name, int n_new) {
    ApiResult<ServiceResizingReply> out =
        ApiError{ApiErrorCode::kInternal, "callback never fired"};
    hup.master().resize_service(name, n_new,
                                [&](ApiResult<ServiceResizingReply> reply,
                                    sim::SimTime) { out = std::move(reply); });
    hup.engine().run();
    return out;
  }
};

// The machine configuration that reproduces the paper's Figure 2 layout:
// with 1.5x inflation, seattle (2.6 GHz) fits exactly 2 units and tacoma
// (1.8 GHz) exactly 1.
host::MachineConfig fig2_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

// ---------- Inflation & planning ----------

TEST(Master, InflatedUnitScalesCpuAndBandwidthOnly) {
  Testbed t;
  const auto unit = t.hup.master().inflated_unit(host::MachineConfig::table1_example());
  EXPECT_DOUBLE_EQ(unit.cpu_mhz, 512 * 1.5);
  EXPECT_DOUBLE_EQ(unit.bandwidth_mbps, 10 * 1.5);
  EXPECT_EQ(unit.memory_mb, 256);  // not inflated
  EXPECT_EQ(unit.disk_mb, 1024);   // not inflated
}

TEST(Master, PlanMapsNtoFewerNodes) {
  Testbed t;
  // n = 3 of Table 1's M: aggregation onto n' <= n nodes.
  const auto plan = t.hup.master().planner().plan_allocation("svc", {3, {}});
  ASSERT_TRUE(plan.ok());
  int total = 0;
  for (const auto& p : plan.value()) total += p.units;
  EXPECT_EQ(total, 3);
  EXPECT_LE(plan.value().size(), 3u);
}

TEST(Master, PlanFig2UnitSplitsTwoToOne) {
  Testbed t;
  const auto plan =
      must(t.hup.master().planner().plan_allocation("svc", {3, fig2_unit()}));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].daemon->host_name(), "seattle");
  EXPECT_EQ(plan[0].units, 2);
  EXPECT_EQ(plan[1].daemon->host_name(), "tacoma");
  EXPECT_EQ(plan[1].units, 1);
}

TEST(Master, PlanRejectsWhenHupTooSmall) {
  Testbed t;
  const auto plan = t.hup.master().planner().plan_allocation("svc", {50, {}});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code, ApiErrorCode::kInsufficientResources);
}

TEST(Master, PlanRejectsNonPositiveN) {
  Testbed t;
  EXPECT_FALSE(t.hup.master().planner().plan_allocation("svc", {0, {}}).ok());
}

TEST(Master, HigherInflationAdmitsLess) {
  MasterConfig strict;
  strict.slowdown_factor = 3.0;
  Testbed loose;       // 1.5
  Testbed tight(strict);
  host::MachineConfig m;
  m.cpu_mhz = 400;
  // At 1.5x a unit is 600 MHz: seattle fits 4, tacoma 3 -> 4 admitted. At
  // 3x a unit is 1200 MHz: seattle 2 + tacoma 1 -> only 3 fit.
  EXPECT_TRUE(
      loose.hup.master().planner().plan_allocation("svc", {4, m}).ok());
  EXPECT_FALSE(
      tight.hup.master().planner().plan_allocation("svc", {4, m}).ok());
}

TEST(Master, PlacementPolicyOrdersHosts) {
  MasterConfig best;
  best.placement = PlacementPolicy::kBestFit;
  Testbed t(best);
  // Best-fit packs the *least* spare host first: tacoma.
  const auto plan =
      must(t.hup.master().planner().plan_allocation("svc", {1, {}}));
  EXPECT_EQ(plan[0].daemon->host_name(), "tacoma");

  MasterConfig worst;
  worst.placement = PlacementPolicy::kWorstFit;
  Testbed t2(worst);
  const auto plan2 =
      must(t2.hup.master().planner().plan_allocation("svc", {1, {}}));
  EXPECT_EQ(plan2[0].daemon->host_name(), "seattle");
}

// ---------- Creation ----------

TEST(Master, CreateBringsServiceUp) {
  Testbed t;
  const auto reply = t.create("web", 3, fig2_unit());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().nodes.size(), 2u);
  const ServiceRecord* record = t.hup.master().find_service("web");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lifecycle.state(), ServiceState::kRunning);
  EXPECT_NE(t.hup.master().find_switch("web"), nullptr);
  EXPECT_EQ(t.hup.master().service_count(), 1u);
}

TEST(Master, CreateAssignsDisjointIpsFromHostPools) {
  Testbed t;
  const auto reply = must(t.create("web", 3, fig2_unit()));
  ASSERT_EQ(reply.nodes.size(), 2u);
  EXPECT_NE(reply.nodes[0].address, reply.nodes[1].address);
  // seattle's pool starts at .120, tacoma's at .140.
  for (const auto& node : reply.nodes) {
    if (node.host_name == "seattle") {
      EXPECT_GE(node.address.value(), net::Ipv4Address(128, 10, 9, 120).value());
      EXPECT_LT(node.address.value(), net::Ipv4Address(128, 10, 9, 136).value());
    } else {
      EXPECT_GE(node.address.value(), net::Ipv4Address(128, 10, 9, 140).value());
    }
  }
}

TEST(Master, SwitchColocatedInFirstNodeWithTable3Weights) {
  Testbed t;
  const auto reply = must(t.create("web", 3, fig2_unit()));
  EXPECT_EQ(reply.switch_address, reply.nodes[0].address);
  ServiceSwitch* sw = t.hup.master().find_switch("web");
  // Capacity column mirrors units: 2 and 1 (Table 3).
  EXPECT_EQ(sw->backends()[0].entry.capacity, 2);
  EXPECT_EQ(sw->backends()[1].entry.capacity, 1);
}

TEST(Master, CreationReservesInflatedSlices) {
  Testbed t;
  const auto before = t.hup.master().hup_available();
  must(t.create("web", 2));
  const auto after = t.hup.master().hup_available();
  EXPECT_NEAR(before.cpu_mhz - after.cpu_mhz, 2 * 512 * 1.5, 1e-6);
  EXPECT_EQ(before.memory_mb - after.memory_mb, 2 * 256);
}

TEST(Master, DuplicateServiceNameRejected) {
  Testbed t;
  must(t.create("web", 1));
  const auto second = t.create("web", 1);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ApiErrorCode::kServiceExists);
}

TEST(Master, UnknownRepositoryOrImageRejected) {
  Testbed t;
  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "x";
  request.image_location = {"ghost-repo", "/images/x.rpm"};
  request.requirement = {1, {}};
  ApiResult<ServiceCreationReply> out = ApiError{ApiErrorCode::kInternal, ""};
  t.hup.master().create_service(request, [&](auto reply, sim::SimTime) {
    out = std::move(reply);
  });
  t.hup.engine().run();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ApiErrorCode::kImageNotFound);

  request.image_location = {"asp-repo", "/images/ghost.rpm"};
  t.hup.master().create_service(request, [&](auto reply, sim::SimTime) {
    out = std::move(reply);
  });
  t.hup.engine().run();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ApiErrorCode::kImageNotFound);
}

TEST(Master, InsufficientResourcesReportedBeforePriming) {
  Testbed t;
  const auto reply = t.create("huge", 40);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ApiErrorCode::kInsufficientResources);
  EXPECT_EQ(t.hup.master().service_count(), 0u);
}

TEST(Master, EmptyNameRejected) {
  Testbed t;
  const auto reply = t.create("", 1);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ApiErrorCode::kInvalidRequest);
}

TEST(Master, DescribeServiceMatchesReply) {
  Testbed t;
  const auto reply = must(t.create("web", 2));
  const auto described = must(t.hup.master().describe_service("web"));
  EXPECT_EQ(described.nodes.size(), reply.nodes.size());
  EXPECT_EQ(described.switch_address, reply.switch_address);
  EXPECT_FALSE(t.hup.master().describe_service("nope").ok());
}

TEST(Master, NodesAreBootedAndServing) {
  Testbed t;
  const auto reply = must(t.create("web", 3, fig2_unit()));
  for (const auto& node : reply.nodes) {
    SodaDaemon* daemon = t.hup.find_daemon(node.host_name);
    vm::VirtualServiceNode* vsn = daemon->find_node(node.node_name);
    ASSERT_NE(vsn, nullptr);
    EXPECT_TRUE(vsn->running());
    // The application entry process is up under the service uid.
    const auto proc = vsn->uml().processes().find_by_command("httpd_19_5");
    ASSERT_TRUE(proc.has_value());
    EXPECT_EQ(proc->uid, "svc-web");
  }
}

// ---------- Teardown ----------

TEST(Master, TeardownReturnsEverything) {
  Testbed t;
  const auto before = t.hup.master().hup_available();
  const auto seattle_ips = t.hup.find_host("seattle")->ip_pool().in_use();
  must(t.create("web", 3, fig2_unit()));
  must(t.hup.master().teardown_service("web"));
  EXPECT_EQ(t.hup.master().hup_available(), before);
  EXPECT_EQ(t.hup.find_host("seattle")->ip_pool().in_use(), seattle_ips);
  EXPECT_EQ(t.hup.master().service_count(), 0u);
  EXPECT_EQ(t.hup.find_daemon("seattle")->node_count(), 0u);
  EXPECT_FALSE(t.hup.master().teardown_service("web").ok());
}

TEST(Master, TeardownThenRecreateWorks) {
  Testbed t;
  must(t.create("web", 2));
  must(t.hup.master().teardown_service("web"));
  EXPECT_TRUE(t.create("web", 2).ok());
}

// ---------- Resizing ----------

TEST(Master, ResizeGrowInPlace) {
  Testbed t;
  must(t.create("web", 1));
  const auto reply = must(t.resize("web", 2));
  ASSERT_EQ(reply.nodes.size(), 1u);  // grew in place, no new node
  EXPECT_EQ(reply.nodes[0].capacity_units, 2);
  ServiceSwitch* sw = t.hup.master().find_switch("web");
  EXPECT_EQ(sw->backends()[0].entry.capacity, 2);
  EXPECT_EQ(t.hup.master().find_service("web")->requirement.n, 2);
}

TEST(Master, ResizeGrowAddsNodeWhenHostFull) {
  Testbed t;
  must(t.create("web", 2, fig2_unit()));  // fills seattle exactly
  const auto reply = must(t.resize("web", 3));
  ASSERT_EQ(reply.nodes.size(), 2u);  // new node on tacoma
  EXPECT_EQ(t.hup.find_daemon("tacoma")->node_count(), 1u);
  EXPECT_EQ(t.hup.master().find_switch("web")->backends().size(), 2u);
}

TEST(Master, ResizeShrinkReleasesUnits) {
  Testbed t;
  must(t.create("web", 2));
  const auto before = t.hup.master().hup_available();
  must(t.resize("web", 1));
  const auto after = t.hup.master().hup_available();
  EXPECT_NEAR(after.cpu_mhz - before.cpu_mhz, 512 * 1.5, 1e-6);
}

TEST(Master, ResizeShrinkRemovesWholeNodesButKeepsSwitchNode) {
  Testbed t;
  must(t.create("web", 3, fig2_unit()));  // 2 on seattle + 1 on tacoma
  const auto reply = must(t.resize("web", 1));
  ASSERT_EQ(reply.nodes.size(), 1u);
  // The remaining node is the switch's colocation node (ordinal 0).
  EXPECT_EQ(reply.nodes[0].node_name, "web/0");
  EXPECT_EQ(t.hup.find_daemon("tacoma")->node_count(), 0u);
  EXPECT_EQ(t.hup.master().find_switch("web")->backends().size(), 1u);
}

TEST(Master, ResizeToSameSizeIsNoOp) {
  Testbed t;
  must(t.create("web", 2));
  const auto reply = must(t.resize("web", 2));
  EXPECT_EQ(reply.nodes.size(), 1u);
  EXPECT_EQ(reply.nodes[0].capacity_units, 2);
}

TEST(Master, ResizeBeyondHupFails) {
  Testbed t;
  must(t.create("web", 1));
  const auto reply = t.resize("web", 60);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ApiErrorCode::kInsufficientResources);
  // Service still running and intact.
  EXPECT_EQ(t.hup.master().find_service("web")->lifecycle.state(),
            ServiceState::kRunning);
  EXPECT_EQ(t.hup.master().find_service("web")->requirement.n, 1);
}

TEST(Master, ResizeUnknownOrInvalid) {
  Testbed t;
  EXPECT_EQ(t.resize("ghost", 2).error().code, ApiErrorCode::kNoSuchService);
  must(t.create("web", 1));
  EXPECT_EQ(t.resize("web", 0).error().code, ApiErrorCode::kInvalidRequest);
}

TEST(Master, ResizeUpdatesShaperBandwidth) {
  Testbed t;
  must(t.create("web", 1));
  const auto* record = t.hup.master().find_service("web");
  const auto address = record->nodes[0].address;
  const auto host_name = record->nodes[0].host_name;
  EXPECT_NEAR(t.hup.find_shaper(host_name)->limit_mbps(address).value(), 10, 1e-9);
  must(t.resize("web", 2));
  EXPECT_NEAR(t.hup.find_shaper(host_name)->limit_mbps(address).value(), 20, 1e-9);
}

// ---------- Lifecycle guard ----------

TEST(ServiceLifecycle, LegalPathToGone) {
  ServiceLifecycle lc("svc");
  for (ServiceState s : {ServiceState::kAdmitted, ServiceState::kPriming,
                         ServiceState::kRunning, ServiceState::kResizing,
                         ServiceState::kRunning, ServiceState::kTearingDown,
                         ServiceState::kGone}) {
    must(lc.transition(s));
  }
  EXPECT_EQ(lc.state(), ServiceState::kGone);
  EXPECT_FALSE(lc.holds_resources());
}

TEST(ServiceLifecycle, IllegalJumpsRejected) {
  ServiceLifecycle lc("svc");
  EXPECT_FALSE(lc.transition(ServiceState::kRunning).ok());
  EXPECT_FALSE(lc.transition(ServiceState::kGone).ok());
  must(lc.transition(ServiceState::kFailed));
  EXPECT_FALSE(lc.transition(ServiceState::kAdmitted).ok());  // terminal
}

TEST(ServiceLifecycle, HoldsResourcesInMiddleStates) {
  ServiceLifecycle lc("svc");
  EXPECT_FALSE(lc.holds_resources());
  must(lc.transition(ServiceState::kAdmitted));
  EXPECT_TRUE(lc.holds_resources());
}

// ---------- Daemon registration ----------

TEST(Master, OverlappingIpPoolsRejected) {
  Hup hup;
  hup.add_host(host::HostSpec::seattle(), net::Ipv4Address(10, 0, 0, 1), 16);
  // Overlapping range for the second host: registration must fail loudly.
  sim::Engine engine;
  net::FlowNetwork network(engine);
  host::HupHost clone(host::HostSpec::tacoma(), network.add_node("x"),
                      net::IpPool(net::Ipv4Address(10, 0, 0, 8), 16));
  net::TrafficShaper shaper(network);
  SodaDaemon daemon(engine, network, clone, shaper);
  EXPECT_FALSE(hup.master().register_daemon(&daemon).ok());
}

TEST(Master, OverlapRefusalNamesTheEarliestRegisteredHost) {
  Hup hup;
  const auto add = [&hup](const char* name, std::uint8_t at, std::size_t n) {
    host::HostSpec spec = host::HostSpec::tacoma();
    spec.name = name;
    hup.add_host(spec, net::Ipv4Address(10, 0, 0, at), n);
  };
  // Registered out of address order: the later pool sits lower.
  add("high", 32, 16);
  add("low", 0, 16);
  add("apart", 200, 16);
  sim::Engine engine;
  net::FlowNetwork network(engine);
  host::HostSpec spec = host::HostSpec::seattle();
  spec.name = "wide";
  host::HupHost wide(spec, network.add_node("wide"),
                     net::IpPool(net::Ipv4Address(10, 0, 0, 8), 64));
  net::TrafficShaper shaper(network);
  SodaDaemon daemon(engine, network, wide, shaper);
  const Status refused = hup.master().register_daemon(&daemon);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().message, "IP pools of high and wide overlap");
  EXPECT_EQ(hup.master().daemons().size(), 3u);
  EXPECT_EQ(hup.master().daemon_for("wide"), nullptr);

  const SodaMaster& master = hup.master();
  const auto owner = [&master](std::uint8_t at, std::size_t n) {
    const SodaDaemon* daemon =
        master.pool_overlap(net::Ipv4Address(10, 0, 0, at), n);
    return daemon == nullptr ? std::string("none") : daemon->host_name();
  };
  EXPECT_EQ(owner(16, 16), "none");   // touches low and high, overlaps neither
  EXPECT_EQ(owner(48, 152), "none");  // the gap between high and apart
  EXPECT_EQ(owner(15, 2), "low");
  EXPECT_EQ(owner(47, 1), "high");
  EXPECT_EQ(owner(0, 255), "high");  // all three: the earliest registered
  EXPECT_EQ(owner(199, 2), "apart");
}

}  // namespace
}  // namespace soda::core
