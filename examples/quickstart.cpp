// Quickstart: stand up the paper's two-host HUP, publish a service image,
// call SODA_service_creation as an ASP, watch the service come up, send it
// some requests through the service switch, then tear it down.
//
//   ./build/examples/quickstart
#include <cstdio>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "util/log.hpp"
#include "workload/siege.hpp"
#include "workload/webservice.hpp"

using namespace soda;

int main() {
  util::global_logger().set_level(util::LogLevel::kInfo);

  // 1. The hosting utility platform: seattle + tacoma on a 100 Mbps LAN,
  //    one ASP image repository, one client machine.
  auto testbed = core::Hup::paper_testbed();
  core::Hup& hup = *testbed.hup;

  // 2. The ASP enrolls with the SODA Agent and publishes its image.
  hup.agent().register_asp("bioinfo-institute", "key-123");
  auto location = must(testbed.repo->publish(
      image::web_content_image(/*dataset_bytes=*/48 * 1024 * 1024)));
  std::printf("published image at %s\n", location.url().c_str());

  // 3. SODA_service_creation: 3 machine instances of the Table 1 config.
  core::ServiceCreationRequest request;
  request.credentials = {"bioinfo-institute", "key-123"};
  request.service_name = "web-content";
  request.image_location = location;
  request.requirement = host::ResourceRequirement{3, host::MachineConfig::table1_example()};

  core::ServiceCreationReply reply;
  bool created = false;
  hup.agent().service_creation(
      request, [&](core::ApiResult<core::ServiceCreationReply> result,
                   sim::SimTime now) {
        if (!result.ok()) {
          std::printf("creation failed: %s\n", result.error().to_string().c_str());
          return;
        }
        reply = result.value();
        created = true;
        std::printf("service up at t=%.2fs: switch %s:%d, %zu node(s)\n",
                    now.to_seconds(), reply.switch_address.to_string().c_str(),
                    reply.switch_port, reply.nodes.size());
      });
  hup.engine().run();
  if (!created) return 1;

  for (const auto& node : reply.nodes) {
    std::printf("  node %-14s on %-8s ip %-14s capacity %dM\n",
                node.node_name.c_str(), node.host_name.c_str(),
                node.address.to_string().c_str(), node.capacity_units);
  }
  core::ServiceSwitch* sw = hup.master().find_switch("web-content");
  std::printf("service configuration file:\n%s", sw->config_text().c_str());

  // 4. Send 200 requests through the switch and report response times.
  workload::SiegeConfig cfg;
  cfg.concurrency = 4;
  cfg.max_requests = 200;
  cfg.response_bytes = 16 * 1024;

  // Each backend gets a server instance bound to its node (in-VM pricing).
  std::vector<std::unique_ptr<workload::WebContentServer>> servers;
  const core::ServiceRecord* record = hup.master().find_service("web-content");
  net::NodeId switch_node;
  for (const auto& node : record->nodes) {
    core::SodaDaemon* daemon = hup.find_daemon(node.host_name);
    vm::VirtualServiceNode* vsn = daemon->find_node(node.node_name);
    auto shaper_link = hup.find_shaper(node.host_name)->link_for(vsn->address());
    std::vector<net::LinkId> extra;
    if (shaper_link) extra.push_back(*shaper_link);
    servers.push_back(std::make_unique<workload::WebContentServer>(
        hup.engine(), hup.network(), vsn->net_node(), vm::ExecMode::kUmlTraced,
        daemon->host().spec().cpu_ghz, 2 * vsn->capacity_units(), extra));
    if (node.address == reply.switch_address) switch_node = vsn->net_node();
  }
  workload::SiegeClient siege2(hup.engine(), hup.network(), testbed.client, sw,
                               switch_node, cfg);
  for (std::size_t i = 0; i < record->nodes.size(); ++i) {
    siege2.register_backend(record->nodes[i].address, servers[i].get(),
                            servers[i]->node());
  }
  siege2.start();
  hup.engine().run();

  std::printf("served %llu requests, mean %.2f ms, p95 %.2f ms\n",
              static_cast<unsigned long long>(siege2.completed()),
              siege2.stats().latency_moments().mean() * 1e3,
              siege2.stats().quantile(0.95) * 1e3);
  for (const auto& node : record->nodes) {
    std::printf("  %-14s handled %llu\n", node.node_name.c_str(),
                static_cast<unsigned long long>(siege2.completed_by(node.address)));
  }

  // 5. Billing so far, then SODA_service_teardown.
  std::printf("instance-hours accrued: %.4f\n",
              hup.agent().billing().instance_hours("bioinfo-institute",
                                                   hup.engine().now()));
  auto torn = hup.agent().service_teardown(
      core::ServiceTeardownRequest{{"bioinfo-institute", "key-123"}, "web-content"});
  std::printf("teardown: %s\n", torn.ok() ? "ok" : torn.error().to_string().c_str());
  return torn.ok() ? 0 : 1;
}
