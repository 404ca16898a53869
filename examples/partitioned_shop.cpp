// A partitionable service (the paper's §3.5 extension): an on-line shop
// whose frontend, search, and database components each get their own
// virtual service node — different entry processes, different tailored
// guest OSes, different capacities — behind one service switch that routes
// requests by target prefix.
//
//   ./build/examples/partitioned_shop
#include <cstdio>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "util/log.hpp"

using namespace soda;

int main() {
  util::global_logger().set_level(util::LogLevel::kWarn);
  auto tb = core::Hup::paper_testbed();
  core::Hup& hup = *tb.hup;
  hup.agent().register_asp("shop", "key");
  const auto loc = must(tb.repo->publish(image::online_shop_image()));

  core::ServiceCreationRequest request;
  request.credentials = {"shop", "key"};
  request.service_name = "online-shop";
  request.image_location = loc;
  // A partitioned image declares its component units; n must equal the sum.
  request.requirement = {image::online_shop_image().total_component_units(),
                         host::MachineConfig::table1_example()};
  core::ServiceCreationReply reply;
  hup.agent().service_creation(request, [&](auto result, sim::SimTime now) {
    reply = must(std::move(result));
    std::printf("online-shop up at t=%.2fs\n\n", now.to_seconds());
  });
  hup.engine().run();

  std::printf("component -> node mapping:\n");
  for (const auto& node : reply.nodes) {
    auto* vsn = hup.find_daemon(node.host_name)->find_node(node.node_name);
    std::printf("  %-9s %-14s on %-8s %s:%d  capacity %dM  guest runs '%s'\n",
                node.component.c_str(), node.node_name.c_str(),
                node.host_name.c_str(), node.address.to_string().c_str(),
                node.port, node.capacity_units,
                vsn->uml()
                    .processes()
                    .find_by_command("shop-")
                    .value_or(os::Process{})
                    .command.c_str());
  }

  core::ServiceSwitch* sw = hup.master().find_switch("online-shop");
  std::printf("\nswitch configuration file (component-tagged):\n%s\n",
              sw->config_text().c_str());

  std::printf("request routing by target prefix:\n");
  for (const char* target :
       {"/", "/index.html", "/search?q=mugs", "/cart/add/42", "/cart"}) {
    const auto backend = must(sw->route_target(target));
    std::printf("  %-16s -> %-9s (%s:%d)\n", target, backend.component.c_str(),
                backend.address.to_string().c_str(), backend.port);
    sw->on_request_complete(backend.address, backend.port);
  }

  // Crash the db component: only /cart traffic is refused.
  for (const auto& node : reply.nodes) {
    if (node.component == "db") {
      hup.find_daemon(node.host_name)->find_node(node.node_name)->uml().crash();
    }
  }
  hup.health_monitor().probe_once();
  std::printf("\nafter the db guest crashes (health monitor has probed):\n");
  for (const char* target : {"/", "/search?q=x", "/cart/1"}) {
    const auto backend = sw->route_target(target);
    std::printf("  %-16s -> %s\n", target,
                backend.ok() ? backend.value().component.c_str() : "REFUSED");
  }
  std::printf("\nthe frontend and search components keep serving: component "
              "failure is contained, like\nevery other fault in SODA.\n");
  return 0;
}
