// Off-line QoS/resource profiling (the step the paper assumes has already
// happened before an ASP calls SODA): describe the workload, let the
// profiler derive <n, M>, then create the service with exactly that
// requirement and verify it carries the declared load.
//
//   ./build/examples/capacity_planning
#include <cstdio>

#include "core/hup.hpp"
#include "core/profiler.hpp"
#include "image/image.hpp"
#include "util/log.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"
#include "workload/webservice.hpp"

using namespace soda;

int main() {
  util::global_logger().set_level(util::LogLevel::kWarn);

  // 1. The ASP describes its expected workload.
  core::WorkloadProfile workload;
  workload.peak_request_rate = 250;          // req/s at peak
  workload.response_bytes = 12 * 1024;       // mean page size
  workload.target_utilization = 0.6;         // headroom for burstiness
  workload.dataset_mb = 512;
  workload.resident_memory_mb = 64;

  // 2. The profiler derives <n, M>, pricing CPU on the traced (in-VM) path.
  const auto report = must(core::profile_requirement(workload));
  std::printf("profiled requirement: %s\n",
              report.requirement.to_string().c_str());
  std::printf("  aggregate demand:  %.0f MHz CPU, %.1f Mbps outbound\n",
              report.cpu_mhz_needed, report.bandwidth_mbps_needed);
  std::printf("  binding resource:  %s\n\n",
              std::string(core::binding_resource_name(report.binding)).c_str());

  // 3. Create the service with the derived requirement.
  auto tb = core::Hup::paper_testbed();
  core::Hup& hup = *tb.hup;
  hup.agent().register_asp("asp", "key");
  const auto loc =
      must(tb.repo->publish(image::web_content_image(8 * 1024 * 1024)));
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "planned";
  request.image_location = loc;
  request.requirement = report.requirement;
  core::ServiceCreationReply reply;
  hup.agent().service_creation(request, [&](auto result, sim::SimTime now) {
    reply = must(std::move(result));
    std::printf("service up at t=%.2fs with %zu node(s)\n", now.to_seconds(),
                reply.nodes.size());
  });
  hup.engine().run();

  // 4. Drive it open-loop at the declared peak rate for 8 s and check the
  //    response times, measured from each request's scheduled arrival.
  std::vector<std::unique_ptr<workload::WebContentServer>> servers;
  core::ServiceSwitch* sw = hup.master().find_switch("planned");
  net::NodeId switch_node{};
  workload::SiegeConfig cfg;
  cfg.response_bytes = workload.response_bytes;
  cfg.record_samples = false;  // the traffic stream measures every outcome
  for (const auto& node : reply.nodes) {
    auto* daemon = hup.find_daemon(node.host_name);
    auto* vsn = daemon->find_node(node.node_name);
    std::vector<net::LinkId> outbound;
    if (auto link = hup.find_shaper(node.host_name)->link_for(vsn->address())) {
      outbound.push_back(*link);
    }
    servers.push_back(std::make_unique<workload::WebContentServer>(
        hup.engine(), hup.network(), vsn->net_node(), vm::ExecMode::kUmlTraced,
        daemon->host().spec().cpu_ghz, 4 * node.capacity_units,
        std::move(outbound)));
    if (node.address == sw->listen_address()) switch_node = vsn->net_node();
  }
  workload::SiegeClient siege2(hup.engine(), hup.network(), tb.client, sw,
                               switch_node, cfg);
  for (std::size_t i = 0; i < reply.nodes.size(); ++i) {
    siege2.register_backend(reply.nodes[i].address, servers[i].get(),
                            servers[i]->node());
  }
  workload::TrafficEngine traffic(hup.engine());
  traffic.add_stream("peak", siege2,
                     workload::TrafficTrace().constant(
                         workload.peak_request_rate, 8.0));
  traffic.start();
  hup.engine().run();

  const sim::StreamingStats& stats = traffic.stats("peak");
  std::printf("\nat the declared peak of %.0f req/s:\n",
              workload.peak_request_rate);
  std::printf("  served:    %llu/%llu\n",
              static_cast<unsigned long long>(stats.completed()),
              static_cast<unsigned long long>(traffic.scheduled("peak")));
  std::printf("  mean RT:   %.2f ms   p95: %.2f ms   p99: %.2f ms\n",
              stats.latency_moments().mean() * 1e3, stats.quantile(0.95) * 1e3,
              stats.p99() * 1e3);
  std::printf("\nthe profiled <n, M> carries the declared peak with stable "
              "response times — capacity\nplanning done before the first "
              "SODA_service_creation call, as the paper envisions.\n");
  return traffic.finished() && stats.errors() == 0 ? 0 : 1;
}
