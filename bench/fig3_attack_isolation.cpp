// Reproduces Figure 3 (and the §5 "Attack isolation" experiment): the web
// content service and the honeypot service co-exist on the same HUP host,
// each inside its own virtual service node with its own guest process table.
// The honeypot's ghttpd is constantly attacked and crashed; the web content
// service is not affected.
#include <cstdio>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "util/log.hpp"
#include "workload/honeypot.hpp"
#include "workload/siege.hpp"
#include "workload/webservice.hpp"

using namespace soda;

namespace {

core::ApiResult<core::ServiceCreationReply> create(
    core::Hup& hup, const image::ImageLocation& loc, const std::string& name) {
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = name;
  request.image_location = loc;
  request.requirement = {1, {}};
  core::ApiResult<core::ServiceCreationReply> out =
      core::ApiError{core::ApiErrorCode::kInternal, "never fired"};
  hup.agent().service_creation(
      request, [&](auto reply, sim::SimTime) { out = std::move(reply); });
  hup.engine().run();
  return out;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kOff);
  auto tb = core::Hup::paper_testbed();
  core::Hup& hup = *tb.hup;
  hup.agent().register_asp("asp", "key");
  const auto web_loc =
      must(tb.repo->publish(image::web_content_image(8 * 1024 * 1024)));
  const auto pot_loc = must(tb.repo->publish(image::honeypot_image()));
  const auto web = must(create(hup, web_loc, "web-content"));
  const auto pot = must(create(hup, pot_loc, "honeypot"));

  auto* web_node =
      hup.find_daemon(web.nodes[0].host_name)->find_node("web-content/0");
  auto* pot_node =
      hup.find_daemon(pot.nodes[0].host_name)->find_node("honeypot/0");

  std::printf("== Figure 3: co-existing virtual service nodes ==\n\n");
  std::printf("--- guest 'Web' (%s on %s, ip %s) --- ps -ef:\n%s\n",
              web_node->name().value.c_str(), web_node->host_name().c_str(),
              web_node->address().to_string().c_str(),
              web_node->uml().processes().ps_ef().c_str());
  std::printf("--- guest 'Honeypot' (%s on %s, ip %s) --- ps -ef:\n%s\n",
              pot_node->name().value.c_str(), pot_node->host_name().c_str(),
              pot_node->address().to_string().c_str(),
              pot_node->uml().processes().ps_ef().c_str());

  // The attack loop: exploit ghttpd, crash the guest, restart, repeat —
  // while siege keeps hammering the web content service.
  std::printf("== Attack isolation experiment ==\n");
  workload::GhttpdVictim victim(*pot_node);
  workload::Attacker attacker(victim);

  workload::WebContentServer server(hup.engine(), hup.network(),
                                    web_node->net_node(),
                                    vm::ExecMode::kUmlTraced, 2.6, 2);
  workload::SiegeConfig cfg;
  cfg.concurrency = 4;
  cfg.max_requests = 400;
  cfg.response_bytes = 8 * 1024;
  cfg.think_time = sim::SimTime::milliseconds(5);
  workload::SiegeClient siege(hup.engine(), hup.network(), tb.client, nullptr,
                              std::nullopt, cfg);
  siege.register_backend(web.nodes[0].address, &server, web_node->net_node());
  siege.start();
  // Attack every 50 ms while the siege runs.
  for (int i = 1; i <= 20; ++i) {
    hup.engine().schedule_after(sim::SimTime::milliseconds(50 * i), [&] {
      attacker.attack_once(hup.engine().now());
    });
  }
  hup.engine().run();

  std::printf("attacks launched:            %llu\n",
              static_cast<unsigned long long>(attacker.attacks_launched()));
  std::printf("honeypot guest crashes:      %llu\n",
              static_cast<unsigned long long>(victim.times_exploited()));
  std::printf("web requests served:         %llu / %llu issued\n",
              static_cast<unsigned long long>(siege.completed()),
              static_cast<unsigned long long>(cfg.max_requests));
  std::printf("web mean response time:      %.2f ms\n",
              siege.stats().latency_moments().mean() * 1e3);
  std::printf("web guest state after runs:  %s (processes: %zu)\n",
              vm::vm_state_name(web_node->uml().state()).data(),
              web_node->uml().processes().count());
  std::printf("host OS state:               unaffected — the exploited root "
              "was the guest's root\n");
  const bool isolated = siege.completed() == cfg.max_requests &&
                        web_node->running() &&
                        victim.times_exploited() == attacker.attacks_launched();
  std::printf("\nattack isolation: %s\n", isolated ? "HOLDS" : "VIOLATED");
  return isolated ? 0 : 1;
}
