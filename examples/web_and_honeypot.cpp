// The paper's §5 scenario end to end: a web content service and a honeypot
// ("attack emulation") service share the HUP. The honeypot's vulnerable
// ghttpd is exploited and its guest crashes — repeatedly — while the web
// content service keeps serving, demonstrating fault/attack isolation.
//
//   ./build/examples/web_and_honeypot
#include <cstdio>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "util/log.hpp"
#include "workload/honeypot.hpp"
#include "workload/siege.hpp"
#include "workload/webservice.hpp"

using namespace soda;

namespace {

core::ServiceCreationReply create_or_die(core::Hup& hup,
                                         const image::ImageLocation& loc,
                                         const std::string& name, int n) {
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = name;
  request.image_location = loc;
  request.requirement = {n, {}};
  core::ServiceCreationReply out;
  hup.agent().service_creation(
      request, [&](core::ApiResult<core::ServiceCreationReply> reply,
                   sim::SimTime now) {
        out = must(std::move(reply));
        std::printf("[t=%6.2fs] %s is up (%zu node(s))\n", now.to_seconds(),
                    name.c_str(), out.nodes.size());
      });
  hup.engine().run();
  return out;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kWarn);
  auto tb = core::Hup::paper_testbed();
  core::Hup& hup = *tb.hup;
  hup.agent().register_asp("asp", "key");

  const auto web_loc =
      must(tb.repo->publish(image::web_content_image(16 * 1024 * 1024)));
  const auto pot_loc = must(tb.repo->publish(image::honeypot_image()));
  const auto web = create_or_die(hup, web_loc, "web-content", 1);
  const auto pot = create_or_die(hup, pot_loc, "honeypot", 1);

  auto* web_node =
      hup.find_daemon(web.nodes[0].host_name)->find_node("web-content/0");
  auto* pot_node =
      hup.find_daemon(pot.nodes[0].host_name)->find_node("honeypot/0");

  std::printf("\nWelcome to SODA — two guests, two process tables:\n\n");
  std::printf("[web guest ps -ef]\n%s\n[honeypot guest ps -ef]\n%s\n",
              web_node->uml().processes().ps_ef().c_str(),
              pot_node->uml().processes().ps_ef().c_str());

  // Attack the honeypot while sieging the web service.
  workload::GhttpdVictim victim(*pot_node);
  workload::Attacker attacker(victim);
  workload::WebContentServer server(hup.engine(), hup.network(),
                                    web_node->net_node(),
                                    vm::ExecMode::kUmlTraced, 2.6, 2);
  workload::SiegeConfig cfg;
  cfg.concurrency = 4;
  cfg.max_requests = 200;
  cfg.response_bytes = 16 * 1024;
  workload::SiegeClient siege(hup.engine(), hup.network(), tb.client, nullptr,
                              std::nullopt, cfg);
  siege.register_backend(web.nodes[0].address, &server, web_node->net_node());
  siege.start();
  for (int i = 1; i <= 8; ++i) {
    hup.engine().schedule_after(sim::SimTime::milliseconds(30 * i), [&] {
      const auto outcome = attacker.attack_once(hup.engine().now());
      std::printf("[t=%6.2fs] exploit -> shell on :%d, guest %s; restarted\n",
                  hup.engine().now().to_seconds(), outcome.shell_port,
                  outcome.victim_state.c_str());
    });
  }
  hup.engine().run();

  std::printf("\nweb served %llu/%llu requests (mean %.2f ms) while the "
              "honeypot crashed %llu times.\n",
              static_cast<unsigned long long>(siege.completed()),
              static_cast<unsigned long long>(cfg.max_requests),
              siege.stats().latency_moments().mean() * 1e3,
              static_cast<unsigned long long>(victim.times_exploited()));
  std::printf("attack isolation: the exploited root was the guest's root — "
              "the host OS and the web\nservice never noticed.\n");
  return siege.completed() == cfg.max_requests ? 0 : 1;
}
