// Replacing the default request switching policy with a service-specific
// one (paper §3.4): the ASP of a session-heavy service installs a
// "sticky-by-client-hash" policy in its own switch. Thanks to service
// isolation, even an ill-behaved custom policy only ever hurts its own
// service — demonstrated by also installing a broken policy and watching
// requests get refused without touching anything else.
//
//   ./build/examples/custom_switch_policy
#include <cstdio>

#include "core/hup.hpp"
#include "core/switch.hpp"
#include "image/image.hpp"
#include "util/log.hpp"

using namespace soda;

namespace {

host::MachineConfig fig2_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kWarn);
  auto tb = core::Hup::paper_testbed();
  core::Hup& hup = *tb.hup;
  hup.agent().register_asp("shop", "key");
  const auto loc =
      must(tb.repo->publish(image::web_content_image(8 * 1024 * 1024)));

  core::ServiceCreationRequest request;
  request.credentials = {"shop", "key"};
  request.service_name = "online-shop";
  request.image_location = loc;
  request.requirement = {3, fig2_unit()};
  hup.agent().service_creation(request,
                               [](core::ApiResult<core::ServiceCreationReply> r,
                                  sim::SimTime) { must(std::move(r)); });
  hup.engine().run();

  core::ServiceSwitch* sw = hup.master().find_switch("online-shop");
  std::printf("default policy: %s\n", sw->policy().name().c_str());

  // --- The ASP's own policy: stick each client to a backend by hash. ---
  // (Here the "client id" is a rotating counter standing in for a cookie.)
  auto session_counter = std::make_shared<std::uint64_t>(0);
  sw->set_policy(core::make_custom_policy(
      "sticky-session",
      [session_counter](const std::vector<core::BackEndState>& backends)
          -> std::optional<std::size_t> {
        if (backends.empty()) return std::nullopt;
        const std::uint64_t client = (*session_counter)++ % 7;  // 7 clients
        return static_cast<std::size_t>(client % backends.size());
      }));
  std::printf("ASP replaced it with: %s\n", sw->policy().name().c_str());

  for (int i = 0; i < 700; ++i) {
    const auto backend = must(sw->route());
    sw->on_request_complete(backend.address, backend.port);
  }
  std::printf("\nper-backend mix under sticky-session (700 requests, 7 "
              "clients):\n");
  for (const auto& backend : sw->backends()) {
    std::printf("  %-14s capacity %d -> %llu requests\n",
                backend.entry.address.to_string().c_str(),
                backend.entry.capacity,
                static_cast<unsigned long long>(backend.requests_routed));
  }

  // --- An ill-behaved replacement: refuses everything. ---
  sw->set_policy(core::make_custom_policy(
      "broken", [](const std::vector<core::BackEndState>&) {
        return std::optional<std::size_t>{};
      }));
  int refused = 0;
  for (int i = 0; i < 10; ++i) {
    if (!sw->route().ok()) ++refused;
  }
  std::printf("\nbroken policy refused %d/10 requests — but only for "
              "'online-shop'. Other HUP services\nkeep their own switches "
              "and policies (isolation).\n", refused);

  // Back to the default.
  sw->set_policy(core::make_weighted_round_robin());
  std::printf("restored default: %s\n", sw->policy().name().c_str());
  return 0;
}
