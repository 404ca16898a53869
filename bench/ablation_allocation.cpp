// Ablation bench for the SODA Master's allocation machinery (design choices
// called out in DESIGN.md §5):
//   * placement policy (first-fit / best-fit / worst-fit) — how <n, M>
//     requests land on the two-host HUP and how many services fit;
//   * the slow-down inflation factor (the paper's conservative 1.5) — its
//     cost in admitted capacity.
#include <cstdio>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace soda;

namespace {

int admitted_until_full(core::MasterConfig config, int n_per_service) {
  auto tb = core::Hup::paper_testbed(config);
  core::Hup& hup = *tb.hup;
  hup.agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::honeypot_image()));
  int admitted = 0;
  for (int i = 0; i < 24; ++i) {
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = "svc" + std::to_string(i);
    request.image_location = loc;
    request.requirement = {n_per_service, {}};
    bool ok = false;
    hup.agent().service_creation(
        request, [&](auto reply, sim::SimTime) { ok = reply.ok(); });
    hup.engine().run();
    if (ok) ++admitted;
  }
  return admitted;
}

std::string layout_for(core::PlacementPolicy policy, int n) {
  core::MasterConfig config;
  config.placement = policy;
  auto tb = core::Hup::paper_testbed(config);
  const auto plan = tb.hup->master().planner().plan_allocation(
      "svc", {n, host::MachineConfig::table1_example()});
  if (!plan.ok()) return "rejected";
  std::string out;
  for (const auto& placement : plan.value()) {
    if (!out.empty()) out += " + ";
    out += placement.daemon->host_name() + ":" + std::to_string(placement.units);
  }
  return out;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kOff);

  std::printf("== Ablation: placement policy (layout of <n, M=Table1> "
              "requests) ==\n\n");
  util::AsciiTable layout({"n", "first-fit", "best-fit", "worst-fit"});
  for (int n : {1, 2, 3, 4, 5}) {
    layout.add_row({std::to_string(n),
                    layout_for(core::PlacementPolicy::kFirstFit, n),
                    layout_for(core::PlacementPolicy::kBestFit, n),
                    layout_for(core::PlacementPolicy::kWorstFit, n)});
  }
  std::printf("%s\n", layout.render().c_str());
  std::printf("best-fit packs the small host (tacoma) first; worst-fit "
              "spreads from the big one (seattle).\n\n");

  std::printf("== Ablation: slow-down inflation factor vs admitted "
              "capacity ==\n\n");
  util::AsciiTable inflation(
      {"factor", "services admitted (<1, M>)", "HUP CPU per unit (MHz)"});
  inflation.set_alignment({util::Align::kRight, util::Align::kRight,
                           util::Align::kRight});
  for (double factor : {1.0, 1.25, 1.5, 2.0, 3.0}) {
    core::MasterConfig config;
    config.slowdown_factor = factor;
    char f_cell[16], cpu_cell[16];
    std::snprintf(f_cell, sizeof f_cell, "%.2f", factor);
    std::snprintf(cpu_cell, sizeof cpu_cell, "%.0f", 512 * factor);
    inflation.add_row({f_cell, std::to_string(admitted_until_full(config, 1)),
                       cpu_cell});
  }
  std::printf("%s\n", inflation.render().c_str());
  std::printf("the paper's conservative 1.5x buys virtualization headroom at "
              "the price of admitted capacity;\nthe sweep quantifies that "
              "trade so the factor can be tuned once the real slow-down is "
              "profiled.\n");
  return 0;
}
