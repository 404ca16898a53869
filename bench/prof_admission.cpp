// Decomposition of the admission-path allocation count: runs the fig_fleet
// ramp admission under ablations (node count, image size, rootfs
// customization, chunked peer-to-peer distribution instead of whole-image
// downloads) and prints allocs/admission for each, plus a per-call
// breakdown of the rootfs pipeline, so future shaves target the dominant
// term instead of a guess. fig_fleet records the headline number; this tool
// explains it.
//
// A node's rootfs comes from its world's os::RootFsTable: the first node
// of a key builds the tree (customize, payload merge, seal), every later
// one shares it. The breakdown prices the build once and checks that a
// shared lookup allocates nothing; the exit code is 1 when it does.
#include <cstdio>
#include <memory>
#include <string>

#include "alloc_counter.hpp"
#include "core/agent.hpp"
#include "core/hup.hpp"
#include "core/master.hpp"
#include "host/host.hpp"
#include "image/image.hpp"
#include "os/rootfs.hpp"
#include "util/log.hpp"

using namespace soda;

namespace {

host::MachineConfig fleet_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

double measure(int units, std::int64_t image_bytes, bool customize,
               bool chunked = false) {
  util::global_logger().set_level(util::LogLevel::kOff);
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  config.customize_rootfs = customize;
  config.distribution.enabled = chunked;
  config.distribution.p2p = true;
  core::Hup hup(config);
  for (int i = 0; i < 150; ++i) {
    host::HostSpec spec = host::HostSpec::tacoma();
    spec.name = "prof-" + std::to_string(i);
    hup.add_host(spec,
                 net::Ipv4Address(10, static_cast<std::uint8_t>(i / 100),
                                  static_cast<std::uint8_t>(i % 100), 16),
                 16);
  }
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location = must(repo.publish(image::web_content_image(image_bytes)));

  constexpr int kAdmissions = 40;
  // Warm 10 admissions so one-time table growth stays out of the number.
  std::uint64_t before = 0;
  double out = 0;
  for (int s = 0; s < kAdmissions + 10; ++s) {
    if (s == 10) before = bench::allocation_count();
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = "svc-" + std::to_string(s);
    request.image_location = location;
    request.requirement = {units, fleet_unit()};
    hup.agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup.engine().run();
  }
  out = static_cast<double>(bench::allocation_count() - before) / kAdmissions;
  return out;
}

}  // namespace

double sub(const char* label, std::uint64_t before) {
  const double d = static_cast<double>(bench::allocation_count() - before);
  std::printf("  %-28s %8.1f\n", label, d / 16);
  return d;
}

/// Prices the first node of a key (a table miss builds the tree) step by
/// step, then a later node of the key (a hit). Returns the hit's
/// allocations per call.
double rootfs_breakdown() {
  const auto img = std::make_shared<const image::ServiceImage>(
      image::web_content_image(1 << 20));
  const std::shared_ptr<const os::FileSystem> payload(img, &img->payload);
  const os::RootFs& base = os::base_rootfs(img->rootfs_template);
  std::uint64_t b = bench::allocation_count();
  os::RootFs tree;
  for (int i = 0; i < 16; ++i) {
    tree = must(os::customize_rootfs(base, img->required_services));
  }
  sub("customize (template copy)", b);
  b = bench::allocation_count();
  for (int i = 0; i < 16; ++i) {
    os::RootFs merged = tree;
    must(merged.fs.copy_from(*payload, "/", "/"));
  }
  sub("tree copy + payload merge", b);
  b = bench::allocation_count();
  for (int i = 0; i < 16; ++i) must(tree.seal());
  sub("seal (boot inputs)", b);
  b = bench::allocation_count();
  for (int i = 0; i < 16; ++i) {
    os::RootFsTable table;
    must(table.intern(payload, img->rootfs_template, true,
                      img->required_services));
  }
  sub("table miss (whole build)", b);
  os::RootFsTable table;
  must(table.intern(payload, img->rootfs_template, true,
                    img->required_services));
  b = bench::allocation_count();
  for (int i = 0; i < 16; ++i) {
    must(table.intern(payload, img->rootfs_template, true,
                      img->required_services));
  }
  return sub("table hit (shared tree)", b) / 16;
}

int main() {
  std::printf("baseline  (2 nodes, 1MiB, customize): %8.1f\n",
              measure(2, 1 << 20, true));
  std::printf("1 node    (1 node,  1MiB, customize): %8.1f\n",
              measure(1, 1 << 20, true));
  std::printf("small img (2 nodes, 64KiB, customize): %7.1f\n",
              measure(2, 64 << 10, true));
  std::printf("untailored (2 nodes, 1MiB, raw):      %8.1f\n",
              measure(2, 1 << 20, false));
  std::printf("chunked p2p (2 nodes, 4MiB, customize): %5.1f\n",
              measure(2, 4 << 20, true, true));
  std::printf("per-call rootfs breakdown (16 reps):\n");
  const double hit_allocs = rootfs_breakdown();
  std::printf("shared-tree lookup: %.1f allocs/call (gate 0)\n", hit_allocs);
  return hit_allocs == 0 ? 0 : 1;
}
