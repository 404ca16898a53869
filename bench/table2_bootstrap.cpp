// Reproduces Table 2: service bootstrapping time for four application
// services (S_I..S_IV) on the two HUP hosts. Each row boots the service's
// guest rootfs through the same pipeline the SODA Daemon uses: template,
// dependency-closure tailoring (except S_IV, which needs the full-blown
// rh-7.2 server), application-image merge, then the boot model (mount +
// kernel + system services + app start) on each host's hardware.
//
// Paper reference values: S_I 29.3MB 3.0/4.0 s, S_II 15MB 2.0/3.0 s,
// S_III 400MB 4.0/16.0 s, S_IV 253MB 22.0/42.0 s (seattle/tacoma).
//
// The final column is the ablation called out in DESIGN.md: boot time on
// seattle *without* rootfs customization.
#include <cstdio>

#include "image/image.hpp"
#include "os/rootfs.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "vm/uml.hpp"

using namespace soda;

namespace {

struct Case {
  const char* label;
  image::ServiceImage image;
  bool customize;
};

/// The SODA Daemon's rootfs pipeline, minus downloading.
os::RootFs prepare_rootfs(const image::ServiceImage& image, bool customize) {
  os::RootFs rootfs = os::build_rootfs(image.rootfs_template);
  if (customize) {
    rootfs = must(os::customize_rootfs(rootfs, image.required_services));
  }
  must(rootfs.fs.copy_from(image.payload, "/", "/"));
  return rootfs;
}

sim::SimTime bootstrap_time(const image::ServiceImage& image, bool customize,
                            const host::HostSpec& host) {
  vm::UserModeLinux uml(
      must(os::share_rootfs(prepare_rootfs(image, customize))), 256);
  const auto plan = uml.plan_boot(host);
  const auto app = sim::SimTime::seconds(image.app_start_ghz_s / host.cpu_ghz);
  return plan.total() + app;
}

}  // namespace

int main() {
  const auto seattle = host::HostSpec::seattle();
  const auto tacoma = host::HostSpec::tacoma();

  Case cases[] = {
      // S_I: web content on the tailored base rootfs.
      {"S_I", image::web_content_image(2 * 1024 * 1024), true},
      // S_II: the honeypot on the tiny tomsrtbt system.
      {"S_II", image::honeypot_image(), true},
      // S_III: bulk genome-matching service on Linux From Scratch.
      {"S_III", image::genome_matching_image(), true},
      // S_IV: full-blown rh-7.2 server, pristine (no tailoring).
      {"S_IV", image::full_server_image(), false},
  };

  std::printf("== Table 2: service bootstrapping time ==\n");
  std::printf("paper: S_I 3.0/4.0s  S_II 2.0/3.0s  S_III 4.0/16.0s  "
              "S_IV 22.0/42.0s (seattle/tacoma)\n\n");

  util::AsciiTable table({"App. service", "Linux configuration", "Image size",
                          "Time (seattle)", "Time (tacoma)",
                          "seattle, no tailoring"});
  table.set_alignment({util::Align::kLeft, util::Align::kLeft,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});

  for (const auto& c : cases) {
    const os::RootFs rootfs = prepare_rootfs(c.image, c.customize);
    table.add_row(
        {c.label, os::rootfs_template_name(c.image.rootfs_template),
         util::format_bytes(rootfs.image_bytes()),
         util::format_seconds(bootstrap_time(c.image, c.customize, seattle)
                                  .to_seconds()),
         util::format_seconds(bootstrap_time(c.image, c.customize, tacoma)
                                  .to_seconds()),
         util::format_seconds(
             bootstrap_time(c.image, false, seattle).to_seconds())});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("shape checks: boot time tracks the number/type of services "
              "(S_IV slowest despite a smaller\nimage than S_III); tacoma is "
              "slower everywhere; S_III pays the disk mount on tacoma because "
              "\nits 400 MB image no longer fits the RAM disk.\n");
  return 0;
}
