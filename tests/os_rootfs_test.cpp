// Unit tests for the rootfs templates and the SODA Daemon's customization
// (dependency-closure pruning) — the mechanism behind Table 2 — and for the
// per-world table that shares one immutable tree among the nodes of a key.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "os/rootfs.hpp"
#include "snapshot/format.hpp"

namespace soda::os {
namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

TEST(RootFs, TemplateNamesMatchPaper) {
  EXPECT_EQ(rootfs_template_name(RootFsTemplate::kBase10), "rootfs_base_1.0");
  EXPECT_EQ(rootfs_template_name(RootFsTemplate::kTomsrtbt),
            "root_fs_tomrtbt_1.7.205");
  EXPECT_EQ(rootfs_template_name(RootFsTemplate::kLfs40), "root_fs_lfs_4.0");
  EXPECT_EQ(rootfs_template_name(RootFsTemplate::kRh72Server),
            "root_fs.rh-7.2-server.pristine.20021012");
}

TEST(RootFs, SizeClassesMatchTable2) {
  // Paper sizes: 29.3 MB / 15 MB / 400 MB / 253 MB. The model must land in
  // the same size class (within ~35%) and preserve the ordering.
  const auto base = build_rootfs(RootFsTemplate::kBase10);
  const auto tom = build_rootfs(RootFsTemplate::kTomsrtbt);
  const auto lfs = build_rootfs(RootFsTemplate::kLfs40);
  const auto rh = build_rootfs(RootFsTemplate::kRh72Server);
  EXPECT_NEAR(static_cast<double>(base.image_bytes()), 29.3 * kMiB, 10.0 * kMiB);
  EXPECT_NEAR(static_cast<double>(tom.image_bytes()), 15.0 * kMiB, 6.0 * kMiB);
  EXPECT_NEAR(static_cast<double>(lfs.image_bytes()), 400.0 * kMiB, 40.0 * kMiB);
  EXPECT_NEAR(static_cast<double>(rh.image_bytes()), 253.0 * kMiB, 40.0 * kMiB);
  EXPECT_LT(tom.image_bytes(), base.image_bytes());
  EXPECT_LT(base.image_bytes(), rh.image_bytes());
  EXPECT_LT(rh.image_bytes(), lfs.image_bytes());
}

TEST(RootFs, ServiceCountsFollowTemplates) {
  EXPECT_EQ(build_rootfs(RootFsTemplate::kTomsrtbt).enabled_services.size(), 3u);
  EXPECT_EQ(build_rootfs(RootFsTemplate::kBase10).enabled_services.size(), 5u);
  EXPECT_GE(build_rootfs(RootFsTemplate::kRh72Server).enabled_services.size(), 28u);
}

TEST(RootFs, TemplatesHaveInitEntriesAndBanner) {
  const auto rootfs = build_rootfs(RootFsTemplate::kBase10);
  EXPECT_TRUE(rootfs.fs.exists("/etc/init.d/httpd"));
  EXPECT_TRUE(rootfs.fs.exists("/etc/init.d/network"));
  EXPECT_TRUE(rootfs.fs.exists("/etc/issue"));
  EXPECT_TRUE(rootfs.fs.exists("/boot/vmlinuz-2.4.19"));
}

TEST(RootFs, PackagesInstalledForServices) {
  const auto rootfs = build_rootfs(RootFsTemplate::kBase10);
  // httpd needs apache; apache's files must be present.
  EXPECT_TRUE(rootfs.fs.exists("/usr/sbin/httpd"));
  EXPECT_NE(std::find(rootfs.installed_packages.begin(),
                      rootfs.installed_packages.end(), "apache"),
            rootfs.installed_packages.end());
  // Core runtime always present.
  EXPECT_TRUE(rootfs.fs.exists("/lib/libc-2.2.4.so"));
}

TEST(Customize, PrunesUnneededServicesAndPackages) {
  const auto full = build_rootfs(RootFsTemplate::kRh72Server);
  const auto web = must(customize_rootfs(full, {"httpd", "syslog"}));
  // Fewer services to start, smaller image.
  EXPECT_LT(web.enabled_services.size(), full.enabled_services.size());
  EXPECT_LT(web.image_bytes(), full.image_bytes());
  // sendmail's init entry and its package files are gone.
  EXPECT_FALSE(web.fs.exists("/etc/init.d/sendmail"));
  EXPECT_FALSE(web.fs.exists("/usr/sbin/sendmail"));
  // httpd and its dependency chain survive.
  EXPECT_TRUE(web.fs.exists("/etc/init.d/httpd"));
  EXPECT_TRUE(web.fs.exists("/usr/sbin/httpd"));
  EXPECT_TRUE(web.fs.exists("/etc/init.d/network"));
}

TEST(Customize, KeepsCoreRuntime) {
  const auto full = build_rootfs(RootFsTemplate::kRh72Server);
  const auto minimal = must(customize_rootfs(full, {"syslog"}));
  EXPECT_TRUE(minimal.fs.exists("/lib/libc-2.2.4.so"));
  EXPECT_TRUE(minimal.fs.exists("/bin/bash"));
}

TEST(Customize, StartCostDropsWithPruning) {
  const auto& catalog = standard_service_catalog();
  const auto full = build_rootfs(RootFsTemplate::kRh72Server);
  const auto web = must(customize_rootfs(full, {"httpd", "syslog"}));
  EXPECT_LT(must(catalog.start_cost(web.enabled_services)),
            must(catalog.start_cost(full.enabled_services)) / 3);
}

TEST(Customize, ServiceMissingFromTemplateFails) {
  const auto tom = build_rootfs(RootFsTemplate::kTomsrtbt);
  // tomsrtbt never shipped sendmail.
  EXPECT_FALSE(customize_rootfs(tom, {"sendmail"}).ok());
}

TEST(Customize, UnknownServiceFails) {
  const auto base = build_rootfs(RootFsTemplate::kBase10);
  EXPECT_FALSE(customize_rootfs(base, {"no-such-daemon"}).ok());
}

TEST(Customize, DependencyOfEnabledRootIsRetainable) {
  const auto base = build_rootfs(RootFsTemplate::kBase10);
  // network is a dependency in the closure, usable as an explicit root.
  const auto net_only = must(customize_rootfs(base, {"network"}));
  EXPECT_TRUE(net_only.fs.exists("/etc/init.d/network"));
  EXPECT_FALSE(net_only.fs.exists("/etc/init.d/httpd"));
}

TEST(RamDisk, RuleMatchesPaperHosts) {
  // seattle (2 GB) can RAM-disk all four images with a 256 MB guest;
  // tacoma (768 MB) cannot RAM-disk the 400 MB lfs or the 253 MB rh-7.2.
  const std::int64_t guest = 256;
  EXPECT_TRUE(fits_ram_disk(29 * kMiB, 2048, guest));
  EXPECT_TRUE(fits_ram_disk(400 * kMiB, 2048, guest));
  EXPECT_TRUE(fits_ram_disk(253 * kMiB, 2048, guest));
  EXPECT_TRUE(fits_ram_disk(29 * kMiB, 768, guest));
  EXPECT_FALSE(fits_ram_disk(400 * kMiB, 768, guest));
  EXPECT_FALSE(fits_ram_disk(253 * kMiB, 768, guest));
}

TEST(RamDisk, DegenerateInputs) {
  EXPECT_FALSE(fits_ram_disk(1, 256, 256));   // no memory left
  EXPECT_FALSE(fits_ram_disk(1, 100, 200));   // guest bigger than host
  EXPECT_TRUE(fits_ram_disk(0, 512, 256));
}

// ---------- Shared trees ----------

/// `image`'s payload as the table keys it: an aliasing pointer that holds
/// the whole image.
std::shared_ptr<const FileSystem> payload_of(
    const std::shared_ptr<const image::ServiceImage>& image) {
  return {image, &image->payload};
}

/// The tree a node used to build for itself before trees were shared: the
/// template, tailored when `customize`, with the payload merged into it.
Result<RootFs> built_the_old_way(const image::ServiceImage& image,
                                 bool customize,
                                 const std::vector<std::string>& services) {
  RootFs tree = build_rootfs(image.rootfs_template);
  if (customize) {
    auto customized = customize_rootfs(tree, services);
    if (!customized.ok()) {
      return Error{"rootfs customization failed: " +
                   customized.error().message};
    }
    tree = std::move(customized).value();
  }
  if (auto merged = tree.fs.copy_from(image.payload, "/", "/"); !merged.ok()) {
    return Error{"image merge failed: " + merged.error().message};
  }
  return tree;
}

std::string saved_bytes(const RootFs& tree) {
  snapshot::Writer writer;
  writer.walk(tree);
  return writer.finish();
}

TEST(RootFsTable, EveryTreeSavesTheBytesOfATreeBuiltTheOldWay) {
  const std::vector<image::ServiceImage> images = {
      image::web_content_image(2 * kMiB), image::honeypot_image(),
      image::genome_matching_image(),     image::full_server_image(),
      image::comp_image(),                image::log_image(),
      image::online_shop_image()};
  RootFsTable table;
  int built = 0;
  for (const image::ServiceImage& source : images) {
    const auto image = std::make_shared<const image::ServiceImage>(source);
    // A replicated image's nodes keep its services, a partitioned one's
    // each keep their component's.
    std::vector<std::vector<std::string>> keys = {image->required_services};
    for (const auto& component : image->components) {
      keys.push_back(component.required_services);
    }
    for (const auto& services : keys) {
      for (const bool customize : {true, false}) {
        SCOPED_TRACE(image->name + (customize ? " tailored" : " untailored"));
        const auto shared = table.intern(payload_of(image),
                                         image->rootfs_template, customize,
                                         services);
        const auto expected = built_the_old_way(*image, customize, services);
        ASSERT_EQ(shared.ok(), expected.ok());
        if (!expected.ok()) {
          EXPECT_EQ(shared.error().message, expected.error().message);
          continue;
        }
        ++built;
        EXPECT_EQ(saved_bytes(*shared.value()), saved_bytes(expected.value()));
        // The boot inputs are the ones the catalog and the tree give.
        const RootFs& tree = *shared.value();
        const ServiceCatalog& catalog = standard_service_catalog();
        EXPECT_EQ(tree.boot.start_order,
                  must(catalog.start_order(tree.enabled_services)));
        EXPECT_EQ(tree.boot.start_cost_ghz_s,
                  must(catalog.start_cost(tree.enabled_services)));
        EXPECT_EQ(tree.boot.image_bytes, tree.fs.total_size());
      }
    }
  }
  EXPECT_GT(built, 0);
}

TEST(RootFsTable, OneTreePerKey) {
  const auto image = std::make_shared<const image::ServiceImage>(
      image::web_content_image(2 * kMiB));
  const auto t = image->rootfs_template;
  RootFsTable table;
  const auto web = must(table.intern(payload_of(image), t, true, {"httpd"}));
  // The same key is a lookup: the very same tree.
  EXPECT_EQ(must(table.intern(payload_of(image), t, true, {"httpd"})), web);
  // Other services, or no tailoring, are other trees.
  const auto net =
      must(table.intern(payload_of(image), t, true, {"network"}));
  const auto untailored =
      must(table.intern(payload_of(image), t, false, {"httpd"}));
  EXPECT_NE(net, web);
  EXPECT_NE(untailored, web);
  EXPECT_NE(untailored, net);
  EXPECT_EQ(untailored->enabled_services, base_rootfs(t).enabled_services);
  // An untailored tree does not depend on the services.
  EXPECT_EQ(must(table.intern(payload_of(image), t, false, {"network"})),
            untailored);
  // Another image with an equal payload is another key.
  const auto twin = std::make_shared<const image::ServiceImage>(*image);
  EXPECT_NE(must(table.intern(payload_of(twin), t, true, {"httpd"})), web);
  EXPECT_EQ(table.size(), 4u);
}

TEST(RootFsTable, FailedBuildIsNotKept) {
  const auto image =
      std::make_shared<const image::ServiceImage>(image::honeypot_image());
  RootFsTable table;
  // tomsrtbt never shipped sendmail.
  const auto missing = table.intern(payload_of(image), image->rootfs_template,
                                    true, {"sendmail"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().message.rfind("rootfs customization failed: ", 0),
            0u)
      << missing.error().message;
  EXPECT_EQ(table.size(), 0u);
  // The failure left nothing behind: the next buildable key is the first.
  EXPECT_TRUE(table.intern(payload_of(image), image->rootfs_template, true,
                           {"syslog"})
                  .ok());
  EXPECT_EQ(table.size(), 1u);
}

TEST(RootFsTable, SealComputesTheBootInputsOnce) {
  RootFs tree = build_rootfs(RootFsTemplate::kRh72Server);
  EXPECT_TRUE(tree.boot.start_order.empty());  // not sealed yet
  must(tree.seal());
  const ServiceCatalog& catalog = standard_service_catalog();
  EXPECT_EQ(tree.boot.start_order,
            must(catalog.start_order(tree.enabled_services)));
  EXPECT_EQ(tree.boot.start_cost_ghz_s,
            must(catalog.start_cost(tree.enabled_services)));
  EXPECT_EQ(tree.boot.image_bytes, tree.image_bytes());
  tree.enabled_services.push_back("no-such-daemon");
  EXPECT_FALSE(tree.seal().ok());
  EXPECT_FALSE(share_rootfs(std::move(tree)).ok());
}

}  // namespace
}  // namespace soda::os
