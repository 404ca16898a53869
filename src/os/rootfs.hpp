// Guest root filesystems. The paper boots four concrete rootfs templates
// (Table 2): rootfs_base_1.0 (29.3 MB), root_fs_tomrtbt_1.7.205 (15 MB),
// root_fs_lfs_4.0 (400 MB) and root_fs.rh-7.2-server.pristine (253 MB). Each
// template here reproduces the size class and, more importantly, the set of
// system services it boots — the dominant term in bootstrapping time.
//
// The SODA Daemon's customization step (paper §4.3) is `customize_rootfs`:
// retain only the system services the application needs, include only the
// packages in their dependency closure, and report whether the result fits a
// RAM disk.
#pragma once

#include <string>
#include <vector>

#include "os/filesystem.hpp"
#include "os/init.hpp"
#include "os/package.hpp"
#include "util/result.hpp"

namespace soda::os {

/// The four rootfs templates evaluated in the paper.
enum class RootFsTemplate {
  kBase10,      // rootfs_base_1.0 — minimal web-capable base
  kTomsrtbt,    // root_fs_tomrtbt_1.7.205 — tiny rescue-disk style system
  kLfs40,       // root_fs_lfs_4.0 — Linux From Scratch with bulk /usr data
  kRh72Server,  // root_fs.rh-7.2-server.pristine — full-blown server install
};

/// The paper's name string for a template.
std::string rootfs_template_name(RootFsTemplate t);

/// A concrete guest root filesystem: the file tree plus the system services
/// its init will start.
struct RootFs {
  std::string template_name;
  FileSystem fs;
  std::vector<std::string> enabled_services;   // start-order roots
  std::vector<std::string> installed_packages;  // sorted, unique

  [[nodiscard]] std::int64_t image_bytes() const noexcept { return fs.total_size(); }

  /// Snapshot walk over the rootfs verbatim (tree, enabled services,
  /// packages). Live guests' trees have been customized and mutated since
  /// construction, so this is cheaper and safer than replaying the build.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("rootfs");
    ar.str(template_name);
    ar.walk(fs);
    ar.seq(enabled_services, [&ar](auto& service) { ar.str(service); });
    ar.seq(installed_packages, [&ar](auto& package) { ar.str(package); });
    ar.end_section();
  }
};

/// The package set backing the standard service catalog (glibc, apache,
/// sendmail, ...). Sizes are period-plausible; relative magnitudes matter.
const PackageDatabase& standard_package_database();

/// Builds one of the four paper templates against the standard catalog and
/// package database.
RootFs build_rootfs(RootFsTemplate t);

/// Shared immutable instance of a built template. Building a tree means
/// hundreds of allocations; every node priming used to pay it (plus a full
/// customize pass) before mutating its own copy, which dominated the
/// admission path's allocation count. Callers copy what they mutate.
/// Thread-safe (ParallelRunner replicas share the process-wide cache; the
/// cached value is a pure function of the template, so sharing cannot leak
/// state between replicas).
const RootFs& cached_base_rootfs(RootFsTemplate t);

/// Shared immutable customized template: exactly
/// customize_rootfs(build_rootfs(t), required_services), computed once per
/// distinct (template, services) pair. Callers copy what they mutate.
Result<const RootFs*> cached_customized_rootfs(
    RootFsTemplate t, const std::vector<std::string>& required_services);

/// SODA Daemon rootfs tailoring: keeps only `required_services` (plus their
/// dependency closure) of `base`'s enabled services, and only the packages
/// that closure needs (plus the template's base files). Fails when a
/// required service is not available in the catalog.
Result<RootFs> customize_rootfs(const RootFs& base,
                                const std::vector<std::string>& required_services);

/// RAM-disk eligibility rule used by the boot model: the customized image
/// must fit in 40% of the memory left after the guest's own allocation.
bool fits_ram_disk(std::int64_t image_bytes, std::int64_t host_ram_mb,
                   std::int64_t guest_mem_mb) noexcept;

}  // namespace soda::os
