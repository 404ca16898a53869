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
//
// A finished tree is immutable. A node's tree is a pure function of its
// image, the customize flag and the services it keeps, so one world builds
// it once (`RootFsTable`) and every node of that key shares it; the four
// templates are one immutable table per process (`base_rootfs`).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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

  /// What the boot model reads, derived from the fields above once the tree
  /// is final (seal(): by share_rootfs, or when a snapshot load parses the
  /// tree). Empty on a tree still being built.
  struct BootInputs {
    std::vector<std::string> start_order;  // enabled closure, deps first
    double start_cost_ghz_s = 0.0;         // CPU of their init scripts
    std::int64_t image_bytes = 0;          // sum of the tree's file sizes
  };
  BootInputs boot;

  /// Sum of the tree's file sizes; walks the tree (a sealed tree's
  /// boot.image_bytes holds the same figure).
  [[nodiscard]] std::int64_t image_bytes() const noexcept { return fs.total_size(); }

  /// Computes `boot` from the finished tree. Fails when an enabled service
  /// is not in the standard catalog.
  Status seal();

  /// The section a tree is saved in: a guest's shared tree goes through
  /// `ar.shared`, which matches repeats of it by their bytes.
  static constexpr std::string_view kSection = "rootfs";

  /// Snapshot walk over the rootfs verbatim (tree, enabled services,
  /// packages); a load seals the parsed tree.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section(kSection);
    ar.str(template_name);
    ar.walk(fs);
    ar.seq(enabled_services, [&ar](auto& service) { ar.str(service); });
    ar.seq(installed_packages, [&ar](auto& package) { ar.str(package); });
    if constexpr (Ar::kLoading) {
      if (ar.ok()) ar.check(seal().ok(), "rootfs enables an unknown service");
    }
    ar.end_section();
  }
};

/// The package set backing the standard service catalog (glibc, apache,
/// sendmail, ...). Sizes are period-plausible; relative magnitudes matter.
const PackageDatabase& standard_package_database();

/// Builds one of the four paper templates against the standard catalog and
/// package database.
RootFs build_rootfs(RootFsTemplate t);

/// The built template `t`, from one immutable table the process builds on
/// first use. It is a pure function of `t`, so ParallelRunner replicas read
/// it without a lock. Callers copy what they change.
const RootFs& base_rootfs(RootFsTemplate t);

/// Seals a finished tree (RootFs::seal) and hands it out immutable, to be
/// shared by every guest that boots it.
Result<std::shared_ptr<const RootFs>> share_rootfs(RootFs tree);

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

/// One world's guest trees (paper §4.3: template, tailoring, then the image
/// merged into the root). Nothing changes a node's tree after priming, so
/// the table builds each distinct tree once and every later node of its key
/// shares it: priming an already-built tree costs a lookup, not a rebuild.
/// The Master owns one table per world; nothing is shared across worlds.
class RootFsTable {
 public:
  /// The tree of template `t`, tailored to `services` when `customize`
  /// (untailored trees ignore `services`), with `payload` merged into its
  /// root. Built on the key's first call and shared after; a failed build
  /// is not kept, and its error names the failed step. `payload` keys the
  /// image: the entry holds it (an aliasing pointer holds the whole image),
  /// so a withdrawn image's address cannot match a live key.
  Result<std::shared_ptr<const RootFs>> intern(
      const std::shared_ptr<const FileSystem>& payload, RootFsTemplate t,
      bool customize, const std::vector<std::string>& services);

  /// Distinct trees built so far.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const FileSystem> payload;
    RootFsTemplate t;
    bool customize;
    std::vector<std::string> services;  // empty unless customize
    std::shared_ptr<const RootFs> tree;
  };
  std::multimap<const FileSystem*, Entry> entries_;
};

}  // namespace soda::os
