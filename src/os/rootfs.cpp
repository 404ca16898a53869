#include "os/rootfs.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <set>

#include "util/contract.hpp"

namespace soda::os {

namespace {

constexpr std::int64_t kKiB = 1024;
constexpr std::int64_t kMiB = 1024 * 1024;

/// Adds the files every template shares: kernel image, /bin, /sbin, /etc
/// skeleton. `scale` inflates the base to differentiate template size
/// classes.
void add_base_files(FileSystem& fs, std::int64_t extra_usr_bytes) {
  must(fs.mkdir_p("/proc"));
  must(fs.mkdir_p("/tmp"));
  must(fs.mkdir_p("/var/log"));
  must(fs.add_file("/boot/vmlinuz-2.4.19", 1200 * kKiB));
  must(fs.add_file("/boot/System.map", 250 * kKiB));
  must(fs.add_file("/bin/sh", 512 * kKiB));
  must(fs.add_file("/bin/login", 30 * kKiB));
  must(fs.add_file("/bin/ps", 60 * kKiB));
  must(fs.add_file("/sbin/init", 28 * kKiB));
  must(fs.add_file("/sbin/getty", 14 * kKiB));
  must(fs.add_file("/etc/inittab", 2 * kKiB));
  must(fs.add_file("/etc/fstab", 1 * kKiB));
  must(fs.add_file("/etc/passwd", 1 * kKiB));
  must(fs.add_file("/etc/issue", 1 * kKiB));  // "Welcome to SODA" banner
  if (extra_usr_bytes > 0) {
    // Bulk payload standing in for the template's /usr content (toolchains,
    // docs, locales); a handful of large files keeps the tree small.
    const std::int64_t chunk = extra_usr_bytes / 8;
    for (int i = 0; i < 8; ++i) {
      must(fs.add_file("/usr/share/bulk/blob" + std::to_string(i), chunk));
    }
  }
}

/// Installs the packages needed by `services`' closure, writes their
/// /etc/init.d entries, and assembles the RootFs.
RootFs assemble(std::string template_name, FileSystem fs,
                std::vector<std::string> services) {
  const ServiceCatalog& catalog = standard_service_catalog();
  const PackageDatabase& db = standard_package_database();
  auto packages = must(catalog.required_packages(services));
  // Every template needs the core runtime.
  packages.insert(packages.begin(), {"glibc", "bash", "coreutils"});
  std::sort(packages.begin(), packages.end());
  packages.erase(std::unique(packages.begin(), packages.end()), packages.end());
  auto installed = must(db.install(packages, fs));
  std::sort(installed.begin(), installed.end());

  const auto order = must(catalog.start_order(services));
  for (const auto& svc : order) {
    must(fs.add_file("/etc/init.d/" + svc, 4 * kKiB));
  }
  RootFs rootfs;
  rootfs.template_name = std::move(template_name);
  rootfs.fs = std::move(fs);
  rootfs.enabled_services = std::move(services);
  rootfs.installed_packages = std::move(installed);
  return rootfs;
}

}  // namespace

std::string rootfs_template_name(RootFsTemplate t) {
  switch (t) {
    case RootFsTemplate::kBase10:
      return "rootfs_base_1.0";
    case RootFsTemplate::kTomsrtbt:
      return "root_fs_tomrtbt_1.7.205";
    case RootFsTemplate::kLfs40:
      return "root_fs_lfs_4.0";
    case RootFsTemplate::kRh72Server:
      return "root_fs.rh-7.2-server.pristine.20021012";
  }
  return "unknown";
}

const PackageDatabase& standard_package_database() {
  static const PackageDatabase db = [] {
    PackageDatabase d;
    auto pkg = [&d](std::string name, std::vector<std::string> deps,
                    std::initializer_list<std::pair<const char*, std::int64_t>>
                        files) {
      Package p;
      p.name = std::move(name);
      p.depends = std::move(deps);
      for (const auto& [path, size] : files) {
        p.files.push_back(PackageFile{path, size});
      }
      must(d.add(std::move(p)));
    };
    pkg("glibc", {}, {{"/lib/libc-2.2.4.so", 5800 * kKiB},
                      {"/lib/ld-2.2.4.so", 90 * kKiB},
                      {"/usr/lib/locale/locale-archive", 4200 * kKiB}});
    pkg("bash", {"glibc"}, {{"/bin/bash", 512 * kKiB}});
    pkg("coreutils", {"glibc"}, {{"/bin/coreutils-multicall", 2200 * kKiB}});
    pkg("dev-utils", {"glibc"}, {{"/sbin/makedev", 24 * kKiB}});
    pkg("initscripts", {"bash"}, {{"/etc/rc.d/rc.sysinit", 20 * kKiB},
                                  {"/sbin/service", 6 * kKiB}});
    pkg("net-tools", {"glibc"}, {{"/sbin/ifconfig", 58 * kKiB},
                                 {"/sbin/route", 48 * kKiB}});
    pkg("sysklogd", {"glibc"}, {{"/sbin/syslogd", 34 * kKiB},
                                {"/sbin/klogd", 26 * kKiB}});
    pkg("portmap", {"glibc"}, {{"/sbin/portmap", 36 * kKiB}});
    pkg("xinetd", {"glibc"}, {{"/usr/sbin/xinetd", 150 * kKiB}});
    pkg("openssl", {"glibc"}, {{"/usr/lib/libssl.so.0.9.6", 210 * kKiB},
                               {"/usr/lib/libcrypto.so.0.9.6", 940 * kKiB}});
    pkg("openssh-server", {"openssl"}, {{"/usr/sbin/sshd", 260 * kKiB}});
    pkg("vixie-cron", {"glibc"}, {{"/usr/sbin/crond", 60 * kKiB}});
    pkg("mm", {"glibc"}, {{"/usr/lib/libmm.so.11", 24 * kKiB}});
    pkg("apache", {"mm"}, {{"/usr/sbin/httpd", 290 * kKiB},
                           {"/etc/httpd/conf/httpd.conf", 34 * kKiB},
                           {"/var/www/html/index.html", 2 * kKiB}});
    pkg("LPRng", {"glibc"}, {{"/usr/sbin/lpd", 190 * kKiB}});
    pkg("procmail", {"glibc"}, {{"/usr/bin/procmail", 90 * kKiB}});
    pkg("sendmail", {"procmail"}, {{"/usr/sbin/sendmail", 470 * kKiB},
                                   {"/etc/sendmail.cf", 42 * kKiB}});
    pkg("nfs-utils", {"portmap"}, {{"/usr/sbin/rpc.nfsd", 50 * kKiB},
                                   {"/usr/sbin/rpc.mountd", 70 * kKiB}});
    pkg("autofs", {"glibc"}, {{"/usr/sbin/automount", 80 * kKiB}});
    pkg("at", {"glibc"}, {{"/usr/sbin/atd", 40 * kKiB}});
    pkg("apmd", {"glibc"}, {{"/usr/sbin/apmd", 44 * kKiB}});
    pkg("hwdata", {}, {{"/usr/share/hwdata/pcitable", 420 * kKiB}});
    pkg("kudzu", {"hwdata"}, {{"/usr/sbin/kudzu", 120 * kKiB}});
    pkg("pidentd", {"glibc"}, {{"/usr/sbin/identd", 60 * kKiB}});
    pkg("gpm", {"glibc"}, {{"/usr/sbin/gpm", 70 * kKiB}});
    pkg("XFree86-font-utils", {"glibc"},
        {{"/usr/X11R6/bin/mkfontdir", 30 * kKiB},
         {"/usr/X11R6/lib/X11/fonts/misc.tar", 9000 * kKiB}});
    pkg("XFree86-xfs", {"XFree86-font-utils"},
        {{"/usr/X11R6/bin/xfs", 280 * kKiB}});
    pkg("yp-tools", {"glibc"}, {{"/usr/bin/ypwhich", 20 * kKiB}});
    pkg("ypbind", {"yp-tools"}, {{"/usr/sbin/ypbind", 40 * kKiB}});
    pkg("rusers-server", {"portmap"}, {{"/usr/sbin/rpc.rusersd", 30 * kKiB}});
    pkg("rwho", {"glibc"}, {{"/usr/sbin/rwhod", 26 * kKiB}});
    pkg("ucd-snmp", {"glibc"}, {{"/usr/sbin/snmpd", 1100 * kKiB}});
    pkg("console-tools", {"glibc"}, {{"/bin/loadkeys", 40 * kKiB}});
    pkg("anacron", {"glibc"}, {{"/usr/sbin/anacron", 24 * kKiB}});
    return d;
  }();
  return db;
}

RootFs build_rootfs(RootFsTemplate t) {
  FileSystem fs;
  switch (t) {
    case RootFsTemplate::kBase10: {
      // ~29 MB minimal web-capable base: core runtime + a handful of
      // services; a small /usr.
      add_base_files(fs, 9 * kMiB);
      return assemble(rootfs_template_name(t), std::move(fs),
                      {"devfs", "network", "syslog", "klogd", "httpd"});
    }
    case RootFsTemplate::kTomsrtbt: {
      // ~15 MB rescue-disk-style system: nearly everything stripped.
      add_base_files(fs, 0);
      return assemble(rootfs_template_name(t), std::move(fs),
                      {"devfs", "network", "syslog"});
    }
    case RootFsTemplate::kLfs40: {
      // ~400 MB Linux From Scratch: few services but a huge /usr (full
      // toolchain and sources).
      add_base_files(fs, 385 * kMiB);
      return assemble(rootfs_template_name(t), std::move(fs),
                      {"devfs", "network", "syslog", "klogd", "sshd", "httpd"});
    }
    case RootFsTemplate::kRh72Server: {
      // ~253 MB pristine Red Hat 7.2 server: every stock service enabled.
      add_base_files(fs, 215 * kMiB);
      return assemble(
          rootfs_template_name(t), std::move(fs),
          {"kudzu",   "network", "portmap",  "nfslock", "syslog",  "klogd",
           "random",  "netfs",   "autofs",   "keytable", "sshd",   "xinetd",
           "identd",  "lpd",     "sendmail", "gpm",      "crond",  "xfs",
           "rstatd",  "rusersd", "rwhod",    "atd",      "apmd",   "snmpd",
           "ypbind",  "nfs",     "httpd",    "devfs",    "rawdevices",
           "anacron"});
    }
  }
  SODA_ENSURES(false);  // unreachable
  return RootFs{};
}

const RootFs& base_rootfs(RootFsTemplate t) {
  static const std::array<RootFs, 4> templates = {
      build_rootfs(RootFsTemplate::kBase10),
      build_rootfs(RootFsTemplate::kTomsrtbt),
      build_rootfs(RootFsTemplate::kLfs40),
      build_rootfs(RootFsTemplate::kRh72Server)};
  const auto index = static_cast<std::size_t>(t);
  SODA_EXPECTS(index < templates.size());
  return templates[index];
}

Status RootFs::seal() {
  const ServiceCatalog& catalog = standard_service_catalog();
  auto order = catalog.start_order(enabled_services);
  if (!order.ok()) return order.error();
  boot.start_order = std::move(order).value();
  boot.start_cost_ghz_s = must(catalog.start_cost(enabled_services));
  boot.image_bytes = fs.total_size();
  return {};
}

Result<std::shared_ptr<const RootFs>> share_rootfs(RootFs tree) {
  if (auto sealed = tree.seal(); !sealed.ok()) return sealed.error();
  return std::make_shared<const RootFs>(std::move(tree));
}

Result<RootFs> customize_rootfs(const RootFs& base,
                                const std::vector<std::string>& required_services) {
  const ServiceCatalog& catalog = standard_service_catalog();
  // Validate against the catalog and compute the retained closure.
  auto closure = catalog.start_order(required_services);
  if (!closure.ok()) return closure.error();

  // Only services the template actually had can be retained.
  std::set<std::string> available(base.enabled_services.begin(),
                                  base.enabled_services.end());
  // The template's enabled set is given as roots; expand to its closure.
  auto base_closure = catalog.start_order(base.enabled_services);
  if (base_closure.ok()) {
    available.insert(base_closure.value().begin(), base_closure.value().end());
  }
  for (const auto& svc : closure.value()) {
    if (available.count(svc) == 0) {
      return Error{"service '" + svc + "' not present in template " +
                   base.template_name};
    }
  }

  // Rebuild: copy the base file tree, then drop init entries and package
  // files that the retained closure does not need.
  RootFs out;
  out.template_name = base.template_name + " (customized)";
  out.fs = base.fs;
  out.enabled_services = required_services;

  std::set<std::string> keep_services(closure.value().begin(),
                                      closure.value().end());
  for (const auto& svc : available) {
    if (keep_services.count(svc) == 0) {
      // Entry may be absent when the base listed roots only; ignore result.
      (void)out.fs.remove("/etc/init.d/" + svc);
    }
  }

  auto needed_pkgs = catalog.required_packages(required_services);
  if (!needed_pkgs.ok()) return needed_pkgs.error();
  auto keep_roots = needed_pkgs.value();
  keep_roots.insert(keep_roots.begin(), {"glibc", "bash", "coreutils"});
  const PackageDatabase& db = standard_package_database();
  auto keep_closure = db.resolve(keep_roots);
  if (!keep_closure.ok()) return keep_closure.error();
  std::set<std::string> keep_pkgs(keep_closure.value().begin(),
                                  keep_closure.value().end());
  for (const auto& pkg_name : base.installed_packages) {
    if (keep_pkgs.count(pkg_name) > 0) {
      out.installed_packages.push_back(pkg_name);
      continue;
    }
    const Package* pkg = db.find(pkg_name);
    if (!pkg) continue;
    for (const auto& file : pkg->files) (void)out.fs.remove(file.path);
  }
  return out;
}

bool fits_ram_disk(std::int64_t image_bytes, std::int64_t host_ram_mb,
                   std::int64_t guest_mem_mb) noexcept {
  const std::int64_t free_mb = host_ram_mb - guest_mem_mb;
  if (free_mb <= 0) return false;
  return image_bytes <= free_mb * kMiB * 2 / 5;  // 40% of what's left
}

Result<std::shared_ptr<const RootFs>> RootFsTable::intern(
    const std::shared_ptr<const FileSystem>& payload, RootFsTemplate t,
    bool customize, const std::vector<std::string>& services) {
  SODA_EXPECTS(payload != nullptr);
  const auto [first, last] = entries_.equal_range(payload.get());
  for (auto it = first; it != last; ++it) {
    const Entry& entry = it->second;
    if (entry.t == t && entry.customize == customize &&
        (!customize || entry.services == services)) {
      return entry.tree;
    }
  }
  RootFs tree;
  if (customize) {
    auto customized = customize_rootfs(base_rootfs(t), services);
    if (!customized.ok()) {
      return Error{"rootfs customization failed: " +
                   customized.error().message};
    }
    tree = std::move(customized).value();
  } else {
    tree = base_rootfs(t);
  }
  if (auto merged = tree.fs.copy_from(*payload, "/", "/"); !merged.ok()) {
    return Error{"image merge failed: " + merged.error().message};
  }
  auto shared = share_rootfs(std::move(tree));
  if (!shared.ok()) return shared.error();
  entries_.emplace(payload.get(),
                   Entry{payload, t, customize,
                         customize ? services : std::vector<std::string>{},
                         shared.value()});
  return shared;
}

}  // namespace soda::os
