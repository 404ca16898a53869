#include "image/image.hpp"

#include "util/contract.hpp"

namespace soda::image {

namespace {
constexpr std::int64_t kKiB = 1024;
constexpr std::int64_t kMiB = 1024 * 1024;
constexpr std::int64_t kRpmHeaderBytes = 24 * kKiB;
}  // namespace

int ServiceImage::total_component_units() const noexcept {
  int total = 0;
  for (const auto& component : components) total += component.units;
  return total;
}

std::int64_t ServiceImage::packaged_bytes() const noexcept {
  const std::int64_t payload = payload_bytes();
  return payload + payload / 50 + kRpmHeaderBytes;
}

ServiceImageBuilder::ServiceImageBuilder(std::string name) {
  SODA_EXPECTS(!name.empty());
  image_.name = std::move(name);
}

ServiceImageBuilder& ServiceImageBuilder::version(std::string v) {
  image_.version = std::move(v);
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::entry_command(std::string cmd) {
  image_.entry_command = std::move(cmd);
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::listen_port(int port) {
  SODA_EXPECTS(port > 0 && port < 65536);
  image_.listen_port = port;
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::requires_service(
    std::string system_service) {
  image_.required_services.push_back(std::move(system_service));
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::rootfs(os::RootFsTemplate t) {
  image_.rootfs_template = t;
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::app_start_cost(double ghz_s) {
  SODA_EXPECTS(ghz_s >= 0);
  image_.app_start_ghz_s = ghz_s;
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::app_memory(std::int64_t mb) {
  SODA_EXPECTS(mb >= 1);
  image_.app_memory_mb = mb;
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::add_file(std::string path,
                                                   std::int64_t size_bytes) {
  must(image_.payload.add_file(path, size_bytes));
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::add_dataset(std::string dir, int count,
                                                      std::int64_t each_bytes) {
  SODA_EXPECTS(count >= 1);
  for (int i = 0; i < count; ++i) {
    must(image_.payload.add_file(dir + "/file" + std::to_string(i), each_bytes));
  }
  return *this;
}

ServiceImageBuilder& ServiceImageBuilder::add_component(
    ServiceComponent component) {
  SODA_EXPECTS(!component.name.empty());
  SODA_EXPECTS(component.units >= 1);
  image_.components.push_back(std::move(component));
  return *this;
}

ServiceImage ServiceImageBuilder::build() { return std::move(image_); }

ServiceImage web_content_image(std::int64_t dataset_bytes) {
  SODA_EXPECTS(dataset_bytes >= 0);
  const int files = 64;
  return ServiceImageBuilder("web-content")
      .entry_command("httpd_19_5")
      .listen_port(8080)
      .requires_service("httpd")
      .requires_service("syslog")
      .rootfs(os::RootFsTemplate::kBase10)
      .app_start_cost(0.4)
      .app_memory(24)
      .add_file("/srv/bin/httpd_19_5", 290 * kKiB)
      .add_file("/srv/etc/httpd.conf", 8 * kKiB)
      .add_dataset("/srv/www/data", files, dataset_bytes / files)
      .build();
}

ServiceImage honeypot_image() {
  return ServiceImageBuilder("honeypot")
      .entry_command("ghttpd-1.4")
      .listen_port(8080)
      .requires_service("network")
      .requires_service("syslog")
      .rootfs(os::RootFsTemplate::kTomsrtbt)
      .app_start_cost(0.15)
      .app_memory(8)
      .add_file("/srv/bin/ghttpd-1.4", 48 * kKiB)  // the vulnerable victim
      .add_file("/srv/www/index.html", 4 * kKiB)
      .build();
}

ServiceImage genome_matching_image() {
  return ServiceImageBuilder("genome-matching")
      .entry_command("genomatch")
      .listen_port(9000)
      .requires_service("sshd")
      .requires_service("httpd")
      .rootfs(os::RootFsTemplate::kLfs40)
      .app_start_cost(1.2)
      .app_memory(128)
      .add_file("/srv/bin/genomatch", 2 * kMiB)
      .add_dataset("/srv/genomes", 16, 256 * kKiB)  // reference sequences
      .build();
}

ServiceImage full_server_image() {
  return ServiceImageBuilder("full-server")
      .entry_command("httpd")
      .listen_port(80)
      .requires_service("httpd")
      .requires_service("sendmail")
      .requires_service("nfs")
      .rootfs(os::RootFsTemplate::kRh72Server)
      .app_start_cost(0.8)
      .app_memory(96)
      .add_file("/srv/bin/portal", 1 * kMiB)
      .add_dataset("/srv/content", 32, 512 * kKiB)
      .build();
}

ServiceImage online_shop_image() {
  ServiceComponent frontend;
  frontend.name = "frontend";
  frontend.entry_command = "shop-frontend";
  frontend.listen_port = 8080;
  // Not `= "/"`: GCC 12 at -O3 warns (-Wrestrict, a false positive) on
  // assigning a one-character literal.
  frontend.route_prefix = std::string(1, '/');
  frontend.required_services = {"httpd", "syslog"};
  frontend.app_memory_mb = 48;
  frontend.units = 2;

  ServiceComponent search;
  search.name = "search";
  search.entry_command = "shop-searchd";
  search.listen_port = 8081;
  search.route_prefix = "/search";
  search.required_services = {"network", "syslog"};
  search.app_start_ghz_s = 0.8;
  search.app_memory_mb = 96;
  search.units = 1;

  ServiceComponent db;
  db.name = "db";
  db.entry_command = "shop-db";
  db.listen_port = 5432;
  db.route_prefix = "/cart";
  db.required_services = {"network", "syslog", "klogd"};
  db.app_start_ghz_s = 1.0;
  db.app_memory_mb = 128;
  db.units = 1;

  return ServiceImageBuilder("online-shop")
      .entry_command("shop-frontend")  // default entry (unused when partitioned)
      .listen_port(8080)
      .rootfs(os::RootFsTemplate::kBase10)
      .add_file("/srv/bin/shop-frontend", 600 * kKiB)
      .add_file("/srv/bin/shop-searchd", 2 * kMiB)
      .add_file("/srv/bin/shop-db", 4 * kMiB)
      .add_dataset("/srv/catalog", 16, 512 * kKiB)
      .add_component(std::move(frontend))
      .add_component(std::move(search))
      .add_component(std::move(db))
      .build();
}

ServiceImage comp_image() {
  return ServiceImageBuilder("comp")
      .entry_command("comploop")
      .listen_port(7000)
      .rootfs(os::RootFsTemplate::kTomsrtbt)
      .app_start_cost(0.05)
      .app_memory(4)
      .add_file("/srv/bin/comploop", 16 * kKiB)
      .build();
}

ServiceImage log_image() {
  return ServiceImageBuilder("log")
      .entry_command("logwriter")
      .listen_port(7001)
      .requires_service("syslog")
      .rootfs(os::RootFsTemplate::kTomsrtbt)
      .app_start_cost(0.05)
      .app_memory(4)
      .add_file("/srv/bin/logwriter", 16 * kKiB)
      .build();
}

}  // namespace soda::image
