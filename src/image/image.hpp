// Service images. An ASP packages its service — executables and data files,
// organized in a file system with one root, using RPM (paper §3, §4.3) —
// and publishes it at a location the SODA Daemons can download from.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "image/chunk.hpp"
#include "os/filesystem.hpp"
#include "os/rootfs.hpp"
#include "util/result.hpp"

namespace soda::image {

/// One component of a partitionable service (paper §3.5's desired
/// extension, after Ivan et al.): a distinct process with its own system-
/// service needs and capacity share, mapped to its own virtual service
/// node. Requests are routed to components by target prefix.
struct ServiceComponent {
  std::string name;           // "frontend", "search", "db"
  std::string entry_command;
  int listen_port = 8080;
  std::string route_prefix;   // e.g. "/search" -> this component
  std::vector<std::string> required_services;
  double app_start_ghz_s = 0.3;
  std::int64_t app_memory_mb = 32;
  int units = 1;              // machine instances M this component needs

  friend bool operator==(const ServiceComponent&,
                          const ServiceComponent&) = default;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.str(name);
    ar.str(entry_command);
    ar.i64(listen_port);
    ar.str(route_prefix);
    ar.seq(required_services, [&ar](auto& service) { ar.str(service); });
    ar.f64(app_start_ghz_s);
    ar.i64(app_memory_mb);
    ar.i64(units);
  }
};

/// The largest payload an image may carry (1 TiB), so that its manifest
/// holds at most about 2^20 chunks.
inline constexpr std::int64_t kMaxPayloadBytes = std::int64_t{1} << 40;

/// A packaged application service: the file payload plus everything the
/// SODA Daemon needs to prime a virtual service node for it.
struct ServiceImage {
  std::string name;            // e.g. "web-content"
  std::string version = "1.0";
  os::FileSystem payload;      // executables + data files, one root
  std::string entry_command;   // daemon started inside the guest
  int listen_port = 8080;
  /// Guest system services the application needs (drives rootfs tailoring).
  std::vector<std::string> required_services;
  /// Rootfs template the image was built against.
  os::RootFsTemplate rootfs_template = os::RootFsTemplate::kBase10;
  /// CPU to start the application itself (GHz-seconds).
  double app_start_ghz_s = 0.3;
  /// Application resident memory once started.
  std::int64_t app_memory_mb = 32;
  /// Non-empty for a partitionable service: each component maps to its own
  /// virtual service node; the fields above describe the default
  /// (fully-replicated) deployment and are ignored when components exist.
  std::vector<ServiceComponent> components;
  /// The chunk list, built by the repository that publishes the image (or
  /// restores it from a snapshot); empty until then. It follows from the
  /// fields above, so the snapshot does not carry it.
  ImageManifest manifest;

  [[nodiscard]] bool partitioned() const noexcept { return !components.empty(); }
  /// Total machine instances a partitioned image needs (sum of component
  /// units); 0 for replicated images.
  [[nodiscard]] int total_component_units() const noexcept;

  /// Payload size before packaging.
  [[nodiscard]] std::int64_t payload_bytes() const noexcept {
    return payload.total_size();
  }

  /// Size of the RPM package as transferred over HTTP: payload plus ~2%
  /// metadata/padding overhead and a fixed header block.
  [[nodiscard]] std::int64_t packaged_bytes() const noexcept;

  /// Snapshot walk over the full image, payload tree included: repositories
  /// hold images published by harness code outside the world, so a restore
  /// cannot rebuild them and the snapshot must carry them. A load refuses a
  /// payload past kMaxPayloadBytes, which would size the manifest.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("image");
    ar.str(name);
    ar.str(version);
    ar.walk(payload);
    if constexpr (Ar::kLoading) {
      const std::int64_t bytes = payload_bytes();
      ar.check(bytes >= 0 && bytes <= kMaxPayloadBytes,
               "image payload size out of range");
    }
    ar.str(entry_command);
    ar.i64(listen_port);
    ar.seq(required_services, [&ar](auto& service) { ar.str(service); });
    ar.u8(rootfs_template, os::RootFsTemplate::kRh72Server);
    ar.f64(app_start_ghz_s);
    ar.i64(app_memory_mb);
    ar.seq(components, [&ar](auto& component) { ar.walk(component); });
    ar.end_section();
  }
};

/// A published image. Publishing freezes it: repositories, downloads and
/// priming hand out this pointer, never a copy.
using ImagePtr = std::shared_ptr<const ServiceImage>;

/// Fluent builder so examples and tests read declaratively.
class ServiceImageBuilder {
 public:
  explicit ServiceImageBuilder(std::string name);

  ServiceImageBuilder& version(std::string v);
  ServiceImageBuilder& entry_command(std::string cmd);
  ServiceImageBuilder& listen_port(int port);
  ServiceImageBuilder& requires_service(std::string system_service);
  ServiceImageBuilder& rootfs(os::RootFsTemplate t);
  ServiceImageBuilder& app_start_cost(double ghz_s);
  ServiceImageBuilder& app_memory(std::int64_t mb);
  ServiceImageBuilder& add_file(std::string path, std::int64_t size_bytes);
  /// Adds `count` data files of `each_bytes` under `dir` (dataset bulk).
  ServiceImageBuilder& add_dataset(std::string dir, int count,
                                   std::int64_t each_bytes);
  /// Declares a component of a partitionable service.
  ServiceImageBuilder& add_component(ServiceComponent component);

  [[nodiscard]] ServiceImage build();

 private:
  ServiceImage image_;
};

/// Canned images used across examples, tests, and benches.

/// The paper's S_I: static web content service on rootfs_base_1.0.
ServiceImage web_content_image(std::int64_t dataset_bytes = 64 * 1024 * 1024);

/// The paper's S_II: the honeypot (vulnerable ghttpd victim) on tomsrtbt.
ServiceImage honeypot_image();

/// The paper's S_III class: a bulk service on root_fs_lfs_4.0.
ServiceImage genome_matching_image();

/// The paper's S_IV class: full server image on rh-7.2-server.pristine.
ServiceImage full_server_image();

/// CPU-intensive batch image (the `comp` node of Figure 5).
ServiceImage comp_image();

/// Continuous-disk-writer image (the `log` node of Figure 5).
ServiceImage log_image();

/// A three-component partitionable on-line shop: frontend (2M), search (1M),
/// db (1M) — the paper's §3.5 "partitionable service" extension.
ServiceImage online_shop_image();

}  // namespace soda::image
