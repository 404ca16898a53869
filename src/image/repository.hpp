// The ASP-side image repository: a machine owned by the service provider
// that stores packaged service images and serves them over HTTP/1.1
// (paper §3: "The image should be stored in a machine owned by the ASP").
// The protocol is modelled by what its cost depends on: the downloader's
// request and handshake bytes, keep-alive, the Range size and retries, and
// the status and reason a request gets back. No message text is built.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "image/image.hpp"
#include "net/flow_network.hpp"
#include "util/result.hpp"

namespace soda::image {

/// An image location as carried in a service-creation request:
/// "http://<repo>/images/<name>-<version>.rpm".
struct ImageLocation {
  std::string repository;  // repository machine name
  std::string path;        // request target

  [[nodiscard]] std::string url() const { return "http://" + repository + path; }
};

/// Repository server attached to one flow-network node.
class ImageRepository {
 public:
  ImageRepository(std::string name, net::NodeId node);
  /// A blank repository for a snapshot restore to fill through serialize().
  ImageRepository() = default;

  /// Publishes an image, which is immutable from then on, and builds its
  /// manifest; fails on duplicate name. The payload must be at most
  /// kMaxPayloadBytes.
  Result<ImageLocation> publish(ServiceImage image);

  /// Unpublishes an image by name; returns false if absent.
  bool withdraw(const std::string& name);

  /// The image behind `path` ("/images/<name>-<version>.rpm"), or an error
  /// mirroring an HTTP 404. The pointer keeps the image alive after a
  /// withdraw.
  Result<ImagePtr> lookup(const std::string& path) const;

  /// The answer to one GET: the HTTP status and reason phrase, and the
  /// image when the status is 200.
  struct Reply {
    int status = 200;
    std::string_view reason = "OK";
    ImagePtr image;
  };

  /// Serves a GET for `path`: 503 Service Unavailable while an injected
  /// failure is pending (consuming one before any lookup), else 200 OK with
  /// the image or 404 Not Found.
  [[nodiscard]] Reply serve(const std::string& path) const;

  /// Fault injection: the next `n` requests answer 503 Service Unavailable
  /// (transient overload), then the repository serves normally again.
  void fail_next_requests(int n) { fail_next_ = n; }
  [[nodiscard]] int failing_requests() const noexcept { return fail_next_; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::size_t image_count() const noexcept { return images_.size(); }

  /// Snapshot walk over the name, the flow-network node, the published
  /// images (full payload trees — they originate outside the simulated
  /// world, so restore cannot rebuild them) and the injected-failure budget.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.str(name_);
    ar.u64(node_.value);
    ar.begin_section("repository");
    ar.seq(by_path_, [&ar](auto& entry) {
      ar.str(entry.first);
      if constexpr (Ar::kLoading) {
        auto image = std::make_shared<ServiceImage>();
        ar.walk(*image);
        if (ar.ok()) image->manifest = build_manifest(*image);
        entry.second = std::move(image);
      } else {
        ar.walk(*entry.second);
      }
    });
    ar.i64(fail_next_);
    ar.end_section();
    if constexpr (Ar::kLoading) {
      images_.clear();
      for (const auto& [path, image] : by_path_) {
        images_.emplace(image->name, path);
      }
    }
  }

 private:
  static std::string path_for(const ServiceImage& image);

  std::string name_;
  net::NodeId node_;
  std::map<std::string, ImagePtr> by_path_;
  std::map<std::string, std::string> images_;  // name -> path
  /// mutable: serving a 503 consumes one injected failure, but serve() is
  /// semantically const for callers (content is untouched).
  mutable int fail_next_ = 0;
};

/// "repository '<name>' is no longer available": the error of a fetch whose
/// repository left the directory.
[[nodiscard]] Error repository_unavailable(const std::string& name);

/// Name -> repository resolution, the only one: every fetch names its
/// repository in its ImageLocation and resolves it here. Downloads that
/// span sim-time (retry backoff, chunk pipelines) hold the location and
/// re-resolve it at each attempt, so a repository withdrawn from the HUP
/// mid-transfer surfaces as a clean error instead of a dangling reference.
/// The Master owns the HUP-wide instance.
class RepositoryDirectory {
 public:
  /// Registers (or re-registers) a repository under its name.
  void add(const ImageRepository* repository);

  /// Unregisters by name; false if unknown.
  bool remove(const std::string& name);

  /// The live repository, or null if none is registered under `name`.
  [[nodiscard]] const ImageRepository* find(const std::string& name) const;

  /// The image published at `location` now: the repository's lookup, or
  /// repository_unavailable when no repository goes by its name.
  [[nodiscard]] Result<ImagePtr> lookup(const ImageLocation& location) const;

  [[nodiscard]] std::size_t size() const noexcept { return by_name_.size(); }

 private:
  std::map<std::string, const ImageRepository*> by_name_;
};

}  // namespace soda::image
