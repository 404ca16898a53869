#include "image/downloader.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "net/http.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"

namespace soda::image {

namespace {
constexpr std::int64_t kRequestBytes = 256;  // GET head
// TCP handshake modeled as one extra small round trip.
constexpr std::int64_t kHandshakeBytes = 128;
}  // namespace

HttpDownloader::HttpDownloader(sim::Engine& engine, net::FlowNetwork& network,
                               net::NodeId host_node)
    : engine_(engine),
      network_(network),
      host_node_(host_node),
      // Key the jitter stream by the host's network attachment so co-located
      // downloaders desynchronize while every replica stays deterministic.
      rng_(0x0DA1'10AD ^ (static_cast<std::uint64_t>(host_node.value) << 17)) {}

sim::SimTime HttpDownloader::backoff_delay(int attempts_made) noexcept {
  double delay_sec = policy_.base_delay.to_seconds();
  for (int i = 1; i < attempts_made; ++i) delay_sec *= policy_.multiplier;
  delay_sec = std::min(delay_sec, policy_.max_delay.to_seconds());
  delay_sec *= rng_.uniform(1.0 - policy_.jitter, 1.0 + policy_.jitter);
  return sim::SimTime::seconds(delay_sec);
}

const ImageRepository* HttpDownloader::resolve(const Transfer& transfer) const {
  if (directory_ != nullptr) return directory_->find(transfer.repo_name);
  return transfer.fallback;
}

void HttpDownloader::download(const ImageRepository& repo,
                              const ImageLocation& location, Callback on_done) {
  SODA_EXPECTS(on_done != nullptr);
  SODA_EXPECTS(policy_.max_attempts >= 1);
  Transfer transfer{repo.name(), &repo, location, -1};
  attempt(transfer,
          [this, transfer, on_done = std::move(on_done)](
              Result<std::int64_t> bytes, sim::SimTime finished) mutable {
            if (!bytes.ok()) {
              on_done(bytes.error(), finished);
              return;
            }
            // The body arrived; hand the caller the published image.
            const ImageRepository* repo = resolve(transfer);
            auto lookup = repo != nullptr
                              ? repo->lookup(transfer.location.path)
                              : Result<ImagePtr>(Error{
                                    "repository '" + transfer.repo_name +
                                    "' is no longer available"});
            if (!lookup.ok()) {
              on_done(Error{"image withdrawn during transfer: " +
                            lookup.error().message},
                      finished);
              return;
            }
            on_done(std::move(lookup), finished);
          },
          policy_.max_attempts);
}

void HttpDownloader::download_range(const ImageRepository& repo,
                                    const ImageLocation& location,
                                    std::int64_t bytes, RangeCallback on_done) {
  SODA_EXPECTS(on_done != nullptr);
  SODA_EXPECTS(policy_.max_attempts >= 1);
  SODA_EXPECTS(bytes >= 1);
  attempt(Transfer{repo.name(), &repo, location, bytes}, std::move(on_done),
          policy_.max_attempts);
}

void HttpDownloader::attempt(Transfer transfer, RangeCallback on_done,
                             int tries_left) {
  const ImageRepository* repo = resolve(transfer);
  if (repo == nullptr) {
    ++failed_;
    on_done(Error{"repository '" + transfer.repo_name +
                  "' is no longer available"},
            engine_.now());
    return;
  }

  net::HttpRequest request;
  request.method = "GET";
  request.target = transfer.location.path;
  request.headers.set("Host", transfer.location.repository);
  request.headers.set("Connection", "keep-alive");
  request.headers.set("User-Agent", "soda-daemon/1.0");
  if (transfer.range_bytes >= 0) {
    request.headers.set("Range",
                        "bytes=0-" + std::to_string(transfer.range_bytes - 1));
  }

  // Resolve the response now (repository content is immutable during a
  // transfer); the flow network supplies the timing.
  net::HttpResponse response = repo->handle(request);
  auto image_lookup = repo->lookup(transfer.location.path);

  const bool new_connection = connected_.insert(transfer.repo_name).second;
  const std::int64_t request_cost =
      kRequestBytes + (new_connection ? kHandshakeBytes : 0);
  const net::NodeId repo_node = repo->node();

  // Phase 1: request travels daemon -> repository.
  auto result = network_.start_flow(
      host_node_, repo_node, request_cost,
      [this, transfer, repo_node, response = std::move(response), image_lookup,
       on_done = std::move(on_done), tries_left](sim::SimTime) mutable {
        if (response.status >= 500 && tries_left > 1) {
          // Transient server failure: back off and try again. The retry
          // carries only the repository *name* — resolution happens afresh
          // at the next attempt, so a repository torn down during the
          // backoff cannot dangle. Permanent errors (404/400) fall through
          // and fail immediately.
          ++retries_;
          const int attempts_made = policy_.max_attempts - tries_left + 1;
          const sim::SimTime delay = backoff_delay(attempts_made);
          util::global_logger().warn(
              "downloader", "HTTP " + std::to_string(response.status) +
                                " from " + transfer.repo_name +
                                "; retrying in " +
                                std::to_string(delay.to_seconds()) + "s (" +
                                std::to_string(tries_left - 1) + " left)");
          engine_.schedule_after(
              delay, [this, transfer, on_done = std::move(on_done),
                      tries_left]() mutable {
                attempt(transfer, std::move(on_done), tries_left - 1);
              });
          return;
        }
        if (response.status != 200 || !image_lookup.ok()) {
          ++failed_;
          on_done(Error{"HTTP " + std::to_string(response.status) + " " +
                        response.reason},
                  engine_.now());
          return;
        }
        const std::int64_t body_bytes =
            transfer.range_bytes >= 0
                ? std::min(transfer.range_bytes,
                           image_lookup.value()->packaged_bytes())
                : image_lookup.value()->packaged_bytes();
        // Phase 2: response body travels repository -> daemon.
        auto body_flow = network_.start_flow(
            repo_node, host_node_, body_bytes,
            [this, body_bytes,
             on_done = std::move(on_done)](sim::SimTime finished) mutable {
              ++completed_;
              bytes_ += body_bytes;
              on_done(body_bytes, finished);
            });
        if (!body_flow.ok()) {
          ++failed_;
          on_done(body_flow.error(), engine_.now());
        }
      });
  if (!result.ok()) {
    ++failed_;
    on_done(result.error(), engine_.now());
  }
}

}  // namespace soda::image
