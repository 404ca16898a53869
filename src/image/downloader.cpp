#include "image/downloader.hpp"

#include <algorithm>
#include <memory>
#include <utility>

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
  double delay_sec = RetryPolicy::kBaseDelay.to_seconds();
  for (int i = 1; i < attempts_made; ++i) delay_sec *= RetryPolicy::kMultiplier;
  delay_sec = std::min(delay_sec, RetryPolicy::kMaxDelay.to_seconds());
  delay_sec *= rng_.uniform(1.0 - RetryPolicy::kJitter,
                            1.0 + RetryPolicy::kJitter);
  return sim::SimTime::seconds(delay_sec);
}

void HttpDownloader::download(const ImageLocation& location, Callback on_done) {
  SODA_EXPECTS(on_done != nullptr);
  SODA_EXPECTS(directory_ != nullptr);
  attempt(Transfer{location, -1},
          [this, location, on_done = std::move(on_done)](
              Result<std::int64_t> bytes, sim::SimTime finished) mutable {
            if (!bytes.ok()) {
              on_done(bytes.error(), finished);
              return;
            }
            // The body arrived; hand the caller the published image.
            auto lookup = directory_->lookup(location);
            if (!lookup.ok()) {
              on_done(Error{"image withdrawn during transfer: " +
                            lookup.error().message},
                      finished);
              return;
            }
            on_done(std::move(lookup), finished);
          },
          RetryPolicy::kMaxAttempts);
}

void HttpDownloader::download_range(const ImageLocation& location,
                                    std::int64_t bytes, RangeCallback on_done) {
  SODA_EXPECTS(on_done != nullptr);
  SODA_EXPECTS(directory_ != nullptr);
  SODA_EXPECTS(bytes >= 1);
  attempt(Transfer{location, bytes}, std::move(on_done),
          RetryPolicy::kMaxAttempts);
}

void HttpDownloader::attempt(Transfer transfer, RangeCallback on_done,
                             int tries_left) {
  const std::string& repo_name = transfer.location.repository;
  const ImageRepository* repo = directory_->find(repo_name);
  if (repo == nullptr) {
    ++failed_;
    on_done(repository_unavailable(repo_name), engine_.now());
    return;
  }

  // Answer the request now (a published image is immutable); the flow
  // network supplies the timing.
  ImageRepository::Reply reply = repo->serve(transfer.location.path);

  const bool new_connection = connected_.insert(repo_name).second;
  const std::int64_t request_cost =
      kRequestBytes + (new_connection ? kHandshakeBytes : 0);
  const net::NodeId repo_node = repo->node();

  // Phase 1: request travels daemon -> repository.
  auto result = network_.start_flow(
      host_node_, repo_node, request_cost,
      [this, transfer, repo_node, reply = std::move(reply),
       on_done = std::move(on_done), tries_left](sim::SimTime) mutable {
        if (reply.status >= 500 && tries_left > 1) {
          // Transient server failure: back off and try again. The retry
          // carries only the location — the repository it names is resolved
          // afresh at the next attempt, so a repository torn down during the
          // backoff cannot dangle. Permanent errors (404) fall through and
          // fail immediately.
          ++retries_;
          const int attempts_made = RetryPolicy::kMaxAttempts - tries_left + 1;
          const sim::SimTime delay = backoff_delay(attempts_made);
          util::global_logger().warn(
              "downloader", "HTTP " + std::to_string(reply.status) +
                                " from " + transfer.location.repository +
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
        if (reply.status != 200) {
          ++failed_;
          on_done(Error{"HTTP " + std::to_string(reply.status) + " " +
                        std::string(reply.reason)},
                  engine_.now());
          return;
        }
        const std::int64_t packaged = reply.image->packaged_bytes();
        const std::int64_t body_bytes =
            transfer.range_bytes >= 0 ? std::min(transfer.range_bytes, packaged)
                                      : packaged;
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
