// Active service image downloading (paper §4.3): the first step of service
// priming. The SODA Daemon fetches the packaged image from the ASP's
// repository over HTTP/1.1; the transfer shares the LAN with everything
// else, so its duration comes from the flow network. Connections to the
// same repository are persistent (HTTP/1.1 keep-alive): only the first
// download from a given host pays the connection-setup round trip, and a
// host crash drops every connection (reset_connections()).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "image/repository.hpp"
#include "net/flow_network.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "util/result.hpp"

namespace soda::image {

/// Retry tuning for transient (5xx) repository failures: exponential
/// backoff with deterministic jitter drawn from the downloader's own RNG
/// stream, so every replica of a seeded experiment retries at identical
/// sim-times. Permanent errors (404) are never retried.
struct RetryPolicy {
  static constexpr int kMaxAttempts = 4;  // total tries, including the first
  static constexpr sim::SimTime kBaseDelay = sim::SimTime::milliseconds(200);
  static constexpr double kMultiplier = 2.0;
  static constexpr sim::SimTime kMaxDelay = sim::SimTime::seconds(5);
  /// Each delay is scaled by uniform(1 - kJitter, 1 + kJitter).
  static constexpr double kJitter = 0.1;
};

/// Downloads images from repositories for one HUP host.
class HttpDownloader {
 public:
  using Callback =
      std::function<void(Result<ImagePtr> image, sim::SimTime finished_at)>;
  /// Byte-range fetch completion: the number of body bytes transferred.
  using RangeCallback =
      std::function<void(Result<std::int64_t> bytes, sim::SimTime finished_at)>;

  /// `host_node` is the downloading HUP host's flow-network attachment.
  /// `seed` feeds the backoff-jitter RNG (keyed by the host node so two
  /// hosts retrying the same outage do not synchronize).
  HttpDownloader(sim::Engine& engine, net::FlowNetwork& network,
                 net::NodeId host_node);

  /// Where fetches resolve the repository their location names; required
  /// before the first one. Every attempt (including retries scheduled
  /// across backoff) resolves it afresh, so a repository withdrawn
  /// mid-transfer fails cleanly.
  void set_directory(const RepositoryDirectory* directory) noexcept {
    directory_ = directory;
  }

  /// Fetches `location`. `on_done` fires with the published image (a
  /// pointer, not a copy) when the last byte arrives and the image is still
  /// published, or with "HTTP <status> <reason>" after the request round
  /// trip. Transient failures (HTTP 5xx) are retried per the RetryPolicy
  /// before the error is surfaced.
  void download(const ImageLocation& location, Callback on_done);

  /// Fetches `bytes` of the packaged image (an HTTP Range request) with the
  /// same keep-alive, retry, and directory-resolution behavior as
  /// download(). The chunk distributor's origin path.
  void download_range(const ImageLocation& location, std::int64_t bytes,
                      RangeCallback on_done);

  /// Drops all keep-alive connection state: the next request to any
  /// repository pays the handshake round trip again. Wired into the host
  /// fail-stop path — a rebooted host has no live TCP connections.
  void reset_connections() noexcept { connected_.clear(); }

  [[nodiscard]] std::uint64_t downloads_completed() const noexcept {
    return completed_;
  }
  [[nodiscard]] std::uint64_t downloads_failed() const noexcept { return failed_; }
  /// Attempts beyond the first, across all downloads.
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::int64_t bytes_downloaded() const noexcept { return bytes_; }

  /// Checkpoints the jitter RNG stream, keep-alive connection set and
  /// counters; the retry policy is written for a load to check. Transfers
  /// in flight hold closures and cannot be checkpointed — the owner
  /// quiesces the world before saving.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("downloader");
    ar.walk(rng_);
    auto&& policy = ar.expect("downloader retry policy mismatch");
    policy.i64(RetryPolicy::kMaxAttempts);
    policy.time(RetryPolicy::kBaseDelay);
    policy.f64(RetryPolicy::kMultiplier);
    policy.time(RetryPolicy::kMaxDelay);
    policy.f64(RetryPolicy::kJitter);
    ar.seq(connected_, [&ar](auto& repo) { ar.str(repo); });
    ar.u64(completed_);
    ar.u64(failed_);
    ar.u64(retries_);
    ar.i64(bytes_);
    ar.end_section();
  }

 private:
  /// One logical transfer: held by value across retries so nothing in it can
  /// dangle.
  struct Transfer {
    ImageLocation location;
    std::int64_t range_bytes = -1;  // -1: whole packaged image
  };

  void attempt(Transfer transfer, RangeCallback on_done, int tries_left);
  [[nodiscard]] sim::SimTime backoff_delay(int attempts_made) noexcept;

  sim::Engine& engine_;
  net::FlowNetwork& network_;
  net::NodeId host_node_;
  sim::Rng rng_;
  const RepositoryDirectory* directory_ = nullptr;
  std::set<std::string> connected_;  // repositories with a live keep-alive
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::int64_t bytes_ = 0;
};

}  // namespace soda::image
