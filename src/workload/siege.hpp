// A siege-like HTTP request generator (the paper uses `siege` to drive the
// web content service, §5). It runs the closed loop itself (N concurrent
// clients with think time) and serves as the request path of the open-loop
// TrafficEngine (inject), measures per-request response time end to end,
// and attributes every request to the backend the service switch picked —
// the measurements behind Figures 4 and 6.
//
// Measurement goes through the simulator's one latency recorder,
// sim::StreamingStats: with record_samples on, every outcome lands in one
// pipeline (served requests as latencies, refusals as timestamped errors);
// per-backend RunningStats keep Figure 4's per-node means. The request loop
// rides the switch's allocation-free data plane: backend attribution uses a
// sorted dense registry (binary search by address, built at registration
// time) instead of per-request tree lookups.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/switch.hpp"
#include "net/flow_network.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/streaming_stats.hpp"
#include "workload/webservice.hpp"

namespace soda::workload {

/// Load-generation parameters.
struct SiegeConfig {
  /// Closed loop: number of concurrent simulated users.
  int concurrency = 8;
  /// Closed loop: pause between a user's response and next request.
  sim::SimTime think_time = sim::SimTime::milliseconds(50);
  /// Bytes of content each request fetches (the paper's "dataset size").
  std::int64_t response_bytes = 8 * 1024;
  /// Total requests to issue before stopping.
  std::uint64_t max_requests = 500;
  /// Forwarding latency inside the switch itself (see switch_forward_cost).
  sim::SimTime switch_delay = sim::SimTime::microseconds(120);
  /// When non-empty, requests carry this target and the switch routes by
  /// component prefix (partitioned services); empty = plain route().
  std::string target;
  /// Record every outcome into the client's own StreamingStats (stats()).
  /// Clients driven by a TrafficEngine turn this off: the engine measures
  /// each stream in its own pipeline through the observer hook, and an
  /// idle pipeline still holds its ring of histograms (~87 KB).
  bool record_samples = true;
  /// inject() only: maximum requests in flight (0 = unlimited). Arrivals
  /// beyond the cap queue client-side and are dispatched as completions
  /// free a slot — their latency still counts from the *scheduled* arrival,
  /// so client-side queueing delay is measured, not omitted.
  std::uint64_t max_in_flight = 0;
};

/// Drives requests from one client machine at a service.
class SiegeClient {
 public:
  /// With a switch: requests hop client -> switch node -> chosen backend,
  /// responses return backend -> client (L4 forwarding).
  /// `service_switch` may be nullptr for the direct (no-switch) scenario —
  /// then exactly one backend must be registered.
  SiegeClient(sim::Engine& engine, net::FlowNetwork& network,
              net::NodeId client, core::ServiceSwitch* service_switch,
              std::optional<net::NodeId> switch_node, SiegeConfig config);

  /// Associates a backend address (from the switch's configuration file)
  /// with the server instance that handles its requests.
  void register_backend(net::Ipv4Address address, WebContentServer* server,
                        net::NodeId server_node);

  /// Begins issuing requests.
  void start();

  /// Outcome of one request, delivered to the observer as it resolves.
  struct RequestOutcome {
    /// When the request's latency clock started: its scheduled arrival
    /// (inject) or issue time (closed loop).
    sim::SimTime scheduled;
    /// When it completed or was refused.
    sim::SimTime finished;
    /// finished - scheduled, in seconds (refusal: time to the refusal).
    double latency_s = 0;
    bool refused = false;
    /// Serving backend (unset for refusals before a backend answered).
    net::Ipv4Address backend{};
  };
  using Observer = std::function<void(const RequestOutcome&)>;

  /// Installs the per-request outcome hook (replaces any previous one).
  /// The TrafficEngine uses this to feed its streaming stats pipeline.
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  /// Open-loop external drive: issues one request whose latency is measured
  /// from `scheduled` (its arrival time), independent of completions and of
  /// max_requests. Used by the TrafficEngine, which owns the arrival
  /// process; do not mix with start().
  void inject(sim::SimTime scheduled);

  [[nodiscard]] bool finished() const noexcept {
    return completed_ + refused_ >= config_.max_requests;
  }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t refused() const noexcept { return refused_; }
  /// Requests accepted by inject() but still waiting for an in-flight slot
  /// (only non-zero with max_in_flight set).
  [[nodiscard]] std::size_t backlog() const noexcept { return backlog_.size(); }
  /// Requests that were re-routed after their first backend was down.
  [[nodiscard]] std::uint64_t failed_over() const noexcept { return failed_over_; }

  /// Every outcome so far: served requests as latencies (seconds from
  /// issue or scheduled arrival), refusals as errors at the instant they
  /// were refused. Requires record_samples.
  [[nodiscard]] const sim::StreamingStats& stats() const noexcept;
  /// Response times (seconds) of the requests one backend served, in
  /// completion order; empty if it served nothing. Kept whether or not
  /// record_samples is on.
  [[nodiscard]] sim::RunningStats backend_latency(
      net::Ipv4Address address) const;
  /// Requests completed by one backend.
  [[nodiscard]] std::uint64_t completed_by(net::Ipv4Address address) const {
    return backend_latency(address).count();
  }

 private:
  /// One registered backend with its measurement state, stored sorted by
  /// address so the per-request lookup is a binary search, not a tree walk.
  struct Backend {
    std::uint32_t address = 0;
    WebContentServer* server = nullptr;
    net::NodeId node{};
    sim::RunningStats latency;
  };

  void issue_request();
  /// The shared request path: route (with failover), dispatch, measure.
  /// `started` is the instant the latency clock runs from.
  void begin_request(sim::SimTime started);
  /// Closed loop: after a request ends (served or refused), think then issue
  /// the next one. Injected requests: no-op (the caller owns arrivals).
  void maybe_continue();
  void dispatch_to(const core::BackEndEntry& entry, WebContentServer* server,
                   sim::SimTime started);
  void on_response(const core::BackEndEntry& entry, sim::SimTime started,
                   sim::SimTime delivered);
  /// Every refusal path funnels here: counts it, timestamps it, notifies
  /// the observer, frees the in-flight slot, and continues the loop.
  void finish_refused(sim::SimTime started);
  /// Dispatches backlogged injected arrivals freed by a completion.
  void pump_backlog();

  Backend* find_backend(std::uint32_t address) noexcept;
  [[nodiscard]] const Backend* find_backend(std::uint32_t address) const noexcept;

  sim::Engine& engine_;
  net::FlowNetwork& network_;
  net::NodeId client_;
  core::ServiceSwitch* switch_;
  std::optional<net::NodeId> switch_node_;
  SiegeConfig config_;
  std::vector<Backend> backends_;  // sorted by address
  std::optional<sim::StreamingStats> stats_;  // engaged iff record_samples
  Observer observer_;
  std::deque<sim::SimTime> backlog_;  // injected arrivals awaiting a slot
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t failed_over_ = 0;
  std::uint64_t in_flight_ = 0;
  bool external_drive_ = false;  // inject() was used; closed loop disabled
};

/// CPU cost of the switch's own forwarding work per request (accept + parse
/// + route + connect to the backend): two receives, two sends, and some
/// user-mode work — traced when the switch lives inside a virtual service
/// node, native when it runs on the host OS.
sim::SimTime switch_forward_cost(double cpu_ghz, vm::ExecMode mode) noexcept;

}  // namespace soda::workload
