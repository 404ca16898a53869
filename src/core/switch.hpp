// The service switch (paper §3.4): created by the SODA Master for each
// service, colocated in one of its virtual service nodes, it accepts each
// client request and directs it to a backend according to a request-
// switching policy. The default is weighted round-robin with the capacities
// of the configuration file as weights; the ASP can replace it with a
// service-specific policy — and thanks to service isolation, an ill-behaved
// custom policy only hurts its own service.
//
// The request path is an allocation-free data plane (DESIGN.md §10): the
// control plane (add/remove/health/drain mutations) bumps an epoch counter,
// and route() serves from an epoch-cached dense snapshot of routable slot
// indices per component. Policies keep their state in dense per-slot arrays
// indexed by those snapshots, so a steady-state route() never touches the
// allocator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_file.hpp"
#include "net/address.hpp"
#include "sim/random.hpp"
#include "snapshot/format.hpp"
#include "util/result.hpp"

namespace soda::core {

/// Per-backend runtime state visible to policies.
struct BackEndState {
  BackEndEntry entry;
  std::uint64_t requests_routed = 0;
  std::uint64_t active_connections = 0;
  bool healthy = true;
  /// Removal requested while connections were still in flight: the backend
  /// receives no new requests and is erased when the last one completes.
  bool draining = false;
};

/// The dense, allocation-free view a policy picks from: the routable
/// (healthy, non-draining, component-matching) backends of one request, in
/// registration order. Position i of the view maps to backend slot
/// `slot(i)` — an index into ServiceSwitch::backends() — which is what
/// dense per-slot policy state is keyed by.
class RoutableView {
 public:
  RoutableView(const std::vector<BackEndState>& slots,
               const std::uint32_t* index, std::size_t count) noexcept
      : slots_(&slots), index_(index), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// The backend slot behind view position `i`.
  [[nodiscard]] std::uint32_t slot(std::size_t i) const noexcept {
    return index_[i];
  }
  /// The backend state at view position `i`.
  [[nodiscard]] const BackEndState& operator[](std::size_t i) const noexcept {
    return (*slots_)[index_[i]];
  }
  /// Total number of backend slots (for sizing dense per-slot arrays; slots
  /// outside this view exist but are not routable right now).
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_->size(); }

 private:
  const std::vector<BackEndState>* slots_;
  const std::uint32_t* index_;
  std::size_t count_;
};

/// A request-switching policy. pick() returns a position into `view`
/// (only routable entries are offered) or nullopt to refuse the request.
/// pick() runs on the per-request path and must not allocate; state lives
/// in dense arrays sized by on_backends_changed().
class SwitchPolicy {
 public:
  virtual ~SwitchPolicy() = default;
  virtual std::optional<std::size_t> pick(const RoutableView& view) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Notification that backend membership or capacities changed (resize);
  /// `slots` is the new backend array in registration order. Stateful
  /// policies re-seed their per-slot arrays here — deterministically, so
  /// serial and parallel replicas of an experiment stay bit-identical.
  /// Health flips do NOT reset policy state (matching the pre-dataplane
  /// behavior: a backend returning from a crash keeps its old weight).
  virtual void on_backends_changed(const std::vector<BackEndState>& slots) {
    (void)slots;
  }
  /// Feedback: a request served by backend slot `slot` (entry `backend`)
  /// completed in `seconds`. Response-time-aware policies learn from this;
  /// others ignore it.
  virtual void on_response_time(std::uint32_t slot, const BackEndEntry& backend,
                                double seconds) {
    (void)slot;
    (void)backend;
    (void)seconds;
  }

  /// Snapshot walk: one "policy_state" section, so the stream stays framed
  /// even across policy versions. Stateful policies (smooth WRR current
  /// weights, the random policy's RNG stream, EWMA estimates) fill it so a
  /// restored switch keeps routing bit-identically; stateless ones leave it
  /// empty.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("policy_state");
    state(ar);
    ar.end_section();
  }

 protected:
  /// The policy's own fields; both overloads forward to one field list.
  virtual void state(snapshot::Writer&) {}
  virtual void state(snapshot::Reader&) {}
};

/// Default policy: smooth weighted round-robin over capacities — a backend
/// with capacity 2 receives twice the requests of one with capacity 1, with
/// the interleaving spread evenly (nginx-style smooth WRR).
std::unique_ptr<SwitchPolicy> make_weighted_round_robin();

/// Capacity-blind round-robin (ablation baseline).
std::unique_ptr<SwitchPolicy> make_plain_round_robin();

/// Uniform random choice (ablation baseline).
std::unique_ptr<SwitchPolicy> make_random_policy(std::uint64_t seed);

/// Pick the healthy backend with the fewest active connections, capacity-
/// weighted (ties by order).
std::unique_ptr<SwitchPolicy> make_least_connections();

/// Adaptive policy: tracks an exponentially weighted moving average of each
/// backend's response time (smoothing factor `alpha`) and routes to the
/// backend with the lowest capacity-discounted estimate; backends with no
/// samples yet are explored first.
std::unique_ptr<SwitchPolicy> make_fastest_response(double alpha = 0.2);

/// Name-keyed policy registry shared by the scenario DSL's `switch-policy`
/// verb and the chaos fuzzer: "weighted-round-robin" | "round-robin" |
/// "random" | "least-connections" | "fastest-response". `seed` feeds the
/// random policy only. Errors name the unknown policy.
Result<std::unique_ptr<SwitchPolicy>> make_switch_policy_by_name(
    std::string_view name, std::uint64_t seed = 0x50DA);

/// Wraps an ASP-provided function as a policy (the "service-specific
/// policy" replacement hook). The function receives a materialized copy of
/// the routable backends, so existing ASP policies keep working unchanged;
/// the copy is refilled from a reused buffer, not reallocated per request.
std::unique_ptr<SwitchPolicy> make_custom_policy(
    std::string name,
    std::function<std::optional<std::size_t>(const std::vector<BackEndState>&)> fn);

/// The switch itself. Owns the configuration file and the policy.
class ServiceSwitch {
 public:
  /// `listen` is where clients connect (the address of the node the switch
  /// is colocated in).
  ServiceSwitch(std::string service_name, net::Ipv4Address listen, int port);

  /// Master-side maintenance of the configuration file. Backends are keyed
  /// by (address, port): proxied components of one partitioned service may
  /// share their host's public address on different ports.
  Status add_backend(const BackEndEntry& entry);
  /// Removes (address, port). When requests are still in flight the backend
  /// drains instead: it stops receiving new requests immediately and is
  /// erased once its last active connection completes.
  Status remove_backend(net::Ipv4Address address, int port);
  Status set_backend_capacity(net::Ipv4Address address, int port, int capacity);
  /// Replaces the whole file (resize bulk update).
  void load_config(const ServiceConfigFile& file);

  /// Marks a backend unhealthy/healthy (failure handling; crashed guests
  /// stop receiving requests).
  Status set_backend_health(net::Ipv4Address address, int port, bool healthy);

  /// ASP hook: replaces the request-switching policy.
  void set_policy(std::unique_ptr<SwitchPolicy> policy);

  /// Failure recovery: the node the switch was colocated in died with its
  /// host; the Master re-homes the switch into another live node and clients
  /// reconnect there.
  void rehome(net::Ipv4Address listen, int port);

  /// Routes one request: returns the chosen backend entry, or an error when
  /// no healthy backend exists / the policy refuses. `component` restricts
  /// the choice to backends of that component; empty means untagged
  /// (replicated) backends. Allocation-free in steady state: the routable
  /// set is a cached snapshot rebuilt only after a control-plane mutation.
  Result<BackEndEntry> route(std::string_view component = "");

  /// Partitioned services: registers a target-prefix -> component rule
  /// (longest prefix wins; among equal-length prefixes the last registered
  /// rule wins).
  void set_component_route(std::string prefix, std::string component);

  /// Resolves the component for a request target via the registered
  /// prefixes, then routes within it. With no rules registered this is
  /// plain route().
  Result<BackEndEntry> route_target(std::string_view target);

  /// The component a target resolves to (empty if no rule matches). The
  /// returned view points into the registered rule and stays valid until
  /// the next set_component_route().
  [[nodiscard]] std::string_view component_for(std::string_view target) const;

  /// Connection lifecycle for least-connections-style policies: a request
  /// routed to (backend, port) finished (no-op for unknown backends).
  void on_request_complete(net::Ipv4Address backend, int port);

  /// Feedback for response-time-aware policies: the request sent to
  /// (backend, port) completed in `seconds` (no-op for unknown backends).
  void report_response_time(net::Ipv4Address backend, int port, double seconds);

  /// Data-path failure feedback: the routed backend turned out dead before
  /// it could serve. Marks it unhealthy (the health monitor may later flip
  /// it back) and releases the routed connection. Unknown backends are a
  /// no-op.
  void report_backend_failure(net::Ipv4Address backend, int port);

  /// One-shot failover: reports `dead` as failed, then routes the request
  /// again among the remaining healthy backends of `component`. Counted in
  /// failovers().
  Result<BackEndEntry> route_failover(const BackEndEntry& dead,
                                      std::string_view component = "");

  [[nodiscard]] const std::string& service_name() const noexcept {
    return service_name_;
  }
  [[nodiscard]] net::Ipv4Address listen_address() const noexcept { return listen_; }
  [[nodiscard]] int listen_port() const noexcept { return port_; }
  [[nodiscard]] const std::vector<BackEndState>& backends() const noexcept {
    return backends_;
  }
  [[nodiscard]] const SwitchPolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] std::uint64_t requests_routed() const noexcept { return routed_; }
  [[nodiscard]] std::uint64_t requests_refused() const noexcept { return refused_; }
  /// Requests re-routed after their first backend turned out dead.
  [[nodiscard]] std::uint64_t failovers() const noexcept { return failovers_; }

  /// Bumped on every mutation that can change the routable set (membership,
  /// health, drain, capacity). route() rebuilds its snapshots only when
  /// this moved — exposed so tests and benches can assert the steady state
  /// really is steady.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Renders the current configuration file (Table 3 format).
  [[nodiscard]] std::string config_text() const;

  /// Requests routed to (backend, port) so far (0 if unknown).
  [[nodiscard]] std::uint64_t routed_to(net::Ipv4Address backend,
                                        int port) const;

  /// Checkpoints backends, prefix routes, counters, the epoch, and the
  /// policy (by registry name + its per-slot state). Custom (ASP-function)
  /// policies cannot be re-created from a name and fail the load with a
  /// clear error. The routable snapshots are cache: restore marks them
  /// stale and the first route() rebuilds them deterministically.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  /// One component's cached routable set: dense slot indices into
  /// backends_, rebuilt lazily when the epoch moves.
  struct ComponentSnapshot {
    std::string component;
    std::vector<std::uint32_t> slots;
  };

  /// Marks the routable set dirty (cheap; rebuild happens on next route).
  void touch() noexcept { ++epoch_; }
  /// Membership/capacity change: dirty + deterministic policy re-seed.
  void on_membership_changed();
  void rebuild_snapshots();
  /// The snapshot for `component`, rebuilding all snapshots if stale;
  /// nullptr when the component has no routable backends.
  const ComponentSnapshot* routable_snapshot(std::string_view component);

  BackEndState* find(net::Ipv4Address address, int port);

  std::string service_name_;
  net::Ipv4Address listen_;
  int port_;
  std::vector<BackEndState> backends_;
  struct PrefixRoute {
    std::string prefix;
    std::string component;
  };
  std::vector<PrefixRoute> routes_;  // registration order
  /// Indices into routes_, sorted by (prefix length desc, registration
  /// index desc): the first match during a scan is the winning rule.
  std::vector<std::uint32_t> route_order_;
  std::unique_ptr<SwitchPolicy> policy_;
  std::vector<ComponentSnapshot> snapshots_;
  std::uint64_t epoch_ = 1;
  std::uint64_t snapshot_epoch_ = 0;  // != epoch_ => snapshots are stale
  std::uint64_t routed_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace soda::core
