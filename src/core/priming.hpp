// Priming coordination: the Master-side fan-out that turns a placement plan
// into live virtual service nodes. Creation, resize growth, and failure
// recovery all run through one PrimingCoordinator: it re-resolves the
// image's repository through the HUP directory at dispatch time (never a
// cached pointer — an unregistered repository fails cleanly instead of
// dangling), builds each node's PrimeCommand, joins on the last completion,
// and tears down partial work on rollback.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/daemon.hpp"
#include "core/placement.hpp"
#include "image/repository.hpp"
#include "sim/engine.hpp"
#include "util/result.hpp"

namespace soda::core {

/// A node's client-facing endpoint: the proxied public endpoint when the
/// daemon proxied it, otherwise the node's own address and service port.
[[nodiscard]] NodeDescriptor describe_node(const vm::VirtualServiceNode& vsn,
                                           int listen_port);

/// Everything one prime fan-out needs to know about the service — a
/// snapshot taken from the ServiceRecord at dispatch time.
struct PrimeSpec {
  std::string service_name;
  image::ImageLocation location;
  host::MachineConfig unit;            // M
  host::ResourceVector inflated_unit;  // planner-inflated reservation per unit
  int listen_port = 0;
  /// Partitioned services: the component table placements reference by name.
  const std::vector<image::ServiceComponent>* components = nullptr;
  bool customize_rootfs = true;
  AddressMode address_mode = AddressMode::kBridging;
};

struct ServiceRecord;

/// The spec every fan-out of `record` uses: creation, resize growth, and
/// recovery alike. `inflated_unit` is the planner's reservation per unit.
[[nodiscard]] PrimeSpec make_prime_spec(
    const ServiceRecord& record, const host::ResourceVector& inflated_unit);

class PrimingCoordinator {
 public:
  PrimingCoordinator(sim::Engine& engine,
                     const image::RepositoryDirectory& directory,
                     const std::vector<SodaDaemon*>& daemons);

  /// How a fan-out ended. `failed` is set when any node's priming failed
  /// (the successes still exist — the caller decides whether to roll back,
  /// prune, or keep them).
  struct Outcome {
    bool failed = false;
    std::string first_error;
  };

  /// Fires once per successfully primed node, in completion order.
  using NodeSink = std::function<void(vm::VirtualServiceNode& node,
                                      sim::SimTime now)>;
  /// Fires exactly once, after the last node completed (or immediately when
  /// the fan-out cannot start, e.g. the repository is no longer registered).
  using DoneSink = std::function<void(const Outcome& outcome, sim::SimTime now)>;

  /// The per-node Master -> Daemon command (shared by every priming path).
  [[nodiscard]] PrimeCommand make_command(
      const PrimeSpec& spec, const Placement& placement,
      const image::ImageRepository& repo) const;

  /// Primes every placement, joining on the last completion. Placements are
  /// taken by value: completion callbacks may mutate the caller's service
  /// record (and its placement list) synchronously.
  void prime(std::vector<Placement> placements, const PrimeSpec& spec,
             NodeSink on_node, DoneSink on_done);

  /// Tears the nodes down on their (still-alive) daemons and clears the
  /// list — creation rollback after a partial fan-out failure.
  void rollback(std::vector<NodeDescriptor>& nodes);

  [[nodiscard]] std::uint64_t fanouts() const noexcept { return fanouts_; }
  [[nodiscard]] std::uint64_t nodes_primed() const noexcept {
    return nodes_primed_;
  }

  /// Checkpoints the fan-out counters (in-flight fan-outs are closures and
  /// must be quiesced before a snapshot — the owner asserts that).
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("priming");
    ar.u64(fanouts_);
    ar.u64(nodes_primed_);
    ar.end_section();
  }

 private:
  sim::Engine& engine_;
  const image::RepositoryDirectory& directory_;
  const std::vector<SodaDaemon*>& daemons_;
  std::uint64_t fanouts_ = 0;
  std::uint64_t nodes_primed_ = 0;
};

}  // namespace soda::core
