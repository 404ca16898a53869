// The node batch: the one way virtual service nodes join a service.
// Creation, resize growth, and failure recovery all call
// PrimingCoordinator::add_nodes. It names the batch's placements, appends
// them to the service record, re-resolves the image's repository by name at
// dispatch (an unregistered repository fails cleanly instead of dangling),
// primes every node, and attaches each booted node to the record (and to
// its switch once one exists). A node booted for a record that no longer
// holds its placement — torn down, or torn down and re-created under the
// same name — is torn down on its daemon and joins nothing. Each caller
// ends its batch its own way, then settles a standing service through
// RecoveryManager::settle.
#pragma once

#include <cstdint>
#include <functional>
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

struct ServiceRecord;
class ServiceTable;

class PrimingCoordinator {
 public:
  PrimingCoordinator(sim::Engine& engine,
                     const image::RepositoryDirectory& directory,
                     ServiceTable& services);

  /// Fires exactly once, after the batch's last node completed (at once
  /// when the repository is no longer registered). `record` is the service
  /// the batch primed for, or null when that service was torn down
  /// meanwhile (a same-name service created since is a different record).
  /// `primed` is ok when every node booted, else the first node failure;
  /// the nodes that did boot stay attached, and the placements that never
  /// booted are gone.
  using BatchDone = std::function<void(ServiceRecord* record,
                                       const Status& primed,
                                       sim::SimTime now)>;

  /// Adds `plan`'s placements to `record` as one node batch; each node
  /// reserves `inflated_unit` per capacity unit. `done` may fire before
  /// this returns.
  void add_nodes(ServiceRecord& record, std::vector<Placement> plan,
                 const host::ResourceVector& inflated_unit, BatchDone done);

  /// Checkpoints the batch counters (in-flight batches are closures and
  /// must be quiesced before a snapshot — the owner asserts that).
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("priming");
    ar.u64(fanouts_);
    ar.u64(nodes_primed_);
    ar.end_section();
  }

 private:
  struct Batch;
  /// Joins one node's priming into `batch`; the last one ends the batch.
  void on_primed(Batch& batch, std::size_t index,
                 const Result<vm::VirtualServiceNode*>& node,
                 sim::SimTime now);

  sim::Engine& engine_;
  const image::RepositoryDirectory& directory_;
  ServiceTable& services_;
  std::uint64_t fanouts_ = 0;
  std::uint64_t nodes_primed_ = 0;
};

}  // namespace soda::core
