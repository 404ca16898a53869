#include "core/priming.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/service_table.hpp"
#include "util/contract.hpp"
#include "vm/vsnode.hpp"

namespace soda::core {

namespace {

/// The per-node Master -> Daemon command, read off the record at dispatch.
PrimeCommand make_command(const ServiceRecord& record,
                          const Placement& placement,
                          const host::ResourceVector& inflated_unit) {
  PrimeCommand command;
  command.node_name = placement.node_name;
  command.service_name = record.service_name;
  command.location = record.image_location;
  command.unit = record.requirement.m;
  command.capacity_units = placement.units;
  command.reserve = inflated_unit.scaled(placement.units);
  command.customize_rootfs = record.customize_rootfs;
  command.address_mode = record.address_mode;
  command.listen_port = record.listen_port;
  if (!placement.component.empty()) {
    for (const auto& component : record.components) {
      if (component.name == placement.component) command.component = component;
    }
  }
  return command;
}

}  // namespace

NodeDescriptor describe_node(const vm::VirtualServiceNode& vsn,
                             int listen_port) {
  NodeDescriptor descriptor;
  descriptor.node_name = vsn.name().value;
  descriptor.host_name = vsn.host_name();
  descriptor.capacity_units = vsn.capacity_units();
  descriptor.component = vsn.component();
  if (vsn.public_endpoint()) {
    descriptor.address = vsn.public_endpoint()->address;
    descriptor.port = vsn.public_endpoint()->port;
  } else {
    descriptor.address = vsn.address();
    descriptor.port = vsn.service_port() > 0 ? vsn.service_port() : listen_port;
  }
  return descriptor;
}

struct PrimingCoordinator::Batch {
  std::string service;
  std::uint64_t incarnation = 0;
  std::vector<Placement> placements;
  std::vector<std::string> unbooted;  // placements whose priming failed
  std::size_t pending = 0;
  Status primed;
  BatchDone done;
};

PrimingCoordinator::PrimingCoordinator(
    sim::Engine& engine, const image::RepositoryDirectory& directory,
    ServiceTable& services)
    : engine_(engine), directory_(directory), services_(services) {}

void PrimingCoordinator::add_nodes(ServiceRecord& record,
                                   std::vector<Placement> plan,
                                   const host::ResourceVector& inflated_unit,
                                   BatchDone done) {
  SODA_EXPECTS(done != nullptr);
  SODA_EXPECTS(!plan.empty());
  ++fanouts_;
  for (Placement& placement : plan) {
    placement.node_name =
        record.service_name + "/" + std::to_string(record.next_ordinal++);
    record.placements.push_back(placement);
  }
  auto batch = std::make_shared<Batch>();
  batch->service = record.service_name;
  batch->incarnation = record.incarnation;
  batch->placements = std::move(plan);
  batch->pending = batch->placements.size();
  batch->done = std::move(done);
  // Re-resolve the repository by name for every batch: creation validated
  // it moments ago, but resize and recovery may run long after the ASP
  // withdrew it — then every node fails cleanly here.
  const bool registered =
      directory_.find(record.image_location.repository) != nullptr;
  // A node can fail at once, so the last call below may end the batch
  // (creation's rollback then erases `record`) before the loop does.
  for (std::size_t i = 0; i < batch->placements.size(); ++i) {
    const Placement& placement = batch->placements[i];
    if (!registered) {
      const std::string& name = record.image_location.repository;
      on_primed(*batch, i, Error{"unknown repository: " + name}, engine_.now());
      continue;
    }
    placement.daemon->prime_node(
        make_command(record, placement, inflated_unit),
        [this, batch, i](const Result<vm::VirtualServiceNode*>& node,
                         sim::SimTime now) {
          on_primed(*batch, i, node, now);
        });
  }
}

void PrimingCoordinator::on_primed(Batch& batch, std::size_t index,
                                   const Result<vm::VirtualServiceNode*>& node,
                                   sim::SimTime now) {
  const Placement& placement = batch.placements[index];
  ServiceRecord* record = services_.find(batch.service);
  if (record != nullptr && record->incarnation != batch.incarnation) {
    record = nullptr;  // torn down and created again since
  }
  if (!node.ok()) {
    if (batch.primed.ok()) batch.primed = Error{node.error().message};
    batch.unbooted.push_back(placement.node_name);
  } else {
    ++nodes_primed_;
    const bool held =
        record != nullptr &&
        std::any_of(record->placements.begin(), record->placements.end(),
                    [&](const Placement& p) {
                      return p.node_name == placement.node_name;
                    });
    if (held) {
      const NodeDescriptor descriptor =
          describe_node(*node.value(), record->listen_port);
      if (record->service_switch) {
        must(record->service_switch->add_backend(
            BackEndEntry{descriptor.address, descriptor.port,
                         descriptor.capacity_units, descriptor.component}));
      }
      record->nodes.push_back(descriptor);
    } else {
      // The service was torn down (or lost this placement with a host
      // declared down) while the node primed: it serves no one, so it
      // must not keep its slice.
      must(placement.daemon->teardown_node(placement.node_name));
    }
  }
  if (--batch.pending > 0) return;
  // Drop the placements that never booted — this batch's only: a
  // concurrent recovery batch may still be priming its own.
  if (record != nullptr) {
    std::erase_if(record->placements, [&](const Placement& p) {
      return std::find(batch.unbooted.begin(), batch.unbooted.end(),
                       p.node_name) != batch.unbooted.end();
    });
  }
  batch.done(record, batch.primed, now);
}

}  // namespace soda::core
