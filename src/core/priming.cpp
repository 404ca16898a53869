#include "core/priming.hpp"

#include <memory>
#include <utility>

#include "core/service_table.hpp"
#include "util/contract.hpp"
#include "vm/vsnode.hpp"

namespace soda::core {

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

PrimeSpec make_prime_spec(const ServiceRecord& record,
                          const host::ResourceVector& inflated_unit) {
  PrimeSpec spec;
  spec.service_name = record.service_name;
  spec.location = record.image_location;
  spec.unit = record.requirement.m;
  spec.inflated_unit = inflated_unit;
  spec.listen_port = record.listen_port;
  spec.components = &record.components;
  spec.customize_rootfs = record.customize_rootfs;
  spec.address_mode = record.address_mode;
  return spec;
}

PrimingCoordinator::PrimingCoordinator(
    sim::Engine& engine, const image::RepositoryDirectory& directory,
    const std::vector<SodaDaemon*>& daemons)
    : engine_(engine), directory_(directory), daemons_(daemons) {}

PrimeCommand PrimingCoordinator::make_command(
    const PrimeSpec& spec, const Placement& placement,
    const image::ImageRepository& repo) const {
  PrimeCommand command;
  command.node_name = placement.node_name;
  command.service_name = spec.service_name;
  command.repository = &repo;
  command.location = spec.location;
  command.unit = spec.unit;
  command.capacity_units = placement.units;
  command.reserve = spec.inflated_unit.scaled(placement.units);
  command.customize_rootfs = spec.customize_rootfs;
  command.address_mode = spec.address_mode;
  command.listen_port = spec.listen_port;
  if (!placement.component.empty() && spec.components != nullptr) {
    for (const auto& component : *spec.components) {
      if (component.name == placement.component) command.component = component;
    }
  }
  return command;
}

void PrimingCoordinator::prime(std::vector<Placement> placements,
                               const PrimeSpec& spec, NodeSink on_node,
                               DoneSink on_done) {
  SODA_EXPECTS(on_done != nullptr);
  ++fanouts_;
  // Re-resolve the repository by name for every fan-out: creation validated
  // it moments ago, but resize and recovery may run long after the ASP
  // withdrew it — then the whole fan-out fails cleanly here.
  const image::ImageRepository* repo =
      directory_.find(spec.location.repository);
  if (repo == nullptr) {
    on_done(Outcome{true, "unknown repository: " + spec.location.repository},
            engine_.now());
    return;
  }
  SODA_EXPECTS(!placements.empty());

  struct Join {
    std::size_t pending = 0;
    Outcome outcome;
  };
  auto join = std::make_shared<Join>();
  join->pending = placements.size();
  for (const Placement& placement : placements) {
    placement.daemon->prime_node(
        make_command(spec, placement, *repo),
        [this, join, on_node, on_done](Result<vm::VirtualServiceNode*> node,
                                       sim::SimTime now) {
          if (node.ok()) {
            ++nodes_primed_;
            if (on_node) on_node(*node.value(), now);
          } else if (!join->outcome.failed) {
            join->outcome.failed = true;
            join->outcome.first_error = node.error().message;
          }
          if (--join->pending > 0) return;
          on_done(join->outcome, now);
        });
  }
}

void PrimingCoordinator::rollback(std::vector<NodeDescriptor>& nodes) {
  for (const NodeDescriptor& node : nodes) {
    for (SodaDaemon* daemon : daemons_) {
      // A crashed host already released everything it carried; there is
      // nothing left to tear down there.
      if (daemon->host_name() == node.host_name && daemon->alive()) {
        must(daemon->teardown_node(node.node_name));
      }
    }
  }
  nodes.clear();
}

}  // namespace soda::core
