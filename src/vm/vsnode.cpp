#include "vm/vsnode.hpp"

#include "util/contract.hpp"

namespace soda::vm {

VirtualServiceNode::VirtualServiceNode(NodeName name, std::string service_name,
                                       std::string host_name,
                                       host::SliceId slice,
                                       net::Ipv4Address address,
                                       net::NodeId net_node, int capacity_units,
                                       std::unique_ptr<UserModeLinux> uml)
    : name_(std::move(name)),
      service_name_(std::move(service_name)),
      host_name_(std::move(host_name)),
      slice_(slice),
      address_(address),
      net_node_(net_node),
      capacity_units_(capacity_units),
      uml_(std::move(uml)) {
  SODA_EXPECTS(capacity_units_ >= 1);
  SODA_EXPECTS(uml_ != nullptr);
}

VirtualServiceNode::VirtualServiceNode(NodeName name, std::string host_name)
    : name_(std::move(name)),
      host_name_(std::move(host_name)),
      capacity_units_(1),
      uml_(std::make_unique<UserModeLinux>()) {}

void VirtualServiceNode::set_capacity_units(int units) {
  SODA_EXPECTS(units >= 1);
  capacity_units_ = units;
}

}  // namespace soda::vm
