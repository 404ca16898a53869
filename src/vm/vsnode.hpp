// A virtual service node: the unit SODA allocates to a service — a UML
// virtual machine backed by a slice of a HUP host, with its own IP address
// and a relative capacity expressed in machine instances M (paper §2.1,
// §3.2). Created by the SODA Daemon during service priming.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "host/host.hpp"
#include "net/address.hpp"
#include "net/flow_network.hpp"
#include "vm/uml.hpp"

namespace soda::vm {

/// Identifies a virtual service node HUP-wide.
struct NodeName {
  std::string value;
  friend bool operator==(const NodeName&, const NodeName&) = default;
};

/// How clients reach a proxied node: a port on the carrying host's public
/// address (paper §3.3 footnote 3). Bridged nodes have none — their own IP
/// is directly reachable.
struct PublicEndpoint {
  net::Ipv4Address address;
  int port = 0;

  friend bool operator==(const PublicEndpoint&, const PublicEndpoint&) = default;
};

/// A bootable, addressable slice of a HUP host running one service replica.
class VirtualServiceNode {
 public:
  VirtualServiceNode(NodeName name, std::string service_name,
                     std::string host_name, host::SliceId slice,
                     net::Ipv4Address address, net::NodeId net_node,
                     int capacity_units, std::unique_ptr<UserModeLinux> uml);
  /// A blank node on `host_name` for a snapshot restore to fill through
  /// serialize().
  VirtualServiceNode(NodeName name, std::string host_name);

  [[nodiscard]] const NodeName& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& service_name() const noexcept {
    return service_name_;
  }
  [[nodiscard]] const std::string& host_name() const noexcept { return host_name_; }
  [[nodiscard]] host::SliceId slice() const noexcept { return slice_; }
  [[nodiscard]] net::Ipv4Address address() const noexcept { return address_; }
  [[nodiscard]] net::NodeId net_node() const noexcept { return net_node_; }

  /// Relative capacity: how many machine instances M this node provides.
  /// The switch's weighted round-robin uses this as the weight (Table 3).
  [[nodiscard]] int capacity_units() const noexcept { return capacity_units_; }
  void set_capacity_units(int units);

  /// The guest port the application listens on (set during priming).
  void set_service_port(int port) { service_port_ = port; }
  [[nodiscard]] int service_port() const noexcept { return service_port_; }

  /// The component this node runs (partitioned services; empty otherwise).
  void set_component(std::string component) { component_ = std::move(component); }
  [[nodiscard]] const std::string& component() const noexcept { return component_; }

  /// Set when the node is proxied rather than bridged.
  void set_public_endpoint(PublicEndpoint endpoint) { public_ = endpoint; }
  [[nodiscard]] const std::optional<PublicEndpoint>& public_endpoint()
      const noexcept {
    return public_;
  }
  [[nodiscard]] bool proxied() const noexcept { return public_.has_value(); }

  [[nodiscard]] UserModeLinux& uml() noexcept { return *uml_; }
  [[nodiscard]] const UserModeLinux& uml() const noexcept { return *uml_; }

  /// Shorthand: is the guest up and serving?
  [[nodiscard]] bool running() const noexcept {
    return uml_->state() == VmState::kRunning;
  }

  /// Snapshot walk over everything but the name and host, which the owning
  /// daemon keeps.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.str(service_name_);
    ar.u64(slice_.value);
    ar.walk(address_);
    ar.u64(net_node_.value);
    ar.i64(capacity_units_);
    ar.check(capacity_units_ >= 1, "node capacity out of range");
    ar.i64(service_port_);
    ar.str(component_);
    bool proxied = public_.has_value();
    ar.boolean(proxied);
    if constexpr (Ar::kLoading) {
      public_.reset();
      if (proxied) public_.emplace();
    }
    if (proxied) {
      ar.walk(public_->address);
      ar.i64(public_->port);
    }
    ar.walk(*uml_);
  }

 private:
  NodeName name_;
  std::string service_name_;
  std::string host_name_;
  host::SliceId slice_;
  net::Ipv4Address address_;
  net::NodeId net_node_;
  int capacity_units_;
  int service_port_ = 0;
  std::string component_;
  std::optional<PublicEndpoint> public_;
  std::unique_ptr<UserModeLinux> uml_;
};

}  // namespace soda::vm
