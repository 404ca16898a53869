// The host-OS bridging module (paper §3.3): a transparent bridge that
// connects every virtual service node on a HUP host to the LAN. The SODA
// Daemon registers each new 'UML-IP' mapping so frames are forwarded to the
// right virtual machine port.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "net/address.hpp"
#include "net/flow_network.hpp"
#include "util/result.hpp"

namespace soda::net {

/// One HUP host's transparent bridge. Ports are the flow-network nodes of the
/// virtual machines attached to this host; the uplink port faces the LAN.
class Bridge {
 public:
  /// `host_name` is used in error messages; `uplink` is the LAN-facing node.
  Bridge(std::string host_name, NodeId uplink);

  /// Registers a new UML-IP mapping (called by the SODA Daemon during
  /// bootstrapping). Fails if the address is already mapped.
  Status attach(Ipv4Address address, NodeId vm_port);

  /// Removes a mapping (service tear-down). Fails if not mapped.
  Status detach(Ipv4Address address);

  /// The VM port for `address`, or nullopt -> frame goes to the uplink.
  [[nodiscard]] std::optional<NodeId> lookup(Ipv4Address address) const;

  /// Destination port for a frame to `address`: the mapped VM port, or the
  /// uplink when the address is not local. Counts the forwarding decision.
  NodeId forward(Ipv4Address address);

  [[nodiscard]] NodeId uplink() const noexcept { return uplink_; }
  [[nodiscard]] std::size_t attached_count() const noexcept { return table_.size(); }
  [[nodiscard]] std::uint64_t frames_to_vms() const noexcept { return frames_to_vms_; }
  [[nodiscard]] std::uint64_t frames_to_uplink() const noexcept {
    return frames_to_uplink_;
  }
  [[nodiscard]] const std::string& host_name() const noexcept { return host_name_; }

  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("bridge");
    ar.seq(table_, [&ar](auto& entry) {
      ar.walk(entry.first);
      ar.u64(entry.second.value);
    });
    ar.u64(frames_to_vms_);
    ar.u64(frames_to_uplink_);
    ar.end_section();
  }

 private:
  std::string host_name_;
  NodeId uplink_;
  std::map<Ipv4Address, NodeId> table_;
  std::uint64_t frames_to_vms_ = 0;
  std::uint64_t frames_to_uplink_ = 0;
};

}  // namespace soda::net
