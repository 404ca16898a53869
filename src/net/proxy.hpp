// Proxying as the alternative to bridging (paper §3.3 footnote 3): when
// public IP addresses are scarce, a virtual service node keeps a reserved
// (private) address and becomes reachable through a port on the HUP host's
// public address. The ProxyTable is the host-OS forwarding table the SODA
// Daemon programs: public port -> (private address, private port).
//
// The table is a dense per-port slot array over the managed range, sized
// once at construction: the per-connection forward_lookup() is a bounds
// check plus an index — no tree walk, no allocation — matching the
// allocation-free switch data plane it sits in front of.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "util/result.hpp"

namespace soda::net {

/// A private endpoint behind the proxy.
struct ProxyTarget {
  Ipv4Address private_address;
  int private_port = 0;

  friend bool operator==(const ProxyTarget&, const ProxyTarget&) = default;
};

/// One HUP host's port-forwarding table. Public ports are allocated from
/// [first_port, first_port + port_count); explicit ports may also be
/// requested.
class ProxyTable {
 public:
  /// `public_address` is the host address clients connect to.
  ProxyTable(std::string host_name, Ipv4Address public_address,
             int first_port = 20000, int port_count = 1000);

  [[nodiscard]] Ipv4Address public_address() const noexcept { return public_; }
  [[nodiscard]] const std::string& host_name() const noexcept { return host_name_; }

  /// Installs a forwarding entry on an automatically allocated public port;
  /// returns that port. Fails when the port range is exhausted.
  Result<int> forward(ProxyTarget target);

  /// Installs a forwarding entry on a specific public port; fails when the
  /// port is outside the range or already taken.
  Status forward_on(int public_port, ProxyTarget target);

  /// Removes the entry for `public_port` immediately, in-flight connections
  /// or not; false when absent.
  bool remove(int public_port);

  /// Graceful removal: the entry stops accepting new connections now and is
  /// erased when its last in-flight connection closes (immediately when
  /// idle). False when absent.
  bool begin_drain(int public_port);

  /// A connection previously handed out by forward_lookup closed. Erases
  /// the entry when it is draining and this was its last connection.
  void connection_closed(int public_port);

  /// The private endpoint behind `public_port`, if mapped and not draining.
  /// Counts the lookup as a forwarded connection when found (draining
  /// entries count as misses — the port is closing to new traffic).
  std::optional<ProxyTarget> forward_lookup(int public_port);

  /// Read-only lookup (no counter; draining entries still visible).
  [[nodiscard]] std::optional<ProxyTarget> peek(int public_port) const;
  [[nodiscard]] bool draining(int public_port) const;

  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_; }
  [[nodiscard]] std::uint64_t connections_forwarded() const noexcept {
    return forwarded_;
  }
  [[nodiscard]] std::uint64_t lookups_missed() const noexcept { return missed_; }

  /// Snapshot walk over the forwarding slots, the next-port cursor, and the
  /// counters. A load needs a table over the same port range.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  struct Entry {
    ProxyTarget target;
    std::uint64_t active = 0;  // connections handed out and not yet closed
    bool in_use = false;
    bool draining = false;
  };

  /// The slot for `public_port`, or nullptr when outside the managed range.
  [[nodiscard]] Entry* slot(int public_port) noexcept;
  [[nodiscard]] const Entry* slot(int public_port) const noexcept;
  void erase(Entry& entry) noexcept;

  std::string host_name_;
  Ipv4Address public_;
  int first_port_;
  int port_count_;
  int next_port_;
  std::vector<Entry> slots_;  // dense, index = public_port - first_port_
  std::size_t entries_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t missed_ = 0;
};

}  // namespace soda::net
