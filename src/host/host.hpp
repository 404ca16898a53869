// A HUP host: one physical server of the hosting utility platform. It owns
// the machine's resource inventory and hands out 'slices' — the reservations
// that back virtual service nodes (paper §2.1). The host also carries the
// performance characteristics the boot and syscall models need (clock rate,
// RAM, disk and RAM-disk streaming rates) and its LAN attachment point.
//
// Fleet-scale data layout (DESIGN.md §11): slices live in slot-based
// parallel arrays with a free list, and a SliceId encodes (slot,
// generation) so release/resize/find are O(1) with stale handles rejected
// by generation mismatch — never aliased to a reused slot. The reserved
// aggregate is maintained incrementally, making available() O(1), and each
// change to it is reported to a HostChanges list, so a placement planner
// re-ranks only the hosts that changed instead of re-reading 10k hosts per
// decision.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host/resources.hpp"
#include "net/address.hpp"
#include "net/bridge.hpp"
#include "net/flow_network.hpp"
#include "net/proxy.hpp"
#include "util/result.hpp"

namespace soda::host {

/// Static description of a HUP host's hardware.
struct HostSpec {
  std::string name;
  double cpu_ghz = 1.0;
  std::int64_t ram_mb = 512;
  std::int64_t disk_gb = 40;
  double nic_mbps = 100;
  /// Sequential read rate of the local disk (MB/s) — rootfs mount cost.
  double disk_mb_s = 30;
  /// RAM-disk streaming rate (MB/s).
  double ramdisk_mb_s = 180;

  /// Full machine resources as a vector (one core assumed, as in the paper's
  /// testbed).
  [[nodiscard]] ResourceVector capacity() const;

  /// The paper's testbed machines (§4): a Dell PowerEdge server and a Dell
  /// desktop PC.
  static HostSpec seattle();  // 2.6 GHz Xeon, 2 GB RAM
  static HostSpec tacoma();   // 1.8 GHz P4, 768 MB RAM

  template <class Ar>
  void serialize(Ar& ar) {
    ar.str(name);
    ar.f64(cpu_ghz);
    ar.i64(ram_mb);
    ar.i64(disk_gb);
    ar.f64(nic_mbps);
    ar.f64(disk_mb_s);
    ar.f64(ramdisk_mb_s);
  }
};

/// Handle to a reservation made on a HupHost. Encodes (slot, generation):
/// a handle to a released slice stays invalid even after its slot is
/// reused, so teardown races cannot free someone else's reservation.
struct SliceId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend constexpr auto operator<=>(SliceId, SliceId) noexcept = default;
};

/// A reserved slice of a host (the facade view; storage is slot-based
/// parallel arrays inside HupHost).
struct Slice {
  SliceId id;
  std::string service_name;
  ResourceVector resources;
};

/// The hosts whose reserved aggregate, and so available(), changed since the
/// reader last drained the list: reserve, release, resize and a snapshot
/// load each list the host's key, once until the next drain. A placement
/// planner re-ranks only the listed hosts. The reader and its hosts share
/// the list, so it outlives whichever of them goes first.
class HostChanges {
 public:
  /// Makes room for keys below `keys`: a later mark() never allocates.
  void expect_keys(std::size_t keys);
  /// Lists `key` unless it is listed already.
  void mark(std::uint32_t key);
  /// Calls `visit(key)` for every listed key, in listing order, and empties
  /// the list.
  template <typename Visit>
  void drain(Visit&& visit) {
    for (const std::uint32_t key : listed_) {
      pending_[key] = 0;
      visit(key);
    }
    listed_.clear();
  }

 private:
  std::vector<std::uint32_t> listed_;
  std::vector<std::uint8_t> pending_;  // by key: 1 while listed
};

/// One server of the HUP. Thread-unsafe by design: all access happens on the
/// simulation thread.
class HupHost {
 public:
  /// `lan_node` is the host's attachment in the flow network; `ip_pool` is
  /// the disjoint address range this host's daemon assigns to its nodes.
  HupHost(HostSpec spec, net::NodeId lan_node, net::IpPool ip_pool);

  [[nodiscard]] const HostSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] net::NodeId lan_node() const noexcept { return lan_node_; }

  /// All three are O(1): capacity is cached at construction and reserved is
  /// maintained incrementally across reserve/release/resize.
  [[nodiscard]] const ResourceVector& capacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] const ResourceVector& reserved() const noexcept {
    return reserved_;
  }
  [[nodiscard]] ResourceVector available() const {
    return capacity_ - reserved_;
  }

  /// Reserves a slice for `service_name`; fails when `resources` exceed what
  /// is available.
  Result<SliceId> reserve(const std::string& service_name,
                          const ResourceVector& resources);

  /// Releases a previously reserved slice. O(1): the slot returns to the
  /// free list and its generation advances, invalidating stale handles.
  Status release(SliceId id);

  /// Grows/shrinks an existing slice to `resources` in place; fails when the
  /// growth does not fit.
  Status resize(SliceId id, const ResourceVector& resources);

  [[nodiscard]] std::optional<Slice> find_slice(SliceId id) const;
  /// Live slices in slot order (materialized facade view).
  [[nodiscard]] std::vector<Slice> slices() const;
  [[nodiscard]] std::size_t slice_count() const noexcept { return live_count_; }

  /// Lists this host in `changes` under `key` after every later change to
  /// reserved(). Once per host: the planner that ranks it calls this when
  /// the host registers.
  void report_changes(std::shared_ptr<HostChanges> changes, std::uint32_t key);

  /// Address pool for this host's virtual service nodes.
  [[nodiscard]] net::IpPool& ip_pool() noexcept { return ip_pool_; }
  [[nodiscard]] const net::IpPool& ip_pool() const noexcept { return ip_pool_; }

  /// The host-OS bridging module (created on first use).
  [[nodiscard]] net::Bridge& bridge();

  /// The host's publicly reachable address (proxy mode): defaults to the
  /// pool base + 100 by convention; override before first proxy() use.
  void set_public_address(net::Ipv4Address address);
  [[nodiscard]] net::Ipv4Address public_address() const;

  /// The host-OS port-forwarding table for proxied virtual service nodes
  /// (created on first use; paper §3.3 footnote 3).
  [[nodiscard]] net::ProxyTable& proxy();

  /// Checkpoints the slice store (slots, generations, free list — handle
  /// values must survive restore bit-for-bit), the reserved aggregate (saved
  /// rather than recomputed: it accumulates += / -= rounding history), the
  /// IP pool, and the lazily created bridge / proxy / public address. The
  /// host must be constructed with the same spec and lan_node first.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  /// Slot behind a valid handle, or npos when the handle is stale/unknown.
  [[nodiscard]] std::size_t slot_of(SliceId id) const noexcept;
  /// Reports a change of reserved_ to the watching planner, if any.
  void changed();

  HostSpec spec_;
  net::NodeId lan_node_;
  net::IpPool ip_pool_;
  ResourceVector capacity_;
  ResourceVector reserved_;

  // Slot-based slice store: parallel arrays indexed by slot; released slots
  // recycle through free_slots_ with their generation bumped.
  std::vector<ResourceVector> slice_resources_;
  std::vector<std::string> slice_services_;
  std::vector<std::uint32_t> slice_generations_;
  std::vector<std::uint8_t> slice_live_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;

  std::shared_ptr<HostChanges> changes_;
  std::uint32_t changes_key_ = 0;

  std::unique_ptr<net::Bridge> bridge_;
  std::optional<net::Ipv4Address> public_address_;
  std::unique_ptr<net::ProxyTable> proxy_;
};

}  // namespace soda::host
