// Outbound traffic shaping (paper §4.2, "Network bandwidth isolation"): a
// token-bucket abstraction plus the per-IP shaper the SODA Daemon installs in
// the host OS. Shaping keys on the source IP of outgoing packets, i.e. on the
// virtual service node, and is realized in the flow network as a per-IP
// virtual bottleneck link that every outbound flow of that node must cross.
#pragma once

#include <map>
#include <optional>

#include "net/address.hpp"
#include "net/flow_network.hpp"
#include "sim/time.hpp"
#include "snapshot/format.hpp"

namespace soda::net {

/// Classic token bucket: `rate` tokens (bytes) accrue per second up to
/// `burst`. Used directly for per-packet admission in unit tests and as the
/// reference model for the flow-level shaper.
class TokenBucket {
 public:
  /// rate_bytes_per_sec > 0; burst_bytes >= 1.
  TokenBucket(double rate_bytes_per_sec, double burst_bytes);

  /// Consumes `bytes` tokens if available at `now`; returns success.
  bool try_consume(double bytes, sim::SimTime now);

  /// Time at which `bytes` tokens will be available (may be `now`).
  [[nodiscard]] sim::SimTime available_at(double bytes, sim::SimTime now) const;

  /// Tokens currently in the bucket at `now`.
  [[nodiscard]] double tokens(sim::SimTime now) const;

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] double burst() const noexcept { return burst_; }

 private:
  void refill(sim::SimTime now) const;

  double rate_;
  double burst_;
  mutable double tokens_;
  mutable sim::SimTime last_refill_;
};

/// Per-source-IP outbound bandwidth enforcement for one HUP host. Each shaped
/// IP owns a virtual link in the flow network; flows originating from that IP
/// include the link in their path, so the node's aggregate outbound rate can
/// never exceed its allocation no matter how many flows it opens.
class TrafficShaper {
 public:
  explicit TrafficShaper(FlowNetwork& network) : network_(network) {}

  /// Installs or updates the outbound limit for `address`.
  void configure(Ipv4Address address, double limit_mbps);

  /// Removes shaping for `address` (subsequent flows are unshaped).
  /// Returns false if the address was not shaped.
  bool remove(Ipv4Address address);

  /// The virtual link flows from `address` must include, if shaped.
  [[nodiscard]] std::optional<LinkId> link_for(Ipv4Address address) const;

  /// Configured limit for `address`, if shaped.
  [[nodiscard]] std::optional<double> limit_mbps(Ipv4Address address) const;

  [[nodiscard]] std::size_t shaped_count() const noexcept { return entries_.size(); }

  /// Checkpoints the per-IP entries and the spare-link pool by LinkId. The
  /// virtual links themselves live in the FlowNetwork's tables (restored
  /// separately), so loading only rebuilds the maps — no network calls.
  template <class Ar>
  void serialize(Ar& ar) {
    const snapshot::Below links{network_.link_count()};
    ar.begin_section("shaper");
    ar.seq(entries_, [&](auto& entry) {
      ar.walk(entry.first);
      ar.u64(entry.second.link.value, links);
      ar.f64(entry.second.limit_mbps);
    });
    ar.seq(spare_links_, [&](auto& link) { ar.u64(link.value, links); });
    ar.end_section();
  }

 private:
  struct Entry {
    LinkId link;
    double limit_mbps;
  };
  FlowNetwork& network_;
  std::map<Ipv4Address, Entry> entries_;
  // Virtual links cannot be deleted from the network; removed entries park
  // their link here for reuse by later configure() calls.
  std::vector<LinkId> spare_links_;
};

}  // namespace soda::net
