// Flow-level network simulation. Transfers (HTTP downloads, request/response
// payloads) are modeled as fluid flows over a topology of directed links;
// link bandwidth is shared max-min fairly among competing flows, with
// optional per-flow rate caps (used by the traffic shaper). This captures
// exactly what the paper's experiments depend on — transfer times under a
// shared 100 Mbps LAN and per-IP outbound shaping — without packet-level cost.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"

namespace soda::net {

struct NodeId {
  std::size_t value = SIZE_MAX;
  [[nodiscard]] bool valid() const noexcept { return value != SIZE_MAX; }
  friend constexpr auto operator<=>(NodeId, NodeId) noexcept = default;
};

struct LinkId {
  std::size_t value = SIZE_MAX;
  [[nodiscard]] bool valid() const noexcept { return value != SIZE_MAX; }
  friend constexpr auto operator<=>(LinkId, LinkId) noexcept = default;
};

struct FlowId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend constexpr auto operator<=>(FlowId, FlowId) noexcept = default;
};

/// Unlimited per-flow rate.
inline constexpr double kUncapped = std::numeric_limits<double>::infinity();

/// Event-driven fluid-flow network on a directed-link topology.
/// Single-threaded; driven by one sim::Engine.
class FlowNetwork {
 public:
  using CompletionCallback = std::function<void(sim::SimTime completed_at)>;

  explicit FlowNetwork(sim::Engine& engine) : engine_(engine) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Adds a named endpoint (machine / switch).
  NodeId add_node(std::string name);

  /// Adds one directed link a->b. Capacity in Mbps, propagation latency.
  /// Unless this link and its reverse, added next, attach a node that had
  /// no links (as add_duplex_link does), routes come from a BFS from now on.
  LinkId add_link(NodeId from, NodeId to, double capacity_mbps,
                  sim::SimTime latency);

  /// Adds a full-duplex link (two directed links with identical parameters).
  /// Returns {a->b, b->a}. When a node without links yet is one end, it
  /// attaches to the other end: a (if fresh) under b, else b under a.
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b,
                                            double capacity_mbps,
                                            sim::SimTime latency);

  /// Adds a link not attached to the topology graph; it only constrains flows
  /// that explicitly include it in `extra_links` (the traffic shaper's per-IP
  /// bottleneck). No route can cross it.
  LinkId add_virtual_link(double capacity_mbps);

  /// Changes a link's capacity and re-shares bandwidth (service resizing /
  /// shaper reconfiguration). Capacity must be > 0.
  void set_link_capacity(LinkId link, double capacity_mbps);

  [[nodiscard]] double link_capacity_mbps(LinkId link) const;
  [[nodiscard]] const std::string& node_name(NodeId node) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }

  /// Starts a transfer of `bytes` from `src` to `dst`; `on_complete` fires
  /// when the last byte arrives. `rate_cap_mbps` bounds this flow alone;
  /// `extra_links` (e.g. a shaper's virtual link) are appended to the routed
  /// path. Fails when no route exists.
  Result<FlowId> start_flow(NodeId src, NodeId dst, std::int64_t bytes,
                            CompletionCallback on_complete,
                            double rate_cap_mbps = kUncapped,
                            std::span<const LinkId> extra_links = {});

  /// Aborts an in-progress flow (its callback never fires). Returns false if
  /// the flow already completed or was already cancelled.
  bool cancel_flow(FlowId flow);

  /// The flow's currently allocated rate in Mbps; 0 for unknown flows and for
  /// flows that no longer compete (drained, zero bytes, or no link).
  [[nodiscard]] double flow_rate_mbps(FlowId flow) const;

  /// Number of in-progress flows.
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return slots_.size() - free_slots_.size();
  }

  /// Total bytes delivered by completed flows since construction.
  [[nodiscard]] std::int64_t bytes_delivered() const noexcept { return bytes_delivered_; }

  /// Snapshot walk over the full topology (nodes, links — including virtual
  /// links and capacities changed since construction) and counters. The
  /// world must be quiesced: in-flight flows hold completion closures that
  /// cannot be externalized, so the walk requires active_flows() == 0.
  /// LinkId and NodeId values are preserved exactly — routing visits each
  /// node's links in id order, so an isomorphic-but-renumbered topology
  /// could pick other equal-length routes. The attachment tree is a
  /// function of the link list, so loading rebuilds it from that list.
  template <class Ar>
  void serialize(Ar& ar);

 private:
  struct Link {
    NodeId from;  // invalid for virtual links
    NodeId to;
    double capacity_bps = 0;  // bytes per second
    sim::SimTime latency;
  };
  static constexpr std::size_t kNoRoute = SIZE_MAX;
  static constexpr std::size_t kNoSlot = SIZE_MAX;
  /// A flow's cold state, in a slot reused once the flow is gone.
  struct Slot {
    FlowId id;  // invalid while the slot is free
    std::int64_t total_bytes = 0;
    std::size_t route = kNoRoute;  // its route while it competes
    CompletionCallback on_complete;
  };
  /// A competing flow on its route: the id orders it, the slot holds the rest.
  struct Member {
    std::uint64_t id = 0;
    std::size_t slot = 0;
  };
  /// A path (routed links, then extra links, in order), a cap and the routed
  /// links' summed latency, with the flows that compete on it in flow order.
  /// Those flows share one rate and one latency, so the one with the fewest
  /// bytes left completes first. Live while a flow competes on it; a free
  /// slot's vectors are reused.
  struct Route {
    std::vector<std::size_t> path;  // link indices
    double cap_bps = std::numeric_limits<double>::infinity();
    sim::SimTime latency;
    std::vector<double> left;      // bytes left, per member
    std::vector<Member> members;   // in flow order
    double min_left = std::numeric_limits<double>::infinity();
    double rate_bps = 0;  // every member's rate, set by the last filling
    bool frozen = false;  // filling state
  };
  /// A flow that no longer competes (drained, zero bytes, or no link) and
  /// waits out its latency.
  struct Waiting {
    std::uint64_t id = 0;
    std::size_t slot = 0;
    sim::SimTime ready_at;  // SimTime::max() until pinned
    sim::SimTime latency;
  };
  /// A link some competing flow crosses, during one filling.
  struct LinkInUse {
    std::size_t link = 0;
    // Routes crossing it, once per time each lists it.
    std::vector<std::size_t> routes;
    double residual = 0;     // capacity left by the frozen flows
    double share = 0;        // residual split over `demand`
    std::size_t demand = 0;  // crossings of flows not yet frozen
    bool stale = false;      // a route crossing it froze last round
  };
  /// A frozen route's members not yet subtracted from a residual.
  struct MergeCursor {
    const Member* next = nullptr;
    const Member* end = nullptr;
    double rate_bps = 0;
  };

  static constexpr std::size_t kNoLink = SIZE_MAX;
  /// Where a node hangs in the attachment forest.
  struct TreeNode {
    std::size_t up = kNoLink;    // link to the parent; kNoLink at a root
    std::size_t down = kNoLink;  // link from the parent
    std::size_t depth = 0;
  };

  /// Files topology link `link` under its source node and extends the
  /// attachment forest by it, or marks the topology general.
  void index_link(std::size_t link);
  /// Writes the shortest-hop route over topology links into `path`, with
  /// room for `extra` more links; false when unreachable.
  bool route(NodeId src, NodeId dst, std::size_t extra,
             std::vector<std::size_t>& path) const;

  /// The live route of `path_` with cap `cap_bps` and latency `latency`, or
  /// a free slot set up as one and made live.
  std::size_t intern_route(double cap_bps, sim::SimTime latency);
  /// Frees live route `live_routes_[at]`, whose last member left.
  void free_route(std::size_t at);
  /// The slot of live flow `flow`, or kNoSlot.
  [[nodiscard]] std::size_t find_slot(FlowId flow) const;
  /// Frees `slot`, destroying its callback.
  void free_slot(std::size_t slot);
  /// Adds `flow` to the waiting list, which stays in flow order.
  void wait(const Waiting& flow);
  /// When a flow on `route` with `bytes` left at `at` delivers its last
  /// byte, latency included; SimTime::max() at rate 0 or past the clock.
  [[nodiscard]] static sim::SimTime project(sim::SimTime at, double bytes,
                                            const Route& route);

  /// Applies progress since the last settle to every competing flow and
  /// moves the drained ones to the waiting list.
  void settle_progress();
  /// Pins waiting flows, re-shares bandwidth when the competing flows or the
  /// capacities changed, then reschedules the next completion event.
  void reallocate_and_schedule();
  /// Max-min fair allocation of the competing routes' rates.
  void fill();
  /// Link `used`'s capacity less its frozen flows' rates, subtracted in flow
  /// order.
  double residual(const LinkInUse& used);
  /// Fires completions due now, removes finished flows.
  void on_completion_event();

  sim::Engine& engine_;
  std::vector<std::string> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<std::size_t>> out_links_;  // per node, topology only
  // While every topology link came in a duplex pair that attached a node
  // with no links yet, the topology is a forest and a route is the unique
  // tree path (forest_). `half_` is an attachment's first link while its
  // reverse has not been added.
  std::vector<TreeNode> tree_;  // per node
  bool forest_ = true;
  std::size_t half_ = kNoLink;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_slots_;
  std::vector<Route> routes_;
  std::vector<std::size_t> live_routes_;  // routes with members, any order
  std::vector<std::size_t> free_routes_;
  std::vector<Waiting> waiting_;  // in flow order
  std::uint64_t next_flow_id_ = 1;
  sim::SimTime last_settle_;
  bool shares_stale_ = false;  // the competing flows or a capacity changed
  sim::EventId pending_event_{};
  bool event_scheduled_ = false;
  std::int64_t bytes_delivered_ = 0;

  // Reallocation scratch, reused by every call so an event allocates
  // nothing once the buffers have grown.
  static constexpr std::size_t kNotInUse = SIZE_MAX;
  std::vector<std::size_t> path_;          // the path a start_flow builds
  std::vector<std::size_t> in_use_index_;  // per link: index into in_use_
  std::vector<LinkInUse> in_use_;          // a prefix is live in each call
  std::vector<std::size_t> capped_;        // live routes with a finite cap
  std::vector<std::size_t> just_frozen_;   // routes
  std::vector<MergeCursor> merge_;
  std::vector<Slot> done_;                 // finished flows awaiting callbacks
};

/// Convenience: bits-per-second from Mbps.
constexpr double mbps_to_bytes_per_sec(double mbps) noexcept {
  return mbps * 1e6 / 8.0;
}
constexpr double bytes_per_sec_to_mbps(double bps) noexcept {
  return bps * 8.0 / 1e6;
}

}  // namespace soda::net
