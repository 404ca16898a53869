#include "net/flow_network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "snapshot/format.hpp"
#include "util/contract.hpp"

namespace soda::net {

namespace {
// Flows with less than this many bytes left are considered drained; sub-byte
// remainders are floating-point residue after rate changes, not payload.
constexpr double kEpsilonBytes = 0.5;
}  // namespace

NodeId FlowNetwork::add_node(std::string name) {
  nodes_.push_back(std::move(name));
  out_links_.emplace_back();
  tree_.emplace_back();
  return NodeId{nodes_.size() - 1};
}

LinkId FlowNetwork::add_link(NodeId from, NodeId to, double capacity_mbps,
                             sim::SimTime latency) {
  SODA_EXPECTS(from.value < nodes_.size() && to.value < nodes_.size());
  SODA_EXPECTS(capacity_mbps > 0);
  links_.push_back(Link{from, to, mbps_to_bytes_per_sec(capacity_mbps), latency});
  index_link(links_.size() - 1);
  return LinkId{links_.size() - 1};
}

std::pair<LinkId, LinkId> FlowNetwork::add_duplex_link(NodeId a, NodeId b,
                                                       double capacity_mbps,
                                                       sim::SimTime latency) {
  return {add_link(a, b, capacity_mbps, latency),
          add_link(b, a, capacity_mbps, latency)};
}

LinkId FlowNetwork::add_virtual_link(double capacity_mbps) {
  SODA_EXPECTS(capacity_mbps > 0);
  links_.push_back(Link{NodeId{}, NodeId{}, mbps_to_bytes_per_sec(capacity_mbps),
                        sim::SimTime::zero()});
  return LinkId{links_.size() - 1};
}

void FlowNetwork::set_link_capacity(LinkId link, double capacity_mbps) {
  SODA_EXPECTS(link.value < links_.size());
  SODA_EXPECTS(capacity_mbps > 0);
  settle_progress();
  links_[link.value].capacity_bps = mbps_to_bytes_per_sec(capacity_mbps);
  shares_stale_ = true;
  reallocate_and_schedule();
}

double FlowNetwork::link_capacity_mbps(LinkId link) const {
  SODA_EXPECTS(link.value < links_.size());
  return bytes_per_sec_to_mbps(links_[link.value].capacity_bps);
}

const std::string& FlowNetwork::node_name(NodeId node) const {
  SODA_EXPECTS(node.value < nodes_.size());
  return nodes_[node.value];
}

void FlowNetwork::index_link(std::size_t l) {
  const Link& link = links_[l];
  if (!link.from.valid()) return;  // virtual: outside the topology
  const std::size_t from = link.from.value;
  const std::size_t to = link.to.value;
  if (forest_ && half_ != kNoLink) {
    // An attachment's second link reverses its first; it gives the fresh
    // end the link its first did not.
    const Link& first = links_[half_];
    forest_ = link.from == first.to && link.to == first.from;
    if (forest_) {
      if (tree_[to].up == half_) {
        tree_[to].down = l;
      } else {
        tree_[from].up = l;
      }
    }
    half_ = kNoLink;
  } else if (forest_) {
    // Outside a pending attachment every linked node has an out-link, so a
    // node without one has no links at all.
    if (from != to && out_links_[from].empty()) {
      tree_[from].up = l;
      tree_[from].depth = tree_[to].depth + 1;
      half_ = l;
    } else if (from != to && out_links_[to].empty()) {
      tree_[to].down = l;
      tree_[to].depth = tree_[from].depth + 1;
      half_ = l;
    } else {
      forest_ = false;
    }
  }
  out_links_[from].push_back(l);
}

bool FlowNetwork::route(NodeId src, NodeId dst, std::size_t extra,
                        std::vector<std::size_t>& path) const {
  if (src == dst) {  // zero hops
    path.reserve(extra);
    return true;
  }
  if (forest_ && half_ == kNoLink) {
    // A tree has one path between two nodes: up from src to the lowest
    // common ancestor, then down to dst.
    const auto parent = [this](std::size_t node) {
      return links_[tree_[node].up].to.value;
    };
    std::size_t s = src.value;
    std::size_t d = dst.value;
    std::size_t up = 0;
    std::size_t down = 0;
    for (; tree_[s].depth > tree_[d].depth; ++up) s = parent(s);
    for (; tree_[d].depth > tree_[s].depth; ++down) d = parent(d);
    for (; s != d; ++up, ++down) {
      if (tree_[s].up == kNoLink) return false;  // the roots of two trees
      s = parent(s);
      d = parent(d);
    }
    path.reserve(up + down + extra);
    path.resize(up + down);
    s = src.value;
    for (std::size_t i = 0; i < up; ++i, s = parent(s)) path[i] = tree_[s].up;
    d = dst.value;
    for (std::size_t i = up + down; i > up; --i, d = parent(d)) {
      path[i - 1] = tree_[d].down;
    }
    return true;
  }
  // Any other topology: BFS by hop count, visiting each node's links in id
  // order.
  std::vector<std::size_t> via(nodes_.size(), kNoLink);  // link that reached
  std::vector<std::size_t> frontier{src.value};
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (std::size_t link_idx : out_links_[frontier[head]]) {
      const std::size_t next = links_[link_idx].to.value;
      if (next == src.value || via[next] != kNoLink) continue;
      via[next] = link_idx;
      if (next == dst.value) {
        std::size_t hops = 0;
        for (std::size_t at = dst.value; at != src.value;
             at = links_[via[at]].from.value) {
          ++hops;
        }
        path.reserve(hops + extra);
        path.resize(hops);
        for (std::size_t at = dst.value; at != src.value;
             at = links_[via[at]].from.value) {
          path[--hops] = via[at];
        }
        return true;
      }
      frontier.push_back(next);
    }
  }
  return false;
}

Result<FlowId> FlowNetwork::start_flow(NodeId src, NodeId dst,
                                       std::int64_t bytes,
                                       CompletionCallback on_complete,
                                       double rate_cap_mbps,
                                       std::span<const LinkId> extra_links) {
  SODA_EXPECTS(src.value < nodes_.size() && dst.value < nodes_.size());
  SODA_EXPECTS(bytes >= 0);
  SODA_EXPECTS(on_complete != nullptr);
  SODA_EXPECTS(rate_cap_mbps > 0);

  path_.clear();
  if (!route(src, dst, extra_links.size(), path_)) {
    return Error{"no route from " + nodes_[src.value] + " to " + nodes_[dst.value]};
  }
  sim::SimTime latency = sim::SimTime::zero();
  for (std::size_t link_idx : path_) latency += links_[link_idx].latency;
  for (LinkId extra : extra_links) {
    SODA_EXPECTS(extra.value < links_.size());
    path_.push_back(extra.value);
  }

  settle_progress();
  const FlowId id{next_flow_id_++};
  std::size_t slot = slots_.size();
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].id = id;
  slots_[slot].total_bytes = bytes;
  slots_[slot].on_complete = std::move(on_complete);
  const auto left = static_cast<double>(bytes);
  if (left > kEpsilonBytes && !path_.empty()) {
    const std::size_t r =
        intern_route(std::isinf(rate_cap_mbps)
                         ? std::numeric_limits<double>::infinity()
                         : mbps_to_bytes_per_sec(rate_cap_mbps),
                     latency);
    Route& route = routes_[r];
    route.left.push_back(left);
    route.members.push_back({id.value, slot});
    route.min_left = std::min(route.min_left, left);
    slots_[slot].route = r;
    shares_stale_ = true;
  } else {
    // Zero bytes, or no link to cross: the flow only owes its latency.
    slots_[slot].route = kNoRoute;
    waiting_.push_back({id.value, slot, sim::SimTime::max(), latency});
  }
  reallocate_and_schedule();
  return id;
}

std::size_t FlowNetwork::intern_route(double cap_bps, sim::SimTime latency) {
  const auto cap_bits = std::bit_cast<std::uint64_t>(cap_bps);
  for (const std::size_t r : live_routes_) {
    const Route& route = routes_[r];
    if (std::bit_cast<std::uint64_t>(route.cap_bps) == cap_bits &&
        route.latency == latency && route.path == path_) {
      return r;
    }
  }
  std::size_t r = routes_.size();
  if (free_routes_.empty()) {
    routes_.emplace_back();
  } else {
    r = free_routes_.back();
    free_routes_.pop_back();
  }
  Route& route = routes_[r];
  route.path.assign(path_.begin(), path_.end());
  route.cap_bps = cap_bps;
  route.latency = latency;
  route.min_left = std::numeric_limits<double>::infinity();
  live_routes_.push_back(r);
  return r;
}

void FlowNetwork::free_route(std::size_t at) {
  free_routes_.push_back(live_routes_[at]);
  live_routes_[at] = live_routes_.back();
  live_routes_.pop_back();
}

std::size_t FlowNetwork::find_slot(FlowId flow) const {
  if (!flow.valid()) return kNoSlot;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].id == flow) return s;
  }
  return kNoSlot;
}

void FlowNetwork::free_slot(std::size_t slot) {
  slots_[slot].id = FlowId{};
  slots_[slot].on_complete = nullptr;
  free_slots_.push_back(slot);
}

void FlowNetwork::wait(const Waiting& flow) {
  // Flows drain out of flow order. The list is short, so a scan from the
  // back finds the place.
  auto at = waiting_.end();
  while (at != waiting_.begin() && (at - 1)->id > flow.id) --at;
  waiting_.insert(at, flow);
}

bool FlowNetwork::cancel_flow(FlowId flow) {
  const std::size_t slot = find_slot(flow);
  if (slot == kNoSlot) return false;
  settle_progress();  // may move the flow to the waiting list
  const std::size_t r = slots_[slot].route;
  if (r == kNoRoute) {
    waiting_.erase(std::find_if(waiting_.begin(), waiting_.end(),
                                [&](const Waiting& w) { return w.slot == slot; }));
  } else {
    Route& route = routes_[r];
    const auto at = std::find_if(route.members.begin(), route.members.end(),
                                 [&](const Member& m) { return m.slot == slot; }) -
                    route.members.begin();
    route.members.erase(route.members.begin() + at);
    route.left.erase(route.left.begin() + at);
    route.min_left = std::numeric_limits<double>::infinity();
    for (const double left : route.left) {
      route.min_left = std::min(route.min_left, left);
    }
    if (route.members.empty()) {
      free_route(static_cast<std::size_t>(
          std::find(live_routes_.begin(), live_routes_.end(), r) -
          live_routes_.begin()));
    }
    shares_stale_ = true;
  }
  free_slot(slot);
  reallocate_and_schedule();
  return true;
}

double FlowNetwork::flow_rate_mbps(FlowId flow) const {
  const std::size_t slot = find_slot(flow);
  if (slot == kNoSlot || slots_[slot].route == kNoRoute) return 0.0;
  return bytes_per_sec_to_mbps(routes_[slots_[slot].route].rate_bps);
}

sim::SimTime FlowNetwork::project(sim::SimTime at, double bytes,
                                  const Route& route) {
  // The transfer time is floored at 1 ns: SimTime truncates to integer
  // nanoseconds, and a zero-length step would fire the completion event at
  // the same timestamp without draining any bytes — forever. A transfer
  // that would end past the clock's range never completes, as at rate 0.
  // The result never decreases as `bytes` grows.
  if (!(route.rate_bps > 0)) return sim::SimTime::max();
  const double seconds = bytes / route.rate_bps;
  const auto room =
      static_cast<double>((sim::SimTime::max() - at - route.latency).ns());
  if (!(seconds * 1e9 < room)) return sim::SimTime::max();
  return at +
         std::max(sim::SimTime::nanoseconds(1), sim::SimTime::seconds(seconds)) +
         route.latency;
}

void FlowNetwork::settle_progress() {
  const sim::SimTime now = engine_.now();
  const double dt = (now - last_settle_).to_seconds();
  if (dt > 0) {
    // Backwards, so that freeing a route moves one already settled.
    for (std::size_t at = live_routes_.size(); at-- > 0;) {
      Route& route = routes_[live_routes_[at]];
      const double sent = route.rate_bps * dt;
      double min_left = std::numeric_limits<double>::infinity();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < route.left.size(); ++i) {
        const double before = route.left[i];
        const double after = std::max(0.0, before - sent);
        if (after > kEpsilonBytes) {
          route.left[kept] = after;
          route.members[kept] = route.members[i];
          ++kept;
          min_left = std::min(min_left, after);
        } else {
          // Drained: it keeps the completion projected for it at the last
          // settle, from the bytes it had then. Without one (at rate 0 or
          // past the clock) it is pinned after this call's done scan.
          const Member member = route.members[i];
          slots_[member.slot].route = kNoRoute;
          wait({member.id, member.slot, project(last_settle_, before, route),
                route.latency});
        }
      }
      if (kept != route.left.size()) {
        route.left.resize(kept);
        route.members.resize(kept);
        shares_stale_ = true;
        if (kept == 0) free_route(at);
      }
      route.min_left = min_left;
    }
  }
  last_settle_ = now;
}

void FlowNetwork::reallocate_and_schedule() {
  const sim::SimTime now = engine_.now();
  // A waiting flow's ready_at is pinned once and never moves again.
  sim::SimTime earliest = sim::SimTime::max();
  for (Waiting& flow : waiting_) {
    if (flow.ready_at == sim::SimTime::max()) flow.ready_at = now + flow.latency;
    earliest = std::min(earliest, flow.ready_at);
  }
  // The filling is a function of the competing flows in order, their routes
  // and the link capacities. While none of those changed, the rates the last
  // filling left stand, bit for bit.
  if (shares_stale_) fill();
  shares_stale_ = false;
  for (const std::size_t r : live_routes_) {
    const Route& route = routes_[r];
    earliest = std::min(earliest, project(now, route.min_left, route));
  }

  // --- Schedule the earliest completion. ---
  if (event_scheduled_) {
    engine_.cancel(pending_event_);
    event_scheduled_ = false;
  }
  if (earliest < sim::SimTime::max()) {
    pending_event_ = engine_.schedule_at(std::max(earliest, now),
                                         [this] { on_completion_event(); });
    event_scheduled_ = true;
  }
}

void FlowNetwork::fill() {
  capped_.clear();
  for (const std::size_t r : live_routes_) {
    Route& route = routes_[r];
    route.frozen = false;
    if (std::isfinite(route.cap_bps)) capped_.push_back(r);
  }

  // Only the links the live routes cross take part: a flow that does not
  // compete would carry +0.0, and x - 0.0 == x, so leaving it out of the
  // residuals changes no bit. A route's flows count towards a link's demand
  // once per time its path lists the link.
  in_use_index_.resize(links_.size(), kNotInUse);
  std::size_t links_in_use = 0;
  for (const std::size_t r : live_routes_) {
    const Route& route = routes_[r];
    for (const std::size_t l : route.path) {
      std::size_t& index = in_use_index_[l];
      if (index == kNotInUse) {
        index = links_in_use++;
        if (in_use_.size() < links_in_use) in_use_.emplace_back();
        LinkInUse& fresh = in_use_[index];
        fresh.link = l;
        fresh.routes.clear();
        fresh.residual = links_[l].capacity_bps;
        fresh.demand = 0;
        fresh.stale = false;
      }
      LinkInUse& used = in_use_[index];
      used.demand += route.members.size();
      used.routes.push_back(r);
    }
  }
  const auto share = [](const LinkInUse& used) {
    return std::max(0.0, used.residual) / static_cast<double>(used.demand);
  };
  for (std::size_t u = 0; u < links_in_use; ++u) in_use_[u].share = share(in_use_[u]);

  // --- Max-min fair allocation with per-flow caps (progressive filling). ---
  // The flows of one route freeze together at one rate, so each round
  // freezes routes. Only a link that a route frozen in the previous round
  // crosses has a new residual and demand, so only its share is recomputed.
  // The order of the live routes decides nothing: each round takes minima,
  // freezes a set of routes, and a residual subtracts in flow order.
  std::size_t unfrozen = live_routes_.size();
  while (unfrozen > 0) {
    // Fair share offered by the tightest link crossed by any unfrozen flow.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < links_in_use; ++u) {
      LinkInUse& used = in_use_[u];
      if (used.demand == 0) continue;
      if (used.stale) {
        used.residual = residual(used);
        used.share = share(used);
        used.stale = false;
      }
      bottleneck_share = std::min(bottleneck_share, used.share);
    }
    SODA_ENSURES(std::isfinite(bottleneck_share));  // every unfrozen flow has links

    // Smallest unfrozen cap competes with the link bottleneck.
    double min_cap = std::numeric_limits<double>::infinity();
    for (const std::size_t r : capped_) {
      if (!routes_[r].frozen) min_cap = std::min(min_cap, routes_[r].cap_bps);
    }

    just_frozen_.clear();
    const auto freeze = [this](std::size_t r, double rate_bps) {
      routes_[r].rate_bps = rate_bps;
      routes_[r].frozen = true;
      just_frozen_.push_back(r);
    };
    if (min_cap <= bottleneck_share) {
      // Cap-limited routes take their cap and stop competing.
      for (const std::size_t r : capped_) {
        const Route& route = routes_[r];
        if (!route.frozen && route.cap_bps <= bottleneck_share) {
          freeze(r, route.cap_bps);
        }
      }
    } else {
      // Freeze every unfrozen route crossing a link at the bottleneck share.
      for (std::size_t u = 0; u < links_in_use; ++u) {
        const LinkInUse& used = in_use_[u];
        if (used.demand == 0 || used.share > bottleneck_share * (1 + 1e-12)) {
          continue;
        }
        for (const std::size_t r : used.routes) {
          if (!routes_[r].frozen) freeze(r, bottleneck_share);
        }
      }
    }
    SODA_ENSURES(!just_frozen_.empty());  // each round must make progress
    unfrozen -= just_frozen_.size();
    for (const std::size_t r : just_frozen_) {
      const Route& route = routes_[r];
      for (const std::size_t l : route.path) {
        LinkInUse& used = in_use_[in_use_index_[l]];
        used.demand -= route.members.size();
        used.stale = true;
      }
    }
  }
  for (std::size_t u = 0; u < links_in_use; ++u) {
    in_use_index_[in_use_[u].link] = kNotInUse;
  }
}

double FlowNetwork::residual(const LinkInUse& used) {
  // The frozen flows' rates are subtracted one by one, once per crossing, in
  // flow order: the order fixes the residual's last bit, and so every rate's.
  // When every frozen route crossing the link has the same rate, any order
  // subtracts the same values, so that one subtraction repeats; otherwise
  // the routes' member lists merge by flow id.
  double residual = links_[used.link].capacity_bps;
  merge_.clear();
  bool one_rate = true;
  std::size_t crossings = 0;
  for (const std::size_t r : used.routes) {
    const Route& route = routes_[r];
    if (!route.frozen) continue;
    one_rate = one_rate &&
               (merge_.empty() || route.rate_bps == merge_.front().rate_bps);
    merge_.push_back({route.members.data(),
                      route.members.data() + route.members.size(),
                      route.rate_bps});
    crossings += route.members.size();
  }
  if (one_rate) {
    const double rate = merge_.empty() ? 0.0 : merge_.front().rate_bps;
    for (std::size_t i = 0; i < crossings; ++i) residual -= rate;
    return residual;
  }
  while (!merge_.empty()) {
    const auto first = std::min_element(
        merge_.begin(), merge_.end(), [](const MergeCursor& a, const MergeCursor& b) {
          return a.next->id < b.next->id;
        });
    residual -= first->rate_bps;
    if (++first->next == first->end) {
      *first = merge_.back();
      merge_.pop_back();
    }
  }
  return residual;
}

void FlowNetwork::on_completion_event() {
  event_scheduled_ = false;
  settle_progress();
  const sim::SimTime now = engine_.now();
  // Collect finished flows first, in flow order: completion callbacks may
  // start new flows. A flow is finished when its bytes have drained AND its
  // pinned latency deadline has passed; one that drained at this settle
  // without a projected completion is pinned after this scan.
  std::vector<Slot> done = std::move(done_);
  std::size_t kept = 0;
  for (std::size_t w = 0; w < waiting_.size(); ++w) {
    const Waiting flow = waiting_[w];
    if (flow.ready_at <= now) {
      done.push_back(std::move(slots_[flow.slot]));
      free_slot(flow.slot);
    } else {
      waiting_[kept++] = flow;
    }
  }
  waiting_.resize(kept);
  reallocate_and_schedule();
  for (Slot& flow : done) {
    bytes_delivered_ += flow.total_bytes;
    flow.on_complete(now);
  }
  done.clear();
  done_ = std::move(done);  // keep the buffer for the next event
}

template <class Ar>
void FlowNetwork::serialize(Ar& ar) {
  SODA_EXPECTS(active_flows() == 0);  // quiesce before checkpointing
  ar.begin_section("flow_network");
  ar.seq(nodes_, [&ar](auto& name) { ar.str(name); });
  ar.seq(links_, [&](auto& link) {
    bool physical = link.from.valid();
    ar.boolean(physical);
    if (physical) {
      ar.u64(link.from.value, snapshot::Below{nodes_.size()});
      ar.u64(link.to.value, snapshot::Below{nodes_.size()});
    }
    ar.f64(link.capacity_bps);
    ar.time(link.latency);
  });
  ar.u64(next_flow_id_);
  ar.time(last_settle_);
  ar.i64(bytes_delivered_);
  ar.end_section();
  if constexpr (Ar::kLoading) {
    out_links_.assign(nodes_.size(), {});
    tree_.assign(nodes_.size(), {});
    forest_ = true;
    half_ = kNoLink;
    for (std::size_t i = 0; i < links_.size(); ++i) index_link(i);
    event_scheduled_ = false;
    pending_event_ = {};
  }
}
template void FlowNetwork::serialize(snapshot::Writer&);
template void FlowNetwork::serialize(snapshot::Reader&);

}  // namespace soda::net
