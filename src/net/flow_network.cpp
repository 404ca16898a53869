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
  reallocate_and_schedule(true);
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
  Flow flow;
  flow.id = FlowId{next_flow_id_++};
  flow.route = intern_route(std::isinf(rate_cap_mbps)
                                ? std::numeric_limits<double>::infinity()
                                : mbps_to_bytes_per_sec(rate_cap_mbps));
  flow.total_bytes = bytes;
  flow.remaining_bytes = static_cast<double>(bytes);
  flow.latency = latency;
  flow.on_complete = std::move(on_complete);
  const FlowId id = flow.id;
  flows_.push_back(std::move(flow));
  reallocate_and_schedule(false);
  return id;
}

std::size_t FlowNetwork::intern_route(double cap_bps) {
  const auto cap_bits = std::bit_cast<std::uint64_t>(cap_bps);
  std::size_t free = routes_.size();
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    Route& route = routes_[r];
    if (route.users == 0) {
      free = std::min(free, r);
    } else if (std::bit_cast<std::uint64_t>(route.cap_bps) == cap_bits &&
               route.path == path_) {
      ++route.users;
      return r;
    }
  }
  if (free == routes_.size()) routes_.emplace_back();
  Route& route = routes_[free];
  route.path.assign(path_.begin(), path_.end());
  route.cap_bps = cap_bps;
  route.users = 1;
  return free;
}

bool FlowNetwork::competes(const Flow& flow) const {
  return flow.remaining_bytes > kEpsilonBytes &&
         !routes_[flow.route].path.empty();
}

bool FlowNetwork::cancel_flow(FlowId flow) {
  auto it = std::find_if(flows_.begin(), flows_.end(),
                         [&](const Flow& f) { return f.id == flow; });
  if (it == flows_.end()) return false;
  settle_progress();
  const bool competing = it->competing;
  release_route(it->route);
  flows_.erase(it);
  reallocate_and_schedule(competing);
  return true;
}

double FlowNetwork::flow_rate_mbps(FlowId flow) const {
  auto it = std::find_if(flows_.begin(), flows_.end(),
                         [&](const Flow& f) { return f.id == flow; });
  return it == flows_.end() ? 0.0 : bytes_per_sec_to_mbps(it->rate_bps);
}

void FlowNetwork::settle_progress() {
  const sim::SimTime now = engine_.now();
  const double dt = (now - last_settle_).to_seconds();
  if (dt > 0) {
    for (Flow& flow : flows_) {
      flow.remaining_bytes =
          std::max(0.0, flow.remaining_bytes - flow.rate_bps * dt);
    }
  }
  last_settle_ = now;
}

void FlowNetwork::reallocate_and_schedule(bool shares_stale) {
  const sim::SimTime now = engine_.now();
  // Drained flows (and flows crossing no link, which see no constraint) no
  // longer compete for bandwidth; they only wait out their path latency.
  // ready_at is pinned the first time a flow drains and never moves again.
  // A flow that starts or stops competing makes the shares stale.
  for (Flow& flow : flows_) {
    const bool competing = competes(flow);
    shares_stale = shares_stale || competing != flow.competing;
    flow.competing = competing;
    if (!competing) {
      flow.rate_bps = 0;
      if (flow.ready_at == sim::SimTime::max()) flow.ready_at = now + flow.latency;
    }
  }
  // The filling is a function of the competing flows in order, their routes
  // and the link capacities. While none of those changed, the rates the last
  // filling left stand, bit for bit.
  if (shares_stale) fill();

  // Project completion times for still-transmitting flows. The projected
  // transfer time is floored at 1 ns: SimTime truncates to integer
  // nanoseconds, and a zero-length step would fire the completion event at
  // the same timestamp without draining any bytes — forever. A transfer
  // that would end past the clock's range never completes, as at rate 0.
  sim::SimTime earliest = sim::SimTime::max();
  for (Flow& flow : flows_) {
    if (flow.competing) {
      flow.ready_at = sim::SimTime::max();
      if (flow.rate_bps > 0) {
        const double seconds = flow.remaining_bytes / flow.rate_bps;
        const auto room =
            static_cast<double>((sim::SimTime::max() - now - flow.latency).ns());
        if (seconds * 1e9 < room) {
          const sim::SimTime transfer = std::max(
              sim::SimTime::nanoseconds(1), sim::SimTime::seconds(seconds));
          flow.ready_at = now + transfer + flow.latency;
        }
      }
    }
    earliest = std::min(earliest, flow.ready_at);
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
  // Routes in the order of their first competing flow, each listing its
  // competing flows in flow order.
  active_.clear();
  capped_.clear();
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    if (!flows_[f].competing) continue;
    const std::size_t r = flows_[f].route;
    Route& route = routes_[r];
    if (route.members.empty()) {
      active_.push_back(r);
      route.frozen = false;
      if (std::isfinite(route.cap_bps)) capped_.push_back(r);
    }
    route.members.push_back(f);
  }

  // Only the links the competing routes cross take part: a drained flow's
  // rate is +0.0, and x - 0.0 == x, so leaving it out of the residuals
  // changes no bit. A route's flows count towards a link's demand once per
  // time its path lists the link.
  in_use_index_.resize(links_.size(), kNotInUse);
  std::size_t links_in_use = 0;
  for (const std::size_t r : active_) {
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

  // --- Max-min fair allocation with per-flow caps (progressive filling). ---
  // The flows of one route freeze together at one rate, so each round
  // freezes routes. A link's residual is rebuilt only when a route crossing
  // it froze in the previous round.
  std::size_t unfrozen = active_.size();
  while (unfrozen > 0) {
    // Fair share offered by the tightest link crossed by any unfrozen flow.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < links_in_use; ++u) {
      LinkInUse& used = in_use_[u];
      if (used.demand == 0) continue;
      if (used.stale) {
        used.residual = residual(used);
        used.stale = false;
      }
      used.share =
          std::max(0.0, used.residual) / static_cast<double>(used.demand);
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
  for (const std::size_t r : active_) {
    Route& route = routes_[r];
    for (const std::size_t f : route.members) flows_[f].rate_bps = route.rate_bps;
    route.members.clear();
  }
}

double FlowNetwork::residual(const LinkInUse& used) {
  // The frozen flows' rates are subtracted one by one, once per crossing, in
  // flow order: the order fixes the residual's last bit, and so every rate's.
  // When every frozen route crossing the link has the same rate, any order
  // subtracts the same values, so that one subtraction repeats; otherwise
  // the routes' member lists merge by flow index.
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
        merge_.begin(), merge_.end(),
        [](const MergeCursor& a, const MergeCursor& b) { return *a.next < *b.next; });
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
  // Collect finished flows first: completion callbacks may start new flows,
  // which mutates flows_. A flow is finished when its bytes have drained AND
  // its pinned latency deadline has passed. Flows that drained exactly now
  // still owe their latency; reallocate pins their ready_at below. One
  // compaction pass keeps the survivors in order. Removing a flow that
  // competed in the last filling makes the shares stale.
  std::vector<Flow> done = std::move(done_);
  bool shares_stale = false;
  std::size_t kept = 0;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    Flow& flow = flows_[f];
    if (!competes(flow) && flow.ready_at <= now) {
      shares_stale = shares_stale || flow.competing;
      release_route(flow.route);
      done.push_back(std::move(flow));
    } else {
      if (f != kept) flows_[kept] = std::move(flow);
      ++kept;
    }
  }
  flows_.resize(kept);
  reallocate_and_schedule(shares_stale);
  for (Flow& flow : done) {
    bytes_delivered_ += flow.total_bytes;
    flow.on_complete(now);
  }
  done.clear();
  done_ = std::move(done);  // keep the buffer for the next event
}

template <class Ar>
void FlowNetwork::serialize(Ar& ar) {
  SODA_EXPECTS(flows_.empty());  // quiesce before checkpointing
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
