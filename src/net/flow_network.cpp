#include "net/flow_network.hpp"

#include <algorithm>
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

  Flow flow;
  if (!route(src, dst, extra_links.size(), flow.path)) {
    return Error{"no route from " + nodes_[src.value] + " to " + nodes_[dst.value]};
  }
  sim::SimTime latency = sim::SimTime::zero();
  for (std::size_t link_idx : flow.path) latency += links_[link_idx].latency;
  for (LinkId extra : extra_links) {
    SODA_EXPECTS(extra.value < links_.size());
    flow.path.push_back(extra.value);
  }

  settle_progress();
  flow.id = FlowId{next_flow_id_++};
  flow.total_bytes = bytes;
  flow.remaining_bytes = static_cast<double>(bytes);
  flow.cap_bps = std::isinf(rate_cap_mbps)
                     ? std::numeric_limits<double>::infinity()
                     : mbps_to_bytes_per_sec(rate_cap_mbps);
  flow.latency = latency;
  flow.ready_at = sim::SimTime::max();
  flow.on_complete = std::move(on_complete);
  const FlowId id = flow.id;
  flows_.push_back(std::move(flow));
  reallocate_and_schedule();
  return id;
}

bool FlowNetwork::cancel_flow(FlowId flow) {
  auto it = std::find_if(flows_.begin(), flows_.end(),
                         [&](const Flow& f) { return f.id == flow; });
  if (it == flows_.end()) return false;
  settle_progress();
  flows_.erase(it);
  reallocate_and_schedule();
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

void FlowNetwork::reallocate_and_schedule() {
  const sim::SimTime now = engine_.now();
  const std::size_t flow_count = flows_.size();
  frozen_.assign(flow_count, true);
  capped_.clear();
  in_use_index_.resize(links_.size(), kNotInUse);
  std::size_t links_in_use = 0;
  std::size_t unfrozen = 0;

  // Drained flows (and zero-hop flows, which see no link constraint) no
  // longer compete for bandwidth; they only wait out their path latency.
  // ready_at is pinned the first time a flow drains and never moves again.
  // A competing flow joins the list of every link it crosses, once per time
  // its path lists the link. Only those links take part in the filling: a
  // drained flow's rate is +0.0, and x - 0.0 == x, so leaving it out of the
  // residuals changes no bit.
  for (std::size_t f = 0; f < flow_count; ++f) {
    Flow& flow = flows_[f];
    flow.rate_bps = 0;
    if (flow.remaining_bytes <= kEpsilonBytes || flow.path.empty()) {
      if (flow.ready_at == sim::SimTime::max()) flow.ready_at = now + flow.latency;
      continue;
    }
    frozen_[f] = false;
    ++unfrozen;
    if (std::isfinite(flow.cap_bps)) capped_.push_back(f);
    for (std::size_t l : flow.path) {
      std::size_t& index = in_use_index_[l];
      if (index == kNotInUse) {
        index = links_in_use++;
        if (in_use_.size() < links_in_use) in_use_.emplace_back();
        LinkInUse& fresh = in_use_[index];
        fresh.link = l;
        fresh.flows.clear();
        fresh.residual = links_[l].capacity_bps;
        fresh.demand = 0;
        fresh.stale = false;
      }
      LinkInUse& used = in_use_[index];
      used.flows.push_back(f);
      ++used.demand;
    }
  }

  // --- Max-min fair allocation with per-flow caps (progressive filling). ---
  // Each round's residual is the link's capacity minus its frozen flows'
  // rates, subtracted in flow order. A link is rebuilt that way only when
  // one of its flows froze in the previous round; subtracting new rates
  // from a running residual would reorder the subtractions whenever a
  // lower-index flow froze after a higher-index one.
  while (unfrozen > 0) {
    // Fair share offered by the tightest link crossed by any unfrozen flow.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < links_in_use; ++u) {
      LinkInUse& used = in_use_[u];
      if (used.demand == 0) continue;
      if (used.stale) {
        double residual = links_[used.link].capacity_bps;
        for (std::size_t f : used.flows) {
          if (frozen_[f]) residual -= flows_[f].rate_bps;
        }
        used.residual = residual;
        used.stale = false;
      }
      used.share =
          std::max(0.0, used.residual) / static_cast<double>(used.demand);
      bottleneck_share = std::min(bottleneck_share, used.share);
    }
    SODA_ENSURES(std::isfinite(bottleneck_share));  // every unfrozen flow has links

    // Smallest unfrozen cap competes with the link bottleneck.
    double min_cap = std::numeric_limits<double>::infinity();
    for (std::size_t f : capped_) {
      if (!frozen_[f]) min_cap = std::min(min_cap, flows_[f].cap_bps);
    }

    just_frozen_.clear();
    if (min_cap <= bottleneck_share) {
      // Cap-limited flows take their cap and stop competing.
      for (std::size_t f : capped_) {
        if (!frozen_[f] && flows_[f].cap_bps <= bottleneck_share) {
          flows_[f].rate_bps = flows_[f].cap_bps;
          frozen_[f] = true;
          just_frozen_.push_back(f);
        }
      }
    } else {
      // Freeze every unfrozen flow crossing a link at the bottleneck share.
      for (std::size_t u = 0; u < links_in_use; ++u) {
        const LinkInUse& used = in_use_[u];
        if (used.demand == 0 || used.share > bottleneck_share * (1 + 1e-12)) {
          continue;
        }
        for (std::size_t f : used.flows) {
          if (frozen_[f]) continue;
          flows_[f].rate_bps = bottleneck_share;
          frozen_[f] = true;
          just_frozen_.push_back(f);
        }
      }
    }
    SODA_ENSURES(!just_frozen_.empty());  // each round must make progress
    unfrozen -= just_frozen_.size();
    for (std::size_t f : just_frozen_) {
      for (std::size_t l : flows_[f].path) {
        LinkInUse& used = in_use_[in_use_index_[l]];
        --used.demand;
        used.stale = true;
      }
    }
  }
  for (std::size_t u = 0; u < links_in_use; ++u) {
    in_use_index_[in_use_[u].link] = kNotInUse;
  }

  // Project completion times for still-transmitting flows. The projected
  // transfer time is floored at 1 ns: SimTime truncates to integer
  // nanoseconds, and a zero-length step would fire the completion event at
  // the same timestamp without draining any bytes — forever.
  for (Flow& flow : flows_) {
    if (flow.remaining_bytes > kEpsilonBytes && !flow.path.empty()) {
      if (flow.rate_bps > 0) {
        const sim::SimTime transfer = std::max(
            sim::SimTime::nanoseconds(1),
            sim::SimTime::seconds(flow.remaining_bytes / flow.rate_bps));
        flow.ready_at = now + transfer + flow.latency;
      } else {
        flow.ready_at = sim::SimTime::max();
      }
    }
  }

  // --- Schedule the earliest completion. ---
  if (event_scheduled_) {
    engine_.cancel(pending_event_);
    event_scheduled_ = false;
  }
  sim::SimTime earliest = sim::SimTime::max();
  for (const Flow& flow : flows_) earliest = std::min(earliest, flow.ready_at);
  if (earliest < sim::SimTime::max()) {
    pending_event_ = engine_.schedule_at(std::max(earliest, now),
                                         [this] { on_completion_event(); });
    event_scheduled_ = true;
  }
}

void FlowNetwork::on_completion_event() {
  event_scheduled_ = false;
  settle_progress();
  const sim::SimTime now = engine_.now();
  // Collect finished flows first: completion callbacks may start new flows,
  // which mutates flows_. A flow is finished when its bytes have drained AND
  // its pinned latency deadline has passed. Flows that drained exactly now
  // still owe their latency; reallocate pins their ready_at below. One
  // compaction pass keeps the survivors in order.
  std::vector<Flow> done = std::move(done_);
  std::size_t kept = 0;
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    Flow& flow = flows_[f];
    const bool drained = flow.remaining_bytes <= kEpsilonBytes || flow.path.empty();
    if (drained && flow.ready_at <= now) {
      done.push_back(std::move(flow));
    } else {
      if (f != kept) flows_[kept] = std::move(flow);
      ++kept;
    }
  }
  flows_.resize(kept);
  reallocate_and_schedule();
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
