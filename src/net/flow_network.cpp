#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

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
  return NodeId{nodes_.size() - 1};
}

LinkId FlowNetwork::add_link(NodeId from, NodeId to, double capacity_mbps,
                             sim::SimTime latency) {
  SODA_EXPECTS(from.value < nodes_.size() && to.value < nodes_.size());
  SODA_EXPECTS(capacity_mbps > 0);
  links_.push_back(Link{from, to, mbps_to_bytes_per_sec(capacity_mbps), latency});
  out_links_[from.value].push_back(links_.size() - 1);
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

std::optional<std::vector<std::size_t>> FlowNetwork::route(NodeId src,
                                                           NodeId dst) const {
  if (src == dst) return std::vector<std::size_t>{};
  // BFS by hop count over topology links.
  std::vector<std::size_t> via_link(nodes_.size(), SIZE_MAX);
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<std::size_t> frontier{src.value};
  seen[src.value] = true;
  while (!frontier.empty()) {
    const std::size_t node = frontier.front();
    frontier.pop_front();
    for (std::size_t link_idx : out_links_[node]) {
      const std::size_t next = links_[link_idx].to.value;
      if (seen[next]) continue;
      seen[next] = true;
      via_link[next] = link_idx;
      if (next == dst.value) {
        std::vector<std::size_t> path;
        for (std::size_t at = dst.value; at != src.value;
             at = links_[via_link[at]].from.value) {
          path.push_back(via_link[at]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(next);
    }
  }
  return std::nullopt;
}

Result<FlowId> FlowNetwork::start_flow(NodeId src, NodeId dst,
                                       std::int64_t bytes,
                                       CompletionCallback on_complete,
                                       double rate_cap_mbps,
                                       std::vector<LinkId> extra_links) {
  SODA_EXPECTS(src.value < nodes_.size() && dst.value < nodes_.size());
  SODA_EXPECTS(bytes >= 0);
  SODA_EXPECTS(on_complete != nullptr);
  SODA_EXPECTS(rate_cap_mbps > 0);

  auto path = route(src, dst);
  if (!path) {
    return Error{"no route from " + nodes_[src.value] + " to " + nodes_[dst.value]};
  }
  sim::SimTime latency = sim::SimTime::zero();
  for (std::size_t link_idx : *path) latency += links_[link_idx].latency;
  for (LinkId extra : extra_links) {
    SODA_EXPECTS(extra.value < links_.size());
    path->push_back(extra.value);
  }

  settle_progress();
  Flow flow;
  flow.id = FlowId{next_flow_id_++};
  flow.path = std::move(*path);
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
  std::vector<bool> frozen(flow_count, false);
  std::size_t frozen_count = 0;

  // Drained flows (and zero-hop flows, which see no link constraint) no
  // longer compete for bandwidth; they only wait out their path latency.
  // ready_at is pinned the first time a flow drains and never moves again.
  for (std::size_t f = 0; f < flow_count; ++f) {
    Flow& flow = flows_[f];
    if (flow.remaining_bytes <= kEpsilonBytes || flow.path.empty()) {
      flow.rate_bps = 0;
      if (flow.ready_at == sim::SimTime::max()) flow.ready_at = now + flow.latency;
      frozen[f] = true;
      ++frozen_count;
    } else {
      flow.rate_bps = 0;
    }
  }

  // --- Max-min fair allocation with per-flow caps (progressive filling). ---
  while (frozen_count < flow_count) {
    // Residual capacity per link and unfrozen-flow count per link.
    std::vector<double> residual(links_.size());
    std::vector<std::size_t> demand(links_.size(), 0);
    for (std::size_t l = 0; l < links_.size(); ++l) {
      residual[l] = links_[l].capacity_bps;
    }
    for (std::size_t f = 0; f < flow_count; ++f) {
      for (std::size_t l : flows_[f].path) {
        if (frozen[f]) {
          residual[l] -= flows_[f].rate_bps;
        } else {
          ++demand[l];
        }
      }
    }

    // Fair share offered by the tightest link crossed by any unfrozen flow.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < links_.size(); ++l) {
      if (demand[l] == 0) continue;
      bottleneck_share =
          std::min(bottleneck_share,
                   std::max(0.0, residual[l]) / static_cast<double>(demand[l]));
    }
    SODA_ENSURES(std::isfinite(bottleneck_share));  // every unfrozen flow has links

    // Smallest unfrozen cap competes with the link bottleneck.
    double min_cap = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < flow_count; ++f) {
      if (!frozen[f]) min_cap = std::min(min_cap, flows_[f].cap_bps);
    }

    bool froze_any = false;
    if (min_cap <= bottleneck_share) {
      // Cap-limited flows take their cap and stop competing.
      for (std::size_t f = 0; f < flow_count; ++f) {
        if (!frozen[f] && flows_[f].cap_bps <= bottleneck_share) {
          flows_[f].rate_bps = flows_[f].cap_bps;
          frozen[f] = true;
          ++frozen_count;
          froze_any = true;
        }
      }
    } else {
      // Freeze every unfrozen flow crossing a link at the bottleneck share.
      for (std::size_t l = 0; l < links_.size(); ++l) {
        if (demand[l] == 0) continue;
        const double share =
            std::max(0.0, residual[l]) / static_cast<double>(demand[l]);
        if (share <= bottleneck_share * (1 + 1e-12)) {
          for (std::size_t f = 0; f < flow_count; ++f) {
            if (frozen[f]) continue;
            if (std::find(flows_[f].path.begin(), flows_[f].path.end(), l) !=
                flows_[f].path.end()) {
              flows_[f].rate_bps = bottleneck_share;
              frozen[f] = true;
              ++frozen_count;
              froze_any = true;
            }
          }
        }
      }
    }
    SODA_ENSURES(froze_any);  // each round must make progress
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
  // still owe their latency; reallocate pins their ready_at below.
  std::vector<Flow> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    const bool drained = it->remaining_bytes <= kEpsilonBytes || it->path.empty();
    if (drained && it->ready_at <= now) {
      done.push_back(std::move(*it));
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  reallocate_and_schedule();
  for (Flow& flow : done) {
    bytes_delivered_ += flow.total_bytes;
    flow.on_complete(now);
  }
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
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (links_[i].from.valid()) out_links_[links_[i].from.value].push_back(i);
    }
    event_scheduled_ = false;
    pending_event_ = {};
  }
}
template void FlowNetwork::serialize(snapshot::Writer&);
template void FlowNetwork::serialize(snapshot::Reader&);

}  // namespace soda::net
