#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "core/daemon.hpp"
#include "util/contract.hpp"

namespace soda::core {

// Under each policy the one order is exactly that policy's preference
// (negating a finite double is exact), tie for tie.
bool RanksBefore::operator()(const PlacementCandidate& a,
                             const PlacementCandidate& b) const noexcept {
  if (a.cached_chunks != b.cached_chunks) {
    return a.cached_chunks > b.cached_chunks;
  }
  if (a.spare_key != b.spare_key) return a.spare_key < b.spare_key;
  return a.index < b.index;
}

namespace {

/// Max-heap on preference: the heap's top is the most preferred host.
struct HeapAfter {
  bool operator()(const PlacementCandidate& a,
                  const PlacementCandidate& b) const noexcept {
    return RanksBefore{}(b, a);
  }
};

double spare_key_for(PlacementPolicy policy, double spare_cpu) noexcept {
  switch (policy) {
    case PlacementPolicy::kFirstFit: return 0.0;
    case PlacementPolicy::kBestFit: return spare_cpu;
    case PlacementPolicy::kWorstFit:
    case PlacementPolicy::kCacheAffinity: return -spare_cpu;
  }
  return 0.0;
}

}  // namespace

std::string_view placement_policy_name(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kBestFit: return "best-fit";
    case PlacementPolicy::kWorstFit: return "worst-fit";
    case PlacementPolicy::kCacheAffinity: return "cache-affinity";
  }
  return "unknown";
}

std::optional<PlacementPolicy> parse_placement_policy(
    std::string_view name) noexcept {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
        PlacementPolicy::kWorstFit, PlacementPolicy::kCacheAffinity}) {
    if (placement_policy_name(policy) == name) return policy;
  }
  return std::nullopt;
}

int units_that_fit(const host::ResourceVector& avail,
                   const host::ResourceVector& unit) noexcept {
  double k = std::floor(avail.cpu_mhz / unit.cpu_mhz + 1e-9);
  if (unit.memory_mb > 0) {
    k = std::min(k, std::floor(static_cast<double>(avail.memory_mb) /
                               static_cast<double>(unit.memory_mb)));
  }
  if (unit.disk_mb > 0) {
    k = std::min(k, std::floor(static_cast<double>(avail.disk_mb) /
                               static_cast<double>(unit.disk_mb)));
  }
  if (unit.bandwidth_mbps > 0) {
    k = std::min(k, std::floor(avail.bandwidth_mbps / unit.bandwidth_mbps + 1e-9));
  }
  return std::max(0, static_cast<int>(k));
}

PlacementPlanner::PlacementPlanner(const HostSet& down_hosts,
                                   PlacementPolicy policy,
                                   double slowdown_factor)
    : down_hosts_(down_hosts),
      policy_(policy),
      slowdown_factor_(slowdown_factor) {
  SODA_EXPECTS(slowdown_factor >= 1.0);
}

host::ResourceVector PlacementPlanner::inflated_unit(
    const host::MachineConfig& m) const {
  host::ResourceVector unit = m.to_vector();
  // Only processing and transmission slow down under the guest OS; memory
  // and disk footprints are unchanged (paper §3.5).
  unit.cpu_mhz *= slowdown_factor_;
  unit.bandwidth_mbps *= slowdown_factor_;
  return unit;
}

void PlacementPlanner::add_host(SodaDaemon& daemon) {
  const std::uint32_t id = daemon.host_id().value;
  SODA_EXPECTS(id == entries_.size());
  PlacementCandidate entry;
  entry.daemon = &daemon;
  entry.spare_key = spare_key_for(policy_, daemon.available().cpu_mhz);
  entry.index = id;
  entries_.push_back(ranking_.insert(entry).first);
  daemon.host().report_changes(changes_, id);
}

void PlacementPlanner::rank_hosts(const image::ImageManifest* manifest) const {
  // available() is an O(1) cached aggregate, read once per changed host
  // here rather than once per comparison. Re-keying moves the host's own
  // set node, so it allocates nothing.
  changes_->drain([this](std::uint32_t id) {
    const double key =
        spare_key_for(policy_, entries_[id]->daemon->available().cpu_mhz);
    if (key == entries_[id]->spare_key) return;
    auto node = ranking_.extract(entries_[id]);
    node.value().spare_key = key;
    entries_[id] = ranking_.insert(std::move(node)).position;
  });
  by_heap_ = policy_ == PlacementPolicy::kCacheAffinity && manifest != nullptr;
  if (!by_heap_) {
    cursor_ = first_live(ranking_.begin());
    cursor_rank_ = 0;
    return;
  }
  // Cache-affinity prefers hosts that already hold the image's chunks (the
  // Nth creation of a popular image lands where priming is nearly free).
  // That key depends on the image, so it is counted per decision.
  candidates_.clear();
  for (const PlacementCandidate& entry : ranking_) {
    if (down_hosts_.test(HostId{entry.index})) continue;
    PlacementCandidate candidate = entry;
    const auto& cache = entry.daemon->distributor().cache();
    for (const auto& chunk : manifest->chunks) {
      if (cache.contains(chunk.id)) ++candidate.cached_chunks;
    }
    candidates_.push_back(candidate);
  }
  // Lazy selection: a full sort orders all 10k hosts when a decision
  // usually consumes two or three. Popping the heap yields hosts in exactly
  // the sorted order, because the order is total.
  std::make_heap(candidates_.begin(), candidates_.end(), HeapAfter{});
  popped_ = 0;
}

PlacementPlanner::Ranking::const_iterator PlacementPlanner::first_live(
    Ranking::const_iterator from) const {
  // Hosts the failure detector has declared dead receive no placements
  // until their heartbeats resume.
  while (from != ranking_.end() && down_hosts_.test(HostId{from->index})) {
    ++from;
  }
  return from;
}

SodaDaemon* PlacementPlanner::walk(std::size_t rank) const {
  if (!by_heap_) {
    if (rank < cursor_rank_) {
      cursor_ = first_live(ranking_.begin());
      cursor_rank_ = 0;
    }
    while (cursor_rank_ < rank && cursor_ != ranking_.end()) {
      cursor_ = first_live(std::next(cursor_));
      ++cursor_rank_;
    }
    return cursor_ == ranking_.end() ? nullptr : cursor_->daemon;
  }
  const std::size_t size = candidates_.size();
  while (popped_ <= rank && popped_ < size) {
    std::pop_heap(candidates_.begin(),
                  candidates_.end() - static_cast<std::ptrdiff_t>(popped_),
                  HeapAfter{});
    ++popped_;
  }
  return rank < popped_ ? candidates_[size - 1 - rank].daemon : nullptr;
}

template <typename Skip>
int PlacementPlanner::pack(const host::ResourceVector& unit, int n,
                           int max_nodes, Skip skip,
                           std::vector<Placement>& out) const {
  int nodes = 0;
  for (std::size_t rank = 0; n > 0 && nodes < max_nodes; ++rank) {
    SodaDaemon* daemon = walk(rank);
    if (daemon == nullptr) break;
    if (skip(*daemon)) continue;
    const int k = std::min(units_that_fit(daemon->available(), unit), n);
    if (k >= 1) {
      out.push_back(Placement{daemon, "", k, {}});
      ++nodes;
      n -= k;
    }
  }
  return n;
}

ApiResult<int> PlacementPlanner::plan_allocation_into(
    std::string_view service_name, const host::ResourceRequirement& req,
    const image::ImageManifest* manifest, std::vector<Placement>& out) const {
  out.clear();
  if (req.n < 1) {
    return ApiError{ApiErrorCode::kInvalidRequest, "requirement n must be >= 1"};
  }
  rank_hosts(manifest);
  // One node per host per service: replicas on the same host would share
  // the same failure domain and buy nothing.
  const int short_by = pack(
      inflated_unit(req.m), req.n, kMaxNodesPerService,
      [service_name](const SodaDaemon& daemon) {
        return daemon.serves_service(service_name);
      },
      out);
  if (short_by > 0) {
    return ApiError{ApiErrorCode::kInsufficientResources,
                    "HUP cannot satisfy " + req.to_string() + " (short by " +
                        std::to_string(short_by) + " instance(s) of M)"};
  }
  return static_cast<int>(out.size());
}

ApiResult<std::vector<Placement>> PlacementPlanner::plan_allocation(
    std::string_view service_name, const host::ResourceRequirement& req,
    const image::ImageManifest* manifest) const {
  std::vector<Placement> plan;
  if (auto planned = plan_allocation_into(service_name, req, manifest, plan);
      !planned.ok()) {
    return planned.error();
  }
  return plan;
}

int PlacementPlanner::plan_growth(const host::ResourceVector& unit, int n,
                                  const std::vector<Placement>& current,
                                  std::vector<Placement>& out) const {
  rank_hosts(nullptr);
  return pack(
      unit, n, std::numeric_limits<int>::max(),
      [&current](const SodaDaemon& daemon) {
        return std::any_of(
            current.begin(), current.end(),
            [&daemon](const Placement& p) { return p.daemon == &daemon; });
      },
      out);
}

ApiResult<std::vector<Placement>> PlacementPlanner::plan_components(
    const host::MachineConfig& m,
    const std::vector<image::ServiceComponent>& components,
    const image::ImageManifest* manifest) const {
  SODA_EXPECTS(!components.empty());
  // available() is constant while planning (nothing is reserved), so one
  // ranking serves every component: each re-reads the order from rank 0,
  // and hypothetical usage accumulates per rank in the planned_ scratch.
  rank_hosts(manifest);
  planned_.clear();
  std::vector<Placement> plan;
  for (const auto& component : components) {
    const host::ResourceVector need = inflated_unit(m).scaled(component.units);
    bool placed = false;
    for (std::size_t rank = 0; SodaDaemon* daemon = walk(rank); ++rank) {
      if (rank == planned_.size()) planned_.emplace_back();
      if ((daemon->available() - planned_[rank]).fits(need)) {
        plan.push_back(Placement{daemon, "", component.units, component.name});
        planned_[rank] += need;
        placed = true;
        break;
      }
    }
    if (!placed) {
      return ApiError{ApiErrorCode::kInsufficientResources,
                      "no host fits component '" + component.name + "' (" +
                          need.to_string() + ")"};
    }
  }
  return plan;
}

}  // namespace soda::core
