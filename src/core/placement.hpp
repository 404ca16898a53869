// Placement planning (paper §3.2's mapping of <n, M> onto n' <= n virtual
// service nodes), extracted from the Master into one planner. Every policy
// is one strict total order over the live hosts: each host has three keys
// (cached chunks of the image, a policy-signed spare-CPU key, registration
// index) and one comparator ranks them. Ties break on registration order,
// so two equal hosts place identically across repeated runs and under the
// parallel experiment runner.
//
// Fleet-scale layout (DESIGN.md §11): the planner keeps every registered
// host in one ranking between decisions, a std::set ordered by (spare key,
// HostId). Each host lists itself in the planner's HostChanges whenever
// its reserved aggregate changes, and a decision first re-keys only the
// listed hosts (node-handle extract/insert, no allocation). Every consumer
// (admission, partitioned admission, resize growth, recovery) then reads
// the order through one walk that skips down hosts as it meets them. A
// decision costs O(changed · log hosts + hosts read), with zero heap
// allocations (see plan_allocation_into and bench/fig_fleet). Only
// cache-affinity with a manifest ranks per decision: its chunk key depends
// on the image, so it fills a candidate buffer once per host and pops a
// binary heap only as far as it reads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.hpp"
#include "core/ids.hpp"
#include "host/host.hpp"
#include "host/resources.hpp"
#include "image/chunk.hpp"
#include "image/image.hpp"
#include "util/result.hpp"

namespace soda::core {

class SodaDaemon;

/// How the Master orders hosts when placing slices.
enum class PlacementPolicy {
  kFirstFit,       // registration order
  kBestFit,        // least spare CPU first (pack tightly)
  kWorstFit,       // most spare CPU first (spread load)
  kCacheAffinity,  // most image chunks already cached first (cheap priming)
};

std::string_view placement_policy_name(PlacementPolicy policy) noexcept;
/// Inverse of placement_policy_name: the policy a name spells, or nullopt
/// for a name no policy has.
std::optional<PlacementPolicy> parse_placement_policy(
    std::string_view name) noexcept;

/// One planned (or live) node placement.
struct Placement {
  SodaDaemon* daemon = nullptr;
  std::string node_name;
  int units = 1;
  std::string component;  // partitioned services only
};

template <typename T>
using ApiResult = Result<T, ApiError>;

/// How many machine instances of `unit` fit into `avail`.
[[nodiscard]] int units_that_fit(const host::ResourceVector& avail,
                                 const host::ResourceVector& unit) noexcept;

/// One host in the placement order. Its keys are computed when its
/// availability changes (or once per decision for cache-affinity with a
/// manifest), so the comparator is pure arithmetic over them.
struct PlacementCandidate {
  SodaDaemon* daemon = nullptr;
  /// Spare CPU signed by policy: itself for best-fit, negated for worst-fit
  /// and cache-affinity, 0 for first-fit. Lower ranks first.
  double spare_key = 0.0;
  std::uint32_t cached_chunks = 0;  // cache-affinity with a manifest, else 0
  std::uint32_t index = 0;          // the host's HostId (tie-break)
};

/// The one placement order: more cached chunks first, then the lower spare
/// key, then the lower index.
struct RanksBefore {
  bool operator()(const PlacementCandidate& a,
                  const PlacementCandidate& b) const noexcept;
};

/// The planner: pure planning over the registered daemons (nothing is
/// reserved), shared by creation, resizing, and recovery. It ranks every
/// daemon the Master registers and reads the Master's down-host bitset by
/// reference, so it always plans against the live HUP view.
class PlacementPlanner {
 public:
  PlacementPlanner(const HostSet& down_hosts, PlacementPolicy policy,
                   double slowdown_factor, int max_nodes_per_service);
  PlacementPlanner(const PlacementPlanner&) = delete;
  PlacementPlanner& operator=(const PlacementPlanner&) = delete;

  /// Ranks a newly registered daemon under its HostId and has its host
  /// report every later availability change to this planner. Call once per
  /// daemon, in HostId order.
  void add_host(SodaDaemon& daemon);

  /// The inflated per-unit reservation for `m` (paper footnote 2: CPU and
  /// bandwidth only; memory and disk footprints are unchanged).
  [[nodiscard]] host::ResourceVector inflated_unit(
      const host::MachineConfig& m) const;

  /// How would <n, M> land on the current HUP? Error when it cannot. The
  /// manifest lets cache-affinity consult per-host chunk caches; without
  /// one that policy orders hosts as worst-fit does.
  [[nodiscard]] ApiResult<std::vector<Placement>> plan_allocation(
      std::string_view service_name, const host::ResourceRequirement& req,
      const image::ImageManifest* manifest = nullptr) const;

  /// Allocation-free variant for the admission hot path: appends the plan
  /// to `out` (cleared first; its capacity is reused) and returns the node
  /// count. At steady state — candidate scratch and `out` warm — a
  /// successful call performs zero heap allocations.
  [[nodiscard]] ApiResult<int> plan_allocation_into(
      std::string_view service_name, const host::ResourceRequirement& req,
      const image::ImageManifest* manifest, std::vector<Placement>& out) const;

  /// Planning for a partitioned image: one node per component, each sized
  /// component.units x M; a host may carry several components.
  [[nodiscard]] ApiResult<std::vector<Placement>> plan_components(
      const host::MachineConfig& m,
      const std::vector<image::ServiceComponent>& components,
      const image::ImageManifest* manifest = nullptr) const;

  /// New nodes for resize growth and recovery: packs up to `n` units of the
  /// inflated `unit` onto live hosts that hold none of `current`, appending
  /// to `out`. No node cap. Returns the units that did not fit.
  int plan_growth(const host::ResourceVector& unit, int n,
                  const std::vector<Placement>& current,
                  std::vector<Placement>& out) const;

 private:
  using Ranking = std::set<PlacementCandidate, RanksBefore>;

  /// Readies the order for one decision: re-keys the hosts whose
  /// availability changed since the last one. Cache-affinity with a
  /// manifest instead fills the candidate scratch with the live hosts' keys
  /// and heapifies it.
  void rank_hosts(const image::ImageManifest* manifest) const;
  /// The host at `rank` in placement order (0 = most preferred), or nullptr
  /// past the last live host. Steps through the ranking from a cursor,
  /// skipping down hosts; re-reading an earlier rank restarts it. The heap
  /// pops only as far as `rank`; popped hosts collect at the back, so rank
  /// r sits at size - 1 - r.
  [[nodiscard]] SodaDaemon* walk(std::size_t rank) const;
  /// `from`, or the first live host after it in the ranking.
  [[nodiscard]] Ranking::const_iterator first_live(
      Ranking::const_iterator from) const;
  /// The packing loop shared by admission and growth: walks the order,
  /// skips hosts `skip` rejects, places as many units as fit, and stops at
  /// `max_nodes` nodes. Returns the units that did not fit.
  template <typename Skip>
  int pack(const host::ResourceVector& unit, int n, int max_nodes, Skip skip,
           std::vector<Placement>& out) const;

  const HostSet& down_hosts_;
  PlacementPolicy policy_;
  double slowdown_factor_;
  int max_nodes_per_service_;
  /// The maintained order and its bookkeeping. Mutable like the scratch
  /// below: a const decision still settles the hosts' pending re-keys (the
  /// planner is confined to the simulation thread like the rest of the
  /// control plane).
  mutable Ranking ranking_;
  mutable std::vector<Ranking::iterator> entries_;  // by HostId
  std::shared_ptr<host::HostChanges> changes_ =
      std::make_shared<host::HostChanges>();
  mutable bool by_heap_ = false;  // this decision reads candidates_
  mutable Ranking::const_iterator cursor_;  // the host at cursor_rank_
  mutable std::size_t cursor_rank_ = 0;
  /// Scratch reused across planning calls (capacity-stable).
  mutable std::vector<PlacementCandidate> candidates_;
  mutable std::size_t popped_ = 0;  // hosts walk() has taken off the heap
  mutable std::vector<host::ResourceVector> planned_;  // plan_components only
};

}  // namespace soda::core
