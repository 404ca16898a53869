// Placement planning (paper §3.2's mapping of <n, M> onto n' <= n virtual
// service nodes), extracted from the Master into one planner. Every policy
// is one strict total order over the live hosts: each host gets three keys
// per decision (cached chunks of the image, a policy-signed spare-CPU key,
// registration index) and one comparator ranks them. Ties break on
// registration order, so two equal hosts place identically across repeated
// runs and under the parallel experiment runner.
//
// Fleet-scale layout (DESIGN.md §11): the keys are computed once per host —
// never inside a comparator — into a candidate scratch buffer reused across
// calls, and every consumer (admission, partitioned admission, resize
// growth, recovery) reads the order through one lazy walk over a binary
// heap: O(hosts) to build, one O(log hosts) pop per host actually
// considered. A steady-state placement decision over 10k hosts is one
// linear key pass plus a handful of heap pops with zero heap allocations
// (see plan_allocation_into and bench/fig_fleet).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.hpp"
#include "core/ids.hpp"
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

/// One live host under consideration. Its sort keys are computed once per
/// decision, so the comparator is pure arithmetic over them.
struct PlacementCandidate {
  SodaDaemon* daemon = nullptr;
  /// Spare CPU signed by policy: itself for best-fit, negated for worst-fit
  /// and cache-affinity, 0 for first-fit. Lower ranks first.
  double spare_key = 0.0;
  std::uint32_t cached_chunks = 0;  // cache-affinity with a manifest, else 0
  std::uint32_t index = 0;          // position among live hosts (tie-break)
};

/// The planner: pure planning over the registered daemons (nothing is
/// reserved), shared by creation, resizing, and recovery. It reads the
/// Master's daemon list and down-host bitset by reference, so it always
/// plans against the live HUP view.
class PlacementPlanner {
 public:
  PlacementPlanner(const std::vector<SodaDaemon*>& daemons,
                   const HostSet& down_hosts, PlacementPolicy policy,
                   double slowdown_factor, int max_nodes_per_service);

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
  /// Fills the candidate scratch with the live hosts' keys and heapifies it.
  void rank_hosts(const image::ImageManifest* manifest) const;
  /// The host at `rank` in placement order (0 = most preferred), or nullptr
  /// past the last live host. Pops the heap only as far as `rank`; popped
  /// hosts collect at the back, so rank r sits at size - 1 - r.
  [[nodiscard]] SodaDaemon* walk(std::size_t rank) const;
  /// The packing loop shared by admission and growth: walks the order,
  /// skips hosts `skip` rejects, places as many units as fit, and stops at
  /// `max_nodes` nodes. Returns the units that did not fit.
  template <typename Skip>
  int pack(const host::ResourceVector& unit, int n, int max_nodes, Skip skip,
           std::vector<Placement>& out) const;

  const std::vector<SodaDaemon*>& daemons_;
  const HostSet& down_hosts_;
  PlacementPolicy policy_;
  double slowdown_factor_;
  int max_nodes_per_service_;
  /// Scratch reused across planning calls (capacity-stable; the planner is
  /// confined to the simulation thread like the rest of the control plane).
  mutable std::vector<PlacementCandidate> candidates_;
  mutable std::size_t popped_ = 0;  // hosts walk() has taken off the heap
  mutable std::vector<host::ResourceVector> planned_;  // plan_components only
};

}  // namespace soda::core
