// The chaos fuzzer's scenario value type (DESIGN.md §13): one ChaosSpec is a
// complete, self-contained experiment — fleet topology, services with their
// switch policies and traffic traces, a placement policy, and a timed fault
// schedule — derived deterministically from a single uint64 seed. Specs are
// plain comparable data so the Shrinker can bisect them and tests can assert
// that shrinking is deterministic; every numeric field is quantized (integer
// rates, quarter-second times, twentieth-step factors) so the scenario-DSL
// rendering in chaos/dsl round-trips bit-exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/placement.hpp"
#include "workload/traffic.hpp"

namespace soda::chaos {

/// One HUP host: the paper's two machine classes.
struct ChaosHost {
  bool big = true;  // seattle-class (2.6 GHz / 2 GB) vs tacoma-class

  friend bool operator==(const ChaosHost&, const ChaosHost&) = default;
};

/// One service: <units, fig2-small-unit> with a switch policy and an
/// open-loop traffic trace driven while faults fire.
struct ChaosService {
  std::string name;
  int units = 1;
  /// A make_switch_policy_by_name() name; `policy_seed` feeds "random" only
  /// (0 for the deterministic policies, so specs compare cleanly).
  std::string policy = "weighted-round-robin";
  std::uint64_t policy_seed = 0;
  /// Open-loop arrival trace (empty = no load on this service).
  std::vector<workload::TrafficPhase> trace;
  std::uint64_t traffic_seed = 1;

  friend bool operator==(const ChaosService&, const ChaosService&) = default;
};

/// One scheduled fault, at `at_s` seconds after every service is running.
struct ChaosFault {
  double at_s = 0;
  core::FaultKind kind = core::FaultKind::kHostCrash;
  /// Host index into ChaosSpec::hosts (host-kind faults; 0 for guest
  /// crashes).
  int host = 0;
  /// Node name for kGuestCrash ("svc0/1"); empty for host-kind faults.
  std::string node;
  /// Slow-host / lossy-link uplink factor; 1.0 elsewhere.
  double severity = 1.0;

  friend bool operator==(const ChaosFault&, const ChaosFault&) = default;
};

/// A complete generated scenario. Faults are kept sorted by at_s.
struct ChaosSpec {
  std::uint64_t seed = 0;
  core::PlacementPolicy placement = core::PlacementPolicy::kWorstFit;
  int content_mb = 1;
  /// Run length after T0 (service creation done, detector armed); recovery
  /// headroom past the last fault.
  double horizon_s = 5;
  /// Optional path to a chaos checkpoint (chaos/checkpoint.hpp) to
  /// warm-start from instead of building the world: travels as a
  /// `# snapshot:` header in rendered reproducers, so a shrunk reproducer
  /// can replay against the exact pre-fault world it was found in.
  std::string snapshot;
  std::vector<ChaosHost> hosts;
  std::vector<ChaosService> services;
  std::vector<ChaosFault> faults;

  friend bool operator==(const ChaosSpec&, const ChaosSpec&) = default;
};

/// The scripted-host naming rule of scenario/scenario's `host` verb,
/// mirrored so rendered reproducers name the same hosts the runner builds:
/// host 0 is named after its class ("seattle"/"tacoma"), later hosts append
/// their global index ("tacoma-2").
std::string chaos_host_name(const ChaosSpec& spec, int index);

/// Structural validity: >= 1 host, unique service names, fault host indices
/// in range, positive slow/lossy factors, sorted fault times, quantized
/// horizon. The generator always produces valid specs; the Shrinker uses
/// this to refuse degenerate candidates.
Status validate_spec(const ChaosSpec& spec);

}  // namespace soda::chaos
