// Scenario-DSL bridge: renders a ChaosSpec as a scenario/scenario script (the
// replayable reproducer the Shrinker emits) and parses such a script back
// into the identical spec. Because the generator only draws quantized
// numbers (integer rates, quarter-second times, twentieth-step factors),
// `parse_dsl(render_dsl(spec)) == spec` holds bit-exactly — a shrunk
// reproducer on disk is the scenario, not an approximation of it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "chaos/spec.hpp"

namespace soda::chaos {

/// Rebuilds a TrafficTrace from stored phases (the builders are the only
/// way to construct one, so specs store the phase list).
workload::TrafficTrace trace_from_phases(
    const std::vector<workload::TrafficPhase>& phases);

/// The compact trace spec ("const:80x1.5,burst:40x0.5") for `phases`, in
/// the grammar TrafficTrace::parse accepts.
std::string render_trace_spec(const std::vector<workload::TrafficPhase>& phases);

/// Renders the spec as a core::Scenario script: hosts, asp registration,
/// service creations with switch-policy and traffic lines, then the fault
/// timeline as advance/crash/recover/slow/lossy verbs, ending in `detect`.
std::string render_dsl(const ChaosSpec& spec);

/// Parses a script produced by render_dsl back into the spec (validating it
/// through core::Scenario::parse first). Exact inverse of render_dsl.
Result<ChaosSpec> parse_dsl(std::string_view text);

}  // namespace soda::chaos
