#include "chaos/dsl.hpp"

#include <cstdio>
#include <cstdlib>

#include "scenario/scenario.hpp"
#include "util/strings.hpp"

namespace soda::chaos {

namespace {

/// Shortest exact decimal for the quantized values the generator draws
/// (quarters and twentieths round-trip through %g / strtod bit-exactly).
std::string num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

std::string render_phase(const workload::TrafficPhase& phase) {
  using Shape = workload::TrafficPhase::Shape;
  const std::string seconds = num(phase.seconds);
  switch (phase.shape) {
    case Shape::kConstant:
      return "const:" + num(phase.rate) + "x" + seconds;
    case Shape::kBurst:
      return "burst:" + num(phase.rate) + "x" + seconds;
    case Shape::kRamp:
      return "ramp:" + num(phase.rate) + ".." + num(phase.rate_to) + "x" +
             seconds;
    case Shape::kDiurnal: {
      std::string spec = "diurnal:" + num(phase.rate) + "~" +
                         num(phase.amplitude) + "x" + seconds;
      if (phase.period_s != phase.seconds) {
        spec += '/';
        spec += num(phase.period_s);
      }
      return spec;
    }
  }
  return "";
}

Result<std::uint64_t> option_u64(const std::string& arg,
                                 std::string_view prefix) {
  if (!util::starts_with(arg, prefix)) {
    return Error{"expected option " + std::string(prefix) + "N, got '" + arg +
                 "'"};
  }
  // 2^64 and above do not convert to std::uint64_t.
  const auto value = util::parse_double(arg.substr(prefix.size()));
  if (!value || *value < 0 || *value >= 0x1p64) {
    return Error{"bad option '" + arg + "'"};
  }
  return static_cast<std::uint64_t>(*value);
}

}  // namespace

workload::TrafficTrace trace_from_phases(
    const std::vector<workload::TrafficPhase>& phases) {
  using Shape = workload::TrafficPhase::Shape;
  workload::TrafficTrace trace;
  for (const workload::TrafficPhase& phase : phases) {
    switch (phase.shape) {
      case Shape::kConstant: trace.constant(phase.rate, phase.seconds); break;
      case Shape::kBurst: trace.burst(phase.rate, phase.seconds); break;
      case Shape::kRamp:
        trace.ramp(phase.rate, phase.rate_to, phase.seconds);
        break;
      case Shape::kDiurnal:
        trace.diurnal(phase.rate, phase.amplitude, phase.seconds,
                      phase.period_s);
        break;
    }
  }
  return trace;
}

std::string render_trace_spec(
    const std::vector<workload::TrafficPhase>& phases) {
  std::string spec;
  for (const workload::TrafficPhase& phase : phases) {
    if (!spec.empty()) spec += ",";
    spec += render_phase(phase);
  }
  return spec;
}

std::string render_dsl(const ChaosSpec& spec) {
  std::string out = "# chaos seed " + std::to_string(spec.seed) + "\n";
  if (!spec.snapshot.empty()) {
    // Warm-start header: replay restores the pre-fault world from this
    // chaos checkpoint instead of rebuilding it (paths with a leading '#'
    // or embedded newlines cannot be expressed and are not produced).
    out += "# snapshot: " + spec.snapshot + "\n";
  }
  out += "placement " +
         std::string(core::placement_policy_name(spec.placement)) + "\n";
  for (int i = 0; i < static_cast<int>(spec.hosts.size()); ++i) {
    out += std::string("host ") +
           (spec.hosts[static_cast<std::size_t>(i)].big ? "seattle"
                                                        : "tacoma") +
           " 10.0." + std::to_string(i + 1) + ".0 16\n";
  }
  if (!spec.services.empty()) {
    out += "repo asp-repo\n";
    out += "asp chaos key\n";
    out += "publish web content-mb=" + std::to_string(spec.content_mb) + "\n";
    for (const ChaosService& service : spec.services) {
      out += "create " + service.name + " web n=" +
             std::to_string(service.units) + "\n";
      if (service.policy != "weighted-round-robin" || service.policy_seed) {
        out += "switch-policy " + service.name + " " + service.policy;
        if (service.policy_seed) {
          out += " seed=" + std::to_string(service.policy_seed);
        }
        out += "\n";
      }
      if (!service.trace.empty()) {
        out += "traffic " + service.name + " " +
               render_trace_spec(service.trace) +
               " seed=" + std::to_string(service.traffic_seed) + "\n";
      }
    }
  }
  double t = 0;
  for (const ChaosFault& fault : spec.faults) {
    if (fault.at_s > t) {
      out += "advance " + num(fault.at_s - t) + "\n";
      t = fault.at_s;
    }
    switch (fault.kind) {
      case core::FaultKind::kHostCrash:
        out += "crash-host " + chaos_host_name(spec, fault.host) + "\n";
        break;
      case core::FaultKind::kHostRecover:
        out += "recover-host " + chaos_host_name(spec, fault.host) + "\n";
        break;
      case core::FaultKind::kSlowHost:
        if (fault.severity == 1.0) {
          out += "restore-host " + chaos_host_name(spec, fault.host) + "\n";
        } else {
          out += "slow-host " + chaos_host_name(spec, fault.host) + " " +
                 num(fault.severity) + "\n";
        }
        break;
      case core::FaultKind::kLossyLink:
        out += "lossy-link " + chaos_host_name(spec, fault.host) + " " +
               num(fault.severity) + "\n";
        break;
      case core::FaultKind::kGuestCrash: {
        const std::size_t slash = fault.node.find('/');
        out += "crash " + fault.node.substr(0, slash) + " " +
               fault.node.substr(slash + 1) + "\n";
        break;
      }
    }
  }
  if (spec.horizon_s > t) out += "advance " + num(spec.horizon_s - t) + "\n";
  out += "detect\n";
  return out;
}

Result<ChaosSpec> parse_dsl(std::string_view text) {
  auto scenario = core::Scenario::parse(text);
  if (!scenario.ok()) return scenario.error();

  ChaosSpec spec;
  // The seed and warm-start checkpoint travel in header comments — no verb
  // carries them.
  for (const auto& line : util::split(text, '\n')) {
    const std::string_view trimmed = util::trim(line);
    constexpr std::string_view kSeedHeader = "# chaos seed ";
    constexpr std::string_view kSnapshotHeader = "# snapshot: ";
    if (util::starts_with(trimmed, kSeedHeader)) {
      spec.seed = std::strtoull(
          std::string(trimmed.substr(kSeedHeader.size())).c_str(), nullptr,
          10);
    } else if (util::starts_with(trimmed, kSnapshotHeader)) {
      spec.snapshot = std::string(trimmed.substr(kSnapshotHeader.size()));
    }
  }

  double t = 0;
  const auto host_index = [&](const std::string& name) -> int {
    for (int i = 0; i < static_cast<int>(spec.hosts.size()); ++i) {
      if (chaos_host_name(spec, i) == name) return i;
    }
    return -1;
  };
  const auto service_of = [&](const std::string& name) -> ChaosService* {
    for (ChaosService& service : spec.services) {
      if (service.name == name) return &service;
    }
    return nullptr;
  };
  const auto fault_at = [&](const core::FaultKind kind,
                            const std::string& host) -> Result<ChaosFault> {
    const int index = host_index(host);
    if (index < 0) return Error{"unknown chaos host '" + host + "'"};
    ChaosFault fault;
    fault.at_s = t;
    fault.kind = kind;
    fault.host = index;
    return fault;
  };

  for (const core::ScenarioCommand& cmd : scenario.value().commands()) {
    const auto fail = [&](const std::string& what) {
      return Error{"line " + std::to_string(cmd.line) + ": " + what};
    };
    if (cmd.verb == "placement") {
      const auto policy = core::parse_placement_policy(cmd.args[0]);
      if (!policy) return fail("unknown placement '" + cmd.args[0] + "'");
      spec.placement = *policy;
    } else if (cmd.verb == "host") {
      if (cmd.args[0] != "seattle" && cmd.args[0] != "tacoma") {
        return fail("unknown host spec '" + cmd.args[0] + "'");
      }
      spec.hosts.push_back(ChaosHost{cmd.args[0] == "seattle"});
    } else if (cmd.verb == "repo" || cmd.verb == "asp" ||
               cmd.verb == "detect") {
      // Fixed scaffolding in rendered reproducers; nothing spec-bearing.
    } else if (cmd.verb == "publish") {
      if (cmd.args.size() == 2) {
        auto mb = option_u64(cmd.args[1], "content-mb=");
        if (!mb.ok()) return fail(mb.error().message);
        spec.content_mb = static_cast<int>(mb.value());
      }
    } else if (cmd.verb == "create") {
      ChaosService service;
      service.name = cmd.args[0];
      auto n = option_u64(cmd.args[2], "n=");
      if (!n.ok()) return fail(n.error().message);
      service.units = static_cast<int>(n.value());
      spec.services.push_back(std::move(service));
    } else if (cmd.verb == "switch-policy") {
      ChaosService* service = service_of(cmd.args[0]);
      if (!service) return fail("unknown service '" + cmd.args[0] + "'");
      service->policy = cmd.args[1];
      if (cmd.args.size() == 3) {
        auto seed = option_u64(cmd.args[2], "seed=");
        if (!seed.ok()) return fail(seed.error().message);
        service->policy_seed = seed.value();
      }
    } else if (cmd.verb == "traffic") {
      ChaosService* service = service_of(cmd.args[0]);
      if (!service) return fail("unknown service '" + cmd.args[0] + "'");
      auto trace = workload::TrafficTrace::parse(cmd.args[1]);
      if (!trace.ok()) return fail(trace.error().message);
      service->trace = trace.value().phases();
      for (std::size_t i = 2; i < cmd.args.size(); ++i) {
        auto seed = option_u64(cmd.args[i], "seed=");
        if (!seed.ok()) return fail(seed.error().message);
        service->traffic_seed = seed.value();
      }
    } else if (cmd.verb == "advance") {
      const auto seconds = util::parse_double(cmd.args[0]);
      if (!seconds || *seconds < 0) return fail("bad advance");
      t += *seconds;
    } else if (cmd.verb == "crash-host" || cmd.verb == "recover-host" ||
               cmd.verb == "restore-host") {
      auto fault = fault_at(cmd.verb == "recover-host"
                                ? core::FaultKind::kHostRecover
                                : cmd.verb == "crash-host"
                                      ? core::FaultKind::kHostCrash
                                      : core::FaultKind::kSlowHost,
                            cmd.args[0]);
      if (!fault.ok()) return fail(fault.error().message);
      spec.faults.push_back(std::move(fault).value());
    } else if (cmd.verb == "slow-host" || cmd.verb == "lossy-link") {
      auto fault = fault_at(cmd.verb == "slow-host"
                                ? core::FaultKind::kSlowHost
                                : core::FaultKind::kLossyLink,
                            cmd.args[0]);
      if (!fault.ok()) return fail(fault.error().message);
      const auto factor = util::parse_double(cmd.args[1]);
      if (!factor || !(*factor > 0)) return fail("bad factor");
      fault.value().severity = *factor;
      spec.faults.push_back(std::move(fault).value());
    } else if (cmd.verb == "crash") {
      ChaosFault fault;
      fault.at_s = t;
      fault.kind = core::FaultKind::kGuestCrash;
      fault.node = cmd.args[0] + "/" + cmd.args[1];
      spec.faults.push_back(std::move(fault));
    } else {
      return fail("verb '" + cmd.verb + "' has no chaos-spec meaning");
    }
  }
  spec.horizon_s = t;

  if (auto valid = validate_spec(spec); !valid.ok()) return valid.error();
  return spec;
}

}  // namespace soda::chaos
