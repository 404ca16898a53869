#include "scenario/scenario.hpp"

#include <cstdio>
#include <map>
#include <optional>

#include "core/hup.hpp"
#include "core/monitor.hpp"
#include "image/image.hpp"
#include "sim/parallel_runner.hpp"
#include "util/strings.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"
#include "workload/webservice.hpp"

namespace soda::core {

namespace {

/// verb -> {min args, max args}
const std::map<std::string, std::pair<int, int>>& verb_arity() {
  static const std::map<std::string, std::pair<int, int>> arity = {
      {"mode", {1, 1}},          // mode <bridging|proxying> (before any host)
      {"placement", {1, 1}},     // placement <first-fit|best-fit|worst-fit|cache-affinity>
      {"inflate", {1, 1}},       // inflate <factor-percent> (e.g. 150)
      {"distribution", {1, 1}},  // distribution <origin|cache|p2p> (pre-host)
      {"host", {2, 3}},          // host <seattle|tacoma> <pool-start> [size]
      {"repo", {1, 1}},          // repo <name>
      {"asp", {2, 2}},           // asp <id> <key>
      {"publish", {1, 2}},       // publish <web|honeypot|genome|full-server|shop> [content-mb=N]
      {"create", {3, 3}},        // create <service> <image> n=<n>
      {"resize", {2, 2}},        // resize <service> <n>
      {"teardown", {1, 1}},      // teardown <service>
      {"status", {1, 1}},        // status <service>
      {"billing", {1, 1}},       // billing <asp>
      {"crash", {2, 2}},         // crash <service> <node-ordinal>
      {"crash-host", {1, 1}},    // crash-host <host> (fail-stop, guests die)
      {"recover-host", {1, 1}},  // recover-host <host> (reboots empty)
      {"slow-host", {2, 2}},     // slow-host <host> <factor> (uplink x factor)
      {"restore-host", {1, 1}},  // restore-host <host> (uplink back to 1.0)
      {"lossy-link", {2, 2}},    // lossy-link <host> <factor> (goodput collapse)
      {"advance", {1, 1}},       // advance <seconds> (run the engine forward)
      {"switch-policy", {2, 3}}, // switch-policy <service> <policy> [seed=N]
      {"detect", {0, 0}},        // one liveness poll + recovery pass
      {"probe", {0, 0}},         // run one health-monitor sweep
      {"trace", {0, 1}},         // trace [subject] -> dump control-plane events
      {"warm", {2, 2}},          // warm <image> <host> (prefetch chunks)
      {"drop-cache", {1, 1}},    // drop-cache <host>
      {"expect-cached", {2, 2}}, // expect-cached <host> <min-chunks> (0: none)
      {"traffic", {2, 4}},       // traffic <service> <spec> [bytes=N] [seed=N]
      {"expect-p99", {2, 2}},    // expect-p99 <service> <max-ms>
      {"expect-nodes", {2, 2}},  // expect-nodes <service> <count>
      {"expect-state", {2, 2}},  // expect-state <service> <running|...>
      {"expect-services", {1, 1}},   // expect-services <count>
      {"expect-metric", {2, 2}},     // expect-metric <name> <value>
      {"expect-error", {2, 99}},     // expect-error <verb> <args...>
  };
  return arity;
}

Result<long long> arg_int(const ScenarioCommand& cmd, const std::string& raw) {
  // Accepts "3" or "n=3".
  std::string_view text = raw;
  if (const auto eq = text.find('='); eq != std::string_view::npos) {
    text = text.substr(eq + 1);
  }
  const auto value = util::parse_int(text);
  if (!value) {
    return Error{"line " + std::to_string(cmd.line) + ": bad number '" + raw + "'"};
  }
  return *value;
}

std::string error_at(int line, const std::string& message) {
  return "line " + std::to_string(line) + ": " + message;
}

/// Execution state threaded through the command handlers. The Hup is built
/// lazily so configuration verbs (mode/placement/inflate) can precede it.
/// Headline numbers from one `traffic` run, kept for expect-p99.
struct TrafficSummary {
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

struct Runtime {
  MasterConfig config;
  std::unique_ptr<Hup> hup_ptr;
  image::ImageRepository* repo = nullptr;
  std::map<std::string, image::ImageLocation> images;  // name -> location
  std::string asp_id, api_key;
  std::vector<std::string> transcript;
  std::map<std::string, TrafficSummary> traffic_reports;  // per service
  int hosts_added = 0;
  int traffic_runs = 0;

  Hup& hup() {
    if (!hup_ptr) hup_ptr = std::make_unique<Hup>(config);
    return *hup_ptr;
  }
  [[nodiscard]] bool hup_built() const noexcept { return hup_ptr != nullptr; }

  void say(std::string line) { transcript.push_back(std::move(line)); }
};

Result<image::ServiceImage> make_image(const ScenarioCommand& cmd) {
  std::int64_t content_mb = 8;
  if (cmd.args.size() == 2) {
    auto mb = arg_int(cmd, cmd.args[1]);
    if (!mb.ok()) return mb.error();
    content_mb = mb.value();
  }
  const std::string& kind = cmd.args[0];
  if (kind == "web") return image::web_content_image(content_mb * 1024 * 1024);
  if (kind == "honeypot") return image::honeypot_image();
  if (kind == "genome") return image::genome_matching_image();
  if (kind == "full-server") return image::full_server_image();
  if (kind == "shop") return image::online_shop_image();
  return Error{error_at(cmd.line, "unknown image kind '" + kind + "'")};
}

/// Runs one command; expectation failures and API errors become errors.
Status execute(Runtime& rt, const ScenarioCommand& cmd) {
  char buf[256];
  if (cmd.verb == "mode" || cmd.verb == "placement" || cmd.verb == "inflate" ||
      cmd.verb == "distribution") {
    if (rt.hup_built()) {
      return Error{error_at(cmd.line,
                            "'" + cmd.verb + "' must precede the first host")};
    }
    if (cmd.verb == "mode") {
      if (cmd.args[0] == "bridging") {
        rt.config.address_mode = AddressMode::kBridging;
      } else if (cmd.args[0] == "proxying") {
        rt.config.address_mode = AddressMode::kProxying;
      } else {
        return Error{error_at(cmd.line, "unknown mode '" + cmd.args[0] + "'")};
      }
    } else if (cmd.verb == "placement") {
      const auto policy = parse_placement_policy(cmd.args[0]);
      if (!policy) {
        return Error{error_at(cmd.line, "unknown placement '" + cmd.args[0] + "'")};
      }
      rt.config.placement = *policy;
    } else if (cmd.verb == "distribution") {
      if (cmd.args[0] == "origin") {
        rt.config.distribution.enabled = false;
      } else if (cmd.args[0] == "cache") {
        rt.config.distribution.enabled = true;
        rt.config.distribution.p2p = false;
      } else if (cmd.args[0] == "p2p") {
        rt.config.distribution.enabled = true;
        rt.config.distribution.p2p = true;
      } else {
        return Error{error_at(cmd.line,
                              "unknown distribution '" + cmd.args[0] + "'")};
      }
    } else {
      auto percent = arg_int(cmd, cmd.args[0]);
      if (!percent.ok()) return percent.error();
      if (percent.value() < 100) {
        return Error{error_at(cmd.line, "inflate takes percent >= 100")};
      }
      rt.config.slowdown_factor = static_cast<double>(percent.value()) / 100.0;
    }
    rt.say(cmd.verb + " = " + cmd.args[0]);
    return {};
  }
  if (cmd.verb == "crash") {
    auto ordinal = arg_int(cmd, cmd.args[1]);
    if (!ordinal.ok()) return ordinal.error();
    const std::string node_name =
        cmd.args[0] + "/" + std::to_string(ordinal.value());
    const ServiceRecord* record = rt.hup().master().find_service(cmd.args[0]);
    if (!record) return Error{error_at(cmd.line, "no service " + cmd.args[0])};
    for (const auto& node : record->nodes) {
      if (node.node_name != node_name) continue;
      rt.hup().find_daemon(node.host_name)->find_node(node_name)->uml().crash();
      rt.say("crashed guest " + node_name);
      return {};
    }
    return Error{error_at(cmd.line, "no node " + node_name)};
  }
  if (cmd.verb == "crash-host" || cmd.verb == "recover-host") {
    if (!rt.hup().find_daemon(cmd.args[0])) {
      return Error{error_at(cmd.line, "no host " + cmd.args[0])};
    }
    if (cmd.verb == "crash-host") {
      rt.hup().crash_host(cmd.args[0]);
      rt.say("host " + cmd.args[0] + " crashed");
    } else {
      rt.hup().recover_host(cmd.args[0]);
      rt.say("host " + cmd.args[0] + " recovered");
    }
    return {};
  }
  if (cmd.verb == "slow-host" || cmd.verb == "lossy-link" ||
      cmd.verb == "restore-host") {
    // The full FaultKind set as immediate verbs, so shrunk chaos reproducers
    // round-trip through the DSL. restore-host is slow-host at factor 1.
    if (!rt.hup().find_daemon(cmd.args[0])) {
      return Error{error_at(cmd.line, "no host " + cmd.args[0])};
    }
    double factor = 1.0;
    if (cmd.verb != "restore-host") {
      const auto parsed = util::parse_double(cmd.args[1]);
      if (!parsed || !(*parsed > 0)) {
        return Error{error_at(cmd.line, "'" + cmd.verb +
                                            "' takes a factor > 0, got '" +
                                            cmd.args[1] + "'")};
      }
      factor = *parsed;
    }
    rt.hup().scale_host_uplink(cmd.args[0], factor);
    if (cmd.verb == "restore-host") {
      rt.say("host " + cmd.args[0] + " uplink restored");
    } else {
      rt.say("host " + cmd.args[0] + " uplink x " + cmd.args[1] + " (" +
             cmd.verb + ")");
    }
    return {};
  }
  if (cmd.verb == "advance") {
    const auto seconds = util::parse_double(cmd.args[0]);
    if (!seconds || *seconds < 0) {
      return Error{error_at(cmd.line, "'advance' takes seconds >= 0, got '" +
                                          cmd.args[0] + "'")};
    }
    sim::Engine& engine = rt.hup().engine();
    engine.run_until(engine.now() + sim::SimTime::seconds(*seconds));
    std::snprintf(buf, sizeof buf, "advanced to t=%.2fs",
                  engine.now().to_seconds());
    rt.say(buf);
    return {};
  }
  if (cmd.verb == "switch-policy") {
    ServiceSwitch* sw = rt.hup().master().find_switch(cmd.args[0]);
    if (!sw) {
      return Error{error_at(cmd.line, "no running service " + cmd.args[0])};
    }
    std::uint64_t seed = 0x50DA;
    if (cmd.args.size() == 3) {
      if (!util::starts_with(cmd.args[2], "seed=")) {
        return Error{error_at(cmd.line, "unknown switch-policy option '" +
                                            cmd.args[2] + "'")};
      }
      auto value = arg_int(cmd, cmd.args[2]);
      if (!value.ok()) return value.error();
      seed = static_cast<std::uint64_t>(value.value());
    }
    auto policy = make_switch_policy_by_name(cmd.args[1], seed);
    if (!policy.ok()) return Error{error_at(cmd.line, policy.error().message)};
    sw->set_policy(std::move(policy).value());
    rt.say("switch policy of " + cmd.args[0] + " = " + cmd.args[1]);
    return {};
  }
  if (cmd.verb == "detect") {
    // Active poll: scenario verbs run the engine to quiescence, so the
    // heartbeat-timeout path (which keeps the queue busy) is not used here.
    const std::size_t changed = rt.hup().master().poll_liveness_once();
    rt.hup().engine().run();
    rt.say("detect: " + std::to_string(changed) + " host(s) changed, " +
           std::to_string(rt.hup().master().placements_lost()) +
           " placement(s) lost, " +
           std::to_string(rt.hup().master().recoveries_completed()) +
           " recovery(ies) completed");
    return {};
  }
  if (cmd.verb == "probe") {
    const std::size_t transitions = rt.hup().health_monitor().probe_once();
    rt.say("health probe: " + std::to_string(transitions) + " transition(s)");
    return {};
  }
  if (cmd.verb == "trace") {
    if (cmd.args.empty()) {
      rt.say(rt.hup().trace().render());
    } else {
      for (const auto& event : rt.hup().trace().for_subject(cmd.args[0])) {
        rt.say(std::string(trace_kind_name(event.kind)) + " " + event.subject +
               (event.detail.empty() ? "" : ": " + event.detail));
      }
    }
    return {};
  }
  if (cmd.verb == "host") {
    host::HostSpec spec;
    if (cmd.args[0] == "seattle") {
      spec = host::HostSpec::seattle();
    } else if (cmd.args[0] == "tacoma") {
      spec = host::HostSpec::tacoma();
    } else {
      return Error{error_at(cmd.line, "unknown host spec '" + cmd.args[0] + "'")};
    }
    const auto start = net::Ipv4Address::parse(cmd.args[1]);
    if (!start) return Error{error_at(cmd.line, "bad pool address")};
    std::size_t size = 16;
    if (cmd.args.size() == 3) {
      auto parsed = arg_int(cmd, cmd.args[2]);
      if (!parsed.ok()) return parsed.error();
      if (parsed.value() < 1) {
        return Error{error_at(cmd.line, "pool size must be >= 1")};
      }
      size = static_cast<std::size_t>(parsed.value());
    }
    if (size > net::IpPool::room_from(*start)) {
      return Error{error_at(cmd.line, "pool runs past 255.255.255.255")};
    }
    if (const SodaDaemon* owner = rt.hup().master().pool_overlap(*start, size)) {
      return Error{error_at(cmd.line, "pool overlaps the pool of host " +
                                          owner->host_name())};
    }
    // Scripted hosts need unique names when the same spec repeats.
    spec.name = cmd.args[0] + (rt.hosts_added ? "-" + std::to_string(rt.hosts_added)
                                              : "");
    ++rt.hosts_added;
    rt.hup().add_host(spec, *start, size);
    rt.say("host " + spec.name + " joined the HUP");
    return {};
  }
  if (cmd.verb == "repo") {
    rt.repo = &rt.hup().add_repository(cmd.args[0]);
    rt.say("repository " + cmd.args[0] + " on the LAN");
    return {};
  }
  if (cmd.verb == "asp") {
    rt.asp_id = cmd.args[0];
    rt.api_key = cmd.args[1];
    rt.hup().agent().register_asp(rt.asp_id, rt.api_key);
    rt.say("asp " + rt.asp_id + " enrolled");
    return {};
  }
  if (cmd.verb == "publish") {
    if (!rt.repo) return Error{error_at(cmd.line, "no repository yet")};
    auto image = make_image(cmd);
    if (!image.ok()) return image.error();
    const std::string name = image.value().name;
    auto location = rt.repo->publish(std::move(image).value());
    if (!location.ok()) return Error{error_at(cmd.line, location.error().message)};
    rt.images[cmd.args[0]] = location.value();
    rt.say("published " + name + " at " + location.value().url());
    return {};
  }
  if (cmd.verb == "create") {
    auto it = rt.images.find(cmd.args[1]);
    if (it == rt.images.end()) {
      return Error{error_at(cmd.line, "image '" + cmd.args[1] + "' not published")};
    }
    auto n = arg_int(cmd, cmd.args[2]);
    if (!n.ok()) return n.error();
    ServiceCreationRequest request;
    request.credentials = {rt.asp_id, rt.api_key};
    request.service_name = cmd.args[0];
    request.image_location = it->second;
    request.requirement = {static_cast<int>(n.value()), {}};
    std::optional<ApiError> failure;
    std::size_t nodes = 0;
    rt.hup().agent().service_creation(
        request, [&](ApiResult<ServiceCreationReply> reply, sim::SimTime) {
          if (reply.ok()) {
            nodes = reply.value().nodes.size();
          } else {
            failure = reply.error();
          }
        });
    rt.hup().engine().run();
    if (failure) return Error{error_at(cmd.line, failure->to_string())};
    std::snprintf(buf, sizeof buf, "created %s on %zu node(s) at t=%.2fs",
                  cmd.args[0].c_str(), nodes,
                  rt.hup().engine().now().to_seconds());
    rt.say(buf);
    return {};
  }
  if (cmd.verb == "resize") {
    auto n = arg_int(cmd, cmd.args[1]);
    if (!n.ok()) return n.error();
    std::optional<ApiError> failure;
    rt.hup().agent().service_resizing(
        ServiceResizingRequest{{rt.asp_id, rt.api_key}, cmd.args[0],
                               static_cast<int>(n.value())},
        [&](ApiResult<ServiceResizingReply> reply, sim::SimTime) {
          if (!reply.ok()) failure = reply.error();
        });
    rt.hup().engine().run();
    if (failure) return Error{error_at(cmd.line, failure->to_string())};
    rt.say("resized " + cmd.args[0] + " to n=" + std::to_string(n.value()));
    return {};
  }
  if (cmd.verb == "teardown") {
    auto result = rt.hup().agent().service_teardown(
        ServiceTeardownRequest{{rt.asp_id, rt.api_key}, cmd.args[0]});
    if (!result.ok()) return Error{error_at(cmd.line, result.error().to_string())};
    rt.say("tore down " + cmd.args[0]);
    return {};
  }
  if (cmd.verb == "status") {
    auto report = rt.hup().agent().service_status({rt.asp_id, rt.api_key},
                                                cmd.args[0]);
    if (!report.ok()) return Error{error_at(cmd.line, report.error().to_string())};
    for (const auto& node : report.value().nodes) {
      std::snprintf(buf, sizeof buf, "  %s on %s %s:%d cap=%dM vm=%s",
                    node.node_name.c_str(), node.host_name.c_str(),
                    node.address.to_string().c_str(), node.port,
                    node.capacity_units,
                    std::string(vm::vm_state_name(node.vm_state)).c_str());
      rt.say(buf);
    }
    return {};
  }
  if (cmd.verb == "billing") {
    std::snprintf(buf, sizeof buf, "%s owes %.6f instance-hours",
                  cmd.args[0].c_str(),
                  rt.hup().agent().billing().instance_hours(
                      cmd.args[0], rt.hup().engine().now()));
    rt.say(buf);
    return {};
  }
  if (cmd.verb == "warm") {
    auto it = rt.images.find(cmd.args[0]);
    if (it == rt.images.end()) {
      return Error{error_at(cmd.line, "image '" + cmd.args[0] + "' not published")};
    }
    std::optional<Error> failure;
    sim::SimTime warmed_at = sim::SimTime::zero();
    rt.hup().master().warm_hosts(
        it->second, {cmd.args[1]}, [&](Status status, sim::SimTime now) {
          if (!status.ok()) failure = status.error();
          warmed_at = now;
        });
    rt.hup().engine().run();
    if (failure) return Error{error_at(cmd.line, failure->message)};
    std::snprintf(buf, sizeof buf, "warmed %s on %s at t=%.2fs",
                  cmd.args[0].c_str(), cmd.args[1].c_str(),
                  warmed_at.to_seconds());
    rt.say(buf);
    return {};
  }
  if (cmd.verb == "drop-cache") {
    SodaDaemon* daemon = rt.hup().find_daemon(cmd.args[0]);
    if (!daemon) return Error{error_at(cmd.line, "no host " + cmd.args[0])};
    daemon->distributor().drop_cache();
    rt.say("dropped " + cmd.args[0] + "'s chunk cache");
    return {};
  }
  if (cmd.verb == "expect-cached") {
    auto want = arg_int(cmd, cmd.args[1]);
    if (!want.ok()) return want.error();
    const SodaDaemon* daemon = rt.hup().find_daemon(cmd.args[0]);
    if (!daemon) return Error{error_at(cmd.line, "no host " + cmd.args[0])};
    const auto got = daemon->distributor().cache().chunk_count();
    const auto min = static_cast<std::size_t>(want.value());
    const bool pass = min == 0 ? got == 0 : got >= min;
    if (!pass) {
      return Error{error_at(cmd.line, "expected " + cmd.args[1] +
                                          (min == 0 ? " (exactly)" : "+") +
                                          " cached chunk(s) on " + cmd.args[0] +
                                          ", got " + std::to_string(got))};
    }
    return {};
  }
  if (cmd.verb == "traffic") {
    // Open-loop load against a running service: deploy a web content server
    // on each of its nodes, replay the arrival trace through the service
    // switch, and report coordinated-omission-free latency.
    const std::string& service = cmd.args[0];
    ServiceSwitch* sw = rt.hup().master().find_switch(service);
    const ServiceRecord* record = rt.hup().master().find_service(service);
    if (!sw || !record || record->nodes.empty()) {
      return Error{error_at(cmd.line, "no running service " + service)};
    }
    auto trace = workload::TrafficTrace::parse(cmd.args[1]);
    if (!trace.ok()) return Error{error_at(cmd.line, trace.error().message)};
    std::int64_t bytes = 8 * 1024;
    std::uint64_t seed = 0x7AFF1C;
    for (std::size_t i = 2; i < cmd.args.size(); ++i) {
      auto value = arg_int(cmd, cmd.args[i]);
      if (!value.ok()) return value.error();
      if (util::starts_with(cmd.args[i], "bytes=")) {
        bytes = value.value();
      } else if (util::starts_with(cmd.args[i], "seed=")) {
        seed = static_cast<std::uint64_t>(value.value());
      } else {
        return Error{
            error_at(cmd.line, "unknown traffic option '" + cmd.args[i] + "'")};
      }
    }

    std::vector<std::unique_ptr<workload::WebContentServer>> servers;
    std::optional<net::NodeId> switch_node;
    for (const auto& node : record->nodes) {
      auto* daemon = rt.hup().find_daemon(node.host_name);
      auto* vsn = daemon ? daemon->find_node(node.node_name) : nullptr;
      if (!vsn) {
        return Error{error_at(cmd.line, "node " + node.node_name +
                                            " is not running")};
      }
      std::vector<net::LinkId> outbound;
      if (auto link =
              rt.hup().find_shaper(node.host_name)->link_for(vsn->address())) {
        outbound.push_back(*link);
      }
      servers.push_back(std::make_unique<workload::WebContentServer>(
          rt.hup().engine(), rt.hup().network(), vsn->net_node(),
          vm::ExecMode::kUmlTraced, daemon->host().spec().cpu_ghz,
          2 * node.capacity_units, std::move(outbound)));
      if (node.address == sw->listen_address()) {
        switch_node = vsn->net_node();
      }
    }
    if (!switch_node) switch_node = servers.front()->node();

    const net::NodeId client =
        rt.hup().add_client("siege-" + std::to_string(rt.traffic_runs++));
    workload::SiegeConfig cfg;
    cfg.record_samples = false;  // StreamingStats replaces sample storage
    cfg.response_bytes = bytes;
    cfg.switch_delay =
        workload::switch_forward_cost(2.6, vm::ExecMode::kUmlTraced);
    workload::SiegeClient siege(rt.hup().engine(), rt.hup().network(), client,
                                sw, switch_node, cfg);
    for (std::size_t i = 0; i < record->nodes.size(); ++i) {
      siege.register_backend(record->nodes[i].address, servers[i].get(),
                             servers[i]->node());
    }
    workload::TrafficEngineConfig traffic_config;
    traffic_config.seed = seed;
    workload::TrafficEngine traffic(rt.hup().engine(), traffic_config);
    traffic.add_stream(service, siege, std::move(trace).value());
    traffic.start();
    rt.hup().engine().run();

    const sim::StreamingStats& stats = traffic.stats(service);
    TrafficSummary summary;
    summary.scheduled = traffic.scheduled(service);
    summary.completed = stats.completed();
    summary.errors = stats.errors();
    summary.p50_ms = stats.p50() * 1e3;
    summary.p99_ms = stats.p99() * 1e3;
    rt.traffic_reports[service] = summary;
    std::snprintf(buf, sizeof buf,
                  "traffic %s: %llu scheduled, %llu served, %llu refused, "
                  "p50=%.1fms p99=%.1fms",
                  service.c_str(),
                  static_cast<unsigned long long>(summary.scheduled),
                  static_cast<unsigned long long>(summary.completed),
                  static_cast<unsigned long long>(summary.errors),
                  summary.p50_ms, summary.p99_ms);
    rt.say(buf);
    return {};
  }
  if (cmd.verb == "expect-p99") {
    const auto it = rt.traffic_reports.find(cmd.args[0]);
    if (it == rt.traffic_reports.end()) {
      return Error{error_at(cmd.line, "no traffic run for " + cmd.args[0])};
    }
    const auto want = util::parse_double(cmd.args[1]);
    if (!want) {
      return Error{error_at(cmd.line, "bad number '" + cmd.args[1] + "'")};
    }
    if (it->second.p99_ms > *want) {
      std::snprintf(buf, sizeof buf,
                    "expected %s p99 <= %.1fms, got %.1fms",
                    cmd.args[0].c_str(), *want, it->second.p99_ms);
      return Error{error_at(cmd.line, buf)};
    }
    return {};
  }
  if (cmd.verb == "expect-nodes") {
    auto want = arg_int(cmd, cmd.args[1]);
    if (!want.ok()) return want.error();
    const ServiceRecord* record = rt.hup().master().find_service(cmd.args[0]);
    const std::size_t got = record ? record->nodes.size() : 0;
    if (got != static_cast<std::size_t>(want.value())) {
      return Error{error_at(cmd.line, "expected " + cmd.args[1] + " node(s) for " +
                                          cmd.args[0] + ", got " +
                                          std::to_string(got))};
    }
    return {};
  }
  if (cmd.verb == "expect-state") {
    const ServiceRecord* record = rt.hup().master().find_service(cmd.args[0]);
    const std::string got =
        record ? std::string(service_state_name(record->lifecycle.state()))
               : "gone";
    if (got != cmd.args[1]) {
      return Error{error_at(cmd.line, "expected state " + cmd.args[1] + ", got " +
                                          got)};
    }
    return {};
  }
  if (cmd.verb == "expect-services") {
    auto want = arg_int(cmd, cmd.args[0]);
    if (!want.ok()) return want.error();
    if (rt.hup().master().service_count() !=
        static_cast<std::size_t>(want.value())) {
      return Error{error_at(
          cmd.line, "expected " + cmd.args[0] + " service(s), got " +
                        std::to_string(rt.hup().master().service_count()))};
    }
    return {};
  }
  if (cmd.verb == "expect-metric") {
    auto want = arg_int(cmd, cmd.args[1]);
    if (!want.ok()) return want.error();
    const MetricsRegistry& metrics = rt.hup().master().metrics();
    if (!metrics.has(cmd.args[0])) {
      return Error{error_at(cmd.line, "unknown metric '" + cmd.args[0] + "'")};
    }
    const double got = metrics.value(cmd.args[0]);
    if (got != static_cast<double>(want.value())) {
      return Error{error_at(cmd.line, "expected metric " + cmd.args[0] + " = " +
                                          cmd.args[1] + ", got " +
                                          std::to_string(got))};
    }
    return {};
  }
  if (cmd.verb == "expect-error") {
    // Re-dispatch the wrapped command and invert its outcome.
    ScenarioCommand inner;
    inner.line = cmd.line;
    inner.verb = cmd.args[0];
    inner.args.assign(cmd.args.begin() + 1, cmd.args.end());
    if (verb_arity().count(inner.verb) == 0 ||
        util::starts_with(inner.verb, "expect-")) {
      return Error{error_at(cmd.line, "expect-error cannot wrap '" + inner.verb +
                                          "'")};
    }
    if (auto result = execute(rt, inner); result.ok()) {
      return Error{error_at(cmd.line, "expected '" + inner.verb +
                                          "' to fail, but it succeeded")};
    }
    rt.say("(expected failure of '" + inner.verb + "' observed)");
    return {};
  }
  return Error{error_at(cmd.line, "unhandled verb '" + cmd.verb + "'")};
}

}  // namespace

Result<Scenario> Scenario::parse(std::string_view text) {
  Scenario scenario;
  int line_no = 0;
  for (const auto& raw_line : util::split(text, '\n')) {
    ++line_no;
    const std::string_view line = util::trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    auto tokens = util::split_whitespace(line);
    ScenarioCommand cmd;
    cmd.line = line_no;
    cmd.verb = tokens[0];
    cmd.args.assign(tokens.begin() + 1, tokens.end());
    const auto arity = verb_arity().find(cmd.verb);
    if (arity == verb_arity().end()) {
      return Error{error_at(line_no, "unknown verb '" + cmd.verb + "'")};
    }
    const int argc = static_cast<int>(cmd.args.size());
    if (argc < arity->second.first || argc > arity->second.second) {
      return Error{error_at(line_no, "'" + cmd.verb + "' takes " +
                                         std::to_string(arity->second.first) +
                                         ".." +
                                         std::to_string(arity->second.second) +
                                         " argument(s), got " +
                                         std::to_string(argc))};
    }
    scenario.commands_.push_back(std::move(cmd));
  }
  return scenario;
}

Result<std::vector<std::string>> Scenario::run() const {
  Runtime rt;
  for (const auto& cmd : commands_) {
    if (auto result = execute(rt, cmd); !result.ok()) return result.error();
  }
  return rt.transcript;
}

Result<std::vector<std::vector<std::string>>> Scenario::run_replicas(
    std::size_t replicas, std::size_t threads) const {
  const sim::ParallelRunner runner(threads);
  auto results =
      runner.map(replicas, [this](std::size_t) { return run(); });
  std::vector<std::vector<std::string>> transcripts;
  transcripts.reserve(replicas);
  for (auto& result : results) {
    if (!result.ok()) return result.error();
    transcripts.push_back(std::move(result).value());
  }
  return transcripts;
}

}  // namespace soda::core
