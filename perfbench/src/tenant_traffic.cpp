// tenant-traffic: the data-plane and engine workload. A few hundred hosts
// carry a few dozen tenant services, admitted during set-up. Every node is
// backed by a WebContentServer in kUmlTraced mode; every tenant is an
// open-loop TrafficEngine stream over its own SiegeClient, so arrivals
// keep their simulated schedule however slow the service gets. The seed
// draws each tenant's trace from const/diurnal/burst shapes: most tenants
// stay light, a few overload their service in a burst, and during a burst
// many concurrent flows share the one FlowNetwork and its max-min
// reallocation. Failure detection runs fleet-wide; mid-run a slab of
// loaded hosts crashes and later reboots, driving detection, switch
// failover, recovery and re-priming.
//
// The same world then runs again under the sharded engine, which must end
// in the identical TrafficEngine digest and state_digest. The simulator is
// driven in fixed slices of simulated time; the wall time of each slice is
// the per-operation sample.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/agent.hpp"
#include "core/hup.hpp"
#include "core/priming.hpp"
#include "image/image.hpp"
#include "sim/random.hpp"
#include "vm/vsnode.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"
#include "workload/webservice.hpp"

namespace perfbench {
namespace {

using namespace soda;

struct TenantInput {
  std::string name;
  int n = 2;
  host::MachineConfig m;
  std::int64_t response_bytes = 4096;
  workload::TrafficTrace trace;
  double burst_from = 0, burst_to = 0;  // simulated seconds; empty if light
};

/// Everything drawn from the seed; the simulator sees only these inputs.
struct Inputs {
  double duration_s = 20;  // traffic horizon
  double crash_at_s = 9;   // start of the fault window
  double reboot_at_s = 12;  // crashed hosts come back
  double fault_window_s = 3;
  std::size_t crash_hosts = 6;
  std::vector<bool> big_host;
  std::vector<TenantInput> tenants;
  std::vector<std::size_t> crash_order;  // candidate hosts, seeded order
  std::uint64_t traffic_seed = 0;
};

constexpr double kSliceS = 0.05;  // simulated seconds per slice
constexpr int kClients = 4;

template <typename T>
void shuffle(std::vector<T>& items, sim::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    const T held = items[i - 1];
    items[i - 1] = items[j];
    items[j] = held;
  }
}

Inputs draw_inputs(std::uint64_t seed, bool small) {
  sim::Rng rng(seed ^ 0x7E1A17u);
  Inputs in;
  const int hosts = small ? 48 : 300;
  const int tenants = small ? 16 : 24;
  in.duration_s = small ? 6 : 8;
  in.crash_at_s = 0.45 * in.duration_s;
  in.fault_window_s = 0.15 * in.duration_s;
  in.reboot_at_s = in.crash_at_s + in.fault_window_s;
  in.crash_hosts = small ? 2 : 6;
  in.traffic_seed = rng.uniform_int(1, 1LL << 40);
  // Two hosts in five are seattles; the seed places them.
  in.big_host.resize(static_cast<std::size_t>(hosts));
  for (std::size_t i = 0; i < in.big_host.size(); ++i) {
    in.big_host[i] = i % 5 < 2;
  }
  shuffle(in.big_host, rng);
  // The tenant mix is a fixed multiset of profiles, so every seed offers
  // the same total load: n cycles 2..4, the rate 20..100 req/s, the
  // response 2..16 KB; one tenant in eight bursts, the rest split between
  // constant and diurnal traces. The seed deals the profiles to tenants
  // and draws every arrival time.
  const double d = in.duration_s;
  // Bursts start at fixed fractions of the horizon, far enough apart that
  // one burst's backlog drains before the next, and clear of the fault
  // window and of the fault-free window just before it, so the fault and
  // steady wall-time figures compare like with like. A burst offers about
  // twice what its nodes' shaped links carry.
  const std::array<double, 4> slots = {0.05, 0.20, 0.75, 0.90};
  std::vector<int> profile(static_cast<std::size_t>(tenants));
  for (std::size_t i = 0; i < profile.size(); ++i) {
    profile[i] = static_cast<int>(i);
  }
  shuffle(profile, rng);
  std::size_t bursts = 0;
  for (int t = 0; t < tenants; ++t) {
    const int k = profile[static_cast<std::size_t>(t)];
    TenantInput tenant;
    tenant.name = "tenant-" + std::to_string(t);
    const bool overload = k % 8 == 0;
    tenant.n = overload ? 3 : 2 + k % 3;
    tenant.m.cpu_mhz = 512;
    tenant.m.memory_mb = 256;
    tenant.m.disk_mb = 1024;
    tenant.m.bandwidth_mbps = 10;
    tenant.response_bytes = overload ? 8192 : 2048 * (1 + k % 8);
    const double rate = 20.0 * (1 + k % 5);
    if (overload) {
      const double length = 0.05 * d;
      const double start = d * slots[bursts++ % slots.size()];
      tenant.trace.constant(rate, start)
          .burst(250.0 * tenant.n, length)
          .constant(rate, d - start - length);
      tenant.burst_from = start;
      tenant.burst_to = start + length;
    } else if (k % 2 == 0) {
      tenant.trace.constant(rate, d);
    } else {
      tenant.trace.diurnal(rate, 0.6 * rate, d, d / 2);
    }
    in.tenants.push_back(std::move(tenant));
  }
  in.crash_order.resize(in.big_host.size());
  for (std::size_t i = 0; i < in.crash_order.size(); ++i) in.crash_order[i] = i;
  shuffle(in.crash_order, rng);
  return in;
}

std::string host_name(std::size_t i) { return "host-" + std::to_string(i); }

struct Server {
  std::unique_ptr<workload::WebContentServer> server;
  std::string host;
};

/// One tenant as deployed: its switch, its client and its servers.
struct Tenant {
  core::ServiceSwitch* sw = nullptr;
  std::unique_ptr<workload::SiegeClient> siege;
};

/// A built world with every tenant admitted and wired to its load.
struct World {
  std::unique_ptr<core::Hup> hup;
  std::vector<Tenant> tenants;
  std::map<std::string, std::size_t> tenant_index;
  std::vector<Server> servers;
  std::vector<net::NodeId> clients;
  bool ok = true;

  /// Backs one booted node with a WebContentServer registered on its
  /// tenant's SiegeClient. Set-up calls it for every admitted node, and the
  /// bus subscription for every node recovery re-creates, so requests to
  /// recovered nodes are served rather than refused.
  void back_node(std::size_t t, core::SodaDaemon& daemon,
                 const vm::VirtualServiceNode& vsn) {
    core::Hup& h = *hup;
    std::vector<net::LinkId> outbound;
    if (auto link = h.find_shaper(daemon.host_name())->link_for(vsn.address())) {
      outbound.push_back(*link);
    }
    auto server = std::make_unique<workload::WebContentServer>(
        h.engine(), h.network(), vsn.net_node(), vm::ExecMode::kUmlTraced,
        daemon.host().spec().cpu_ghz, 2 * vsn.capacity_units(),
        std::move(outbound));
    const core::NodeDescriptor node = core::describe_node(vsn, 0);
    tenants[t].siege->register_backend(node.address, server.get(),
                                       vsn.net_node());
    servers.push_back(Server{std::move(server), daemon.host_name()});
  }
};

World build_world(const Inputs& in) {
  World w;
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  w.hup = std::make_unique<core::Hup>(config);
  core::Hup& hup = *w.hup;
  for (std::size_t i = 0; i < in.big_host.size(); ++i) {
    host::HostSpec spec =
        in.big_host[i] ? host::HostSpec::seattle() : host::HostSpec::tacoma();
    spec.name = host_name(i);
    hup.add_host(spec,
                 net::Ipv4Address(10, static_cast<std::uint8_t>(i / 250),
                                  static_cast<std::uint8_t>(i % 250), 0),
                 16);
  }
  for (int c = 0; c < kClients; ++c) {
    w.clients.push_back(hup.add_client("client-" + std::to_string(c)));
  }
  image::ImageRepository& repo = hup.add_repository("asp-repo");
  const image::ImageLocation location =
      must(repo.publish(image::web_content_image(1024 * 1024)));
  hup.agent().register_asp("asp", "key");

  for (std::size_t t = 0; t < in.tenants.size(); ++t) {
    const TenantInput& input = in.tenants[t];
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = input.name;
    request.image_location = location;
    request.requirement = {input.n, input.m};
    bool created = false;
    hup.agent().service_creation(
        request, [&](core::ApiResult<core::ServiceCreationReply> reply,
                     sim::SimTime) { created = reply.ok(); });
    hup.engine().run();
    core::ServiceSwitch* sw = hup.master().find_switch(input.name);
    const core::ServiceRecord* record = hup.master().find_service(input.name);
    if (!created || sw == nullptr || record == nullptr) {
      w.ok = false;
      return w;
    }
    // The switch runs inside the node that holds its listen address.
    std::optional<net::NodeId> switch_node;
    double switch_ghz = 1.8;
    for (const core::NodeDescriptor& node : record->nodes) {
      core::SodaDaemon* daemon = hup.find_daemon(node.host_name);
      const vm::VirtualServiceNode* vsn = daemon->find_node(node.node_name);
      if (node.address == sw->listen_address()) {
        switch_node = vsn->net_node();
        switch_ghz = daemon->host().spec().cpu_ghz;
      }
    }
    if (!switch_node) {
      w.ok = false;
      return w;
    }
    workload::SiegeConfig cfg;
    cfg.response_bytes = input.response_bytes;
    cfg.record_samples = false;
    cfg.switch_delay =
        workload::switch_forward_cost(switch_ghz, vm::ExecMode::kUmlTraced);
    Tenant tenant;
    tenant.sw = sw;
    tenant.siege = std::make_unique<workload::SiegeClient>(
        hup.engine(), hup.network(), w.clients[t % kClients], sw, switch_node,
        cfg);
    w.tenants.push_back(std::move(tenant));
    w.tenant_index[input.name] = t;
    for (const core::NodeDescriptor& node : record->nodes) {
      core::SodaDaemon* daemon = hup.find_daemon(node.host_name);
      w.back_node(t, *daemon, *daemon->find_node(node.node_name));
    }
  }
  hup.enable_failure_detection();
  return w;
}

/// Counter snapshot of the layers the traced run reads around a pass.
struct Counters {
  std::uint64_t routed = 0, refused = 0, failovers = 0, epochs = 0;
  std::uint64_t trace_events = 0;
  std::int64_t bytes_delivered = 0;
  double from_origin = 0, from_peers = 0, from_cache = 0;
  std::map<std::string, double> metrics;
};

Counters read_counters(World& w) {
  Counters c;
  core::Hup& hup = *w.hup;
  for (const Tenant& t : w.tenants) {
    c.routed += t.sw->requests_routed();
    c.refused += t.sw->requests_refused();
    c.failovers += t.sw->failovers();
    c.epochs += t.sw->epoch();
  }
  c.trace_events = hup.trace().size() + hup.trace().dropped();
  c.bytes_delivered = hup.network().bytes_delivered();
  for (const core::SodaDaemon* daemon : hup.master().daemons()) {
    const image::ImageDistributor& d = daemon->distributor();
    c.from_origin += static_cast<double>(d.bytes_from_origin());
    c.from_peers += static_cast<double>(d.bytes_from_peers());
    c.from_cache += static_cast<double>(d.bytes_from_cache());
  }
  for (const char* name : {"admissions", "rejections", "primings",
                           "priming_failures", "boots", "resizes",
                           "teardowns"}) {
    c.metrics[name] = hup.master().metrics().value(name);
  }
  return c;
}

struct Pass {
  double slowdown = 1;  // SpeedProbe::slowdown() over the pass
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t resolved = 0;  // completed + errors over every stream
  std::uint64_t scheduled = 0, completed = 0, errors = 0, lost = 0;
  std::uint64_t traffic_digest = 0;
  std::uint64_t state_digest = 0;
  std::size_t crashed = 0;
  double sim_s = 0;
  Samples slice_ms;
  // Traced-run figures.
  std::uint64_t events = 0;
  double run_s = 0;
  std::size_t pending_peak = 0, flows_peak = 0;
  double burst_wall = 0, burst_sim = 0, light_wall = 0, light_sim = 0;
  double fault_wall = 0, fault_sim = 0, steady_wall = 0, steady_sim = 0;
  std::uint64_t host_failures = 0, placements_lost = 0, recoveries = 0;
  Counters before, after;
};

/// Crashes up to in.crash_hosts hosts that are idle right now: loaded with
/// tenant nodes, holding no switch, no tenant with two nodes in the slab,
/// and no request in flight to any of their backends. A crash with nothing
/// in flight loses no request, and the survivors of every tenant take its
/// failover, so no simulated request fails.
void crash_idle_hosts(const Inputs& in, World& w, std::vector<std::string>& slab,
                      std::vector<std::string>& slab_services) {
  core::Hup& hup = *w.hup;
  for (const std::size_t index : in.crash_order) {
    if (slab.size() >= in.crash_hosts) return;
    const std::string host = host_name(index);
    core::SodaDaemon* daemon = hup.find_daemon(host);
    if (daemon == nullptr || !daemon->alive()) continue;
    bool loaded = false, eligible = true;
    std::vector<std::string> services;
    for (std::size_t t = 0; t < w.tenants.size() && eligible; ++t) {
      const Tenant& tenant = w.tenants[t];
      const std::string& name = in.tenants[t].name;
      const core::ServiceRecord* record = hup.master().find_service(name);
      for (const core::NodeDescriptor& node : record->nodes) {
        if (node.host_name != host) continue;
        loaded = true;
        if (node.address == tenant.sw->listen_address() ||
            std::find(slab_services.begin(), slab_services.end(), name) !=
                slab_services.end()) {
          eligible = false;
          break;
        }
        services.push_back(name);
        for (const core::BackEndState& b : tenant.sw->backends()) {
          if (b.entry.address == node.address && b.active_connections > 0) {
            eligible = false;
          }
        }
      }
    }
    if (!loaded || !eligible) continue;
    hup.crash_host(host);
    for (Server& s : w.servers) {
      if (s.host == host) s.server->set_down(true);
    }
    slab.push_back(host);
    slab_services.insert(slab_services.end(), services.begin(), services.end());
  }
}

Pass run_pass(const Inputs& in, std::size_t workers, const Options& options,
              Tracer& tracer, std::uint64_t pass_id, Result& result) {
  Pass p;
  SpeedProbe probe;
  probe.sample();
  const auto setup_start = Clock::now();
  World w;
  {
    Span span(tracer, "setup.world", pass_id);
    w = build_world(in);
  }
  p.setup_s = seconds_since(setup_start);
  result.check(w.ok, "a tenant service failed to come up during set-up");
  if (!w.ok) return p;
  core::Hup& hup = *w.hup;
  hup.engine().enable_sharding(workers);

  // Nodes that recovery re-creates get a server the moment they boot,
  // before the switch can route to them.
  World* world = &w;
  const std::size_t subscription = hup.master().bus().subscribe(
      [world](const core::ControlPlaneEvent& event) {
        if (event.kind != core::TraceKind::kNodeBooted) return;
        const auto slash = event.subject.find('/');
        const auto it = world->tenant_index.find(event.subject.substr(0, slash));
        const auto at = event.actor.find('@');
        if (it == world->tenant_index.end() || at == std::string::npos) return;
        core::SodaDaemon* daemon = world->hup->find_daemon(event.actor.substr(at + 1));
        if (daemon == nullptr) return;
        if (const vm::VirtualServiceNode* vsn = daemon->find_node(event.subject)) {
          world->back_node(it->second, *daemon, *vsn);
        }
      });

  workload::TrafficEngineConfig traffic_config;
  traffic_config.seed = in.traffic_seed;
  workload::TrafficEngine traffic(hup.engine(), traffic_config);
  for (std::size_t t = 0; t < in.tenants.size(); ++t) {
    traffic.add_stream(in.tenants[t].name, *w.tenants[t].siege,
                       in.tenants[t].trace);
  }
  if (options.traced) p.before = read_counters(w);

  std::vector<std::string> slab, slab_services;
  const sim::SimTime t0 = hup.engine().now();
  const double steady_from = in.crash_at_s - in.fault_window_s;
  const double limit_s = in.duration_s + 30;
  const double probe_s = probe.spent_s();
  const auto start = Clock::now();
  traffic.start();
  std::uint64_t slice = 0;
  double at = 0;
  while (at < in.duration_s + 1 || !traffic.finished()) {
    if (at >= limit_s) break;
    if (at >= in.crash_at_s && at < in.crash_at_s + 1 &&
        slab.size() < in.crash_hosts) {
      Span span(tracer, "core.crash_hosts", slice);
      crash_idle_hosts(in, w, slab, slab_services);
    }
    if (at >= in.reboot_at_s && !slab.empty()) {
      Span span(tracer, "core.recover_hosts", slice);
      for (const std::string& host : slab) hup.recover_host(host);
      p.crashed = slab.size();
      slab.clear();
    }
    if (options.traced) {
      p.pending_peak = std::max(p.pending_peak, hup.engine().pending());
      p.flows_peak = std::max(p.flows_peak, hup.network().active_flows());
    }
    if (slice % 40 == 39) probe.sample();
    ++slice;
    const double next = static_cast<double>(slice) * kSliceS;
    const auto slice_start = Clock::now();
    std::uint64_t events = 0;
    {
      Span span(tracer, "sim.run_until", pass_id * 100000 + slice);
      events = hup.engine().run_until(t0 + sim::SimTime::seconds(next));
    }
    const double wall = seconds_since(slice_start);
    p.slice_ms.add(wall * 1e3);
    p.events += events;
    p.run_s += wall;
    bool burst = false;
    for (const TenantInput& tenant : in.tenants) {
      burst = burst || (at < tenant.burst_to && next > tenant.burst_from);
    }
    (burst ? p.burst_wall : p.light_wall) += wall;
    (burst ? p.burst_sim : p.light_sim) += kSliceS;
    if (at >= in.crash_at_s && at < in.crash_at_s + in.fault_window_s) {
      p.fault_wall += wall;
      p.fault_sim += kSliceS;
    } else if (at >= steady_from && at < in.crash_at_s) {
      p.steady_wall += wall;
      p.steady_sim += kSliceS;
    }
    at = next;
  }
  p.wall_s = seconds_since(start) - (probe.spent_s() - probe_s);
  probe.sample();
  p.slowdown = probe.slowdown();

  p.sim_s = at;
  hup.master().bus().unsubscribe(subscription);

  result.check(traffic.finished(), "traffic did not finish within the limit");
  result.check(p.crashed > 0, "no host of the crash slab was idle");
  for (std::size_t t = 0; t < in.tenants.size(); ++t) {
    const std::string& name = in.tenants[t].name;
    const sim::StreamingStats& stats = traffic.stats(name);
    const std::uint64_t scheduled = traffic.scheduled(name);
    result.check(scheduled == stats.completed() + stats.errors(),
                 name + ": scheduled != completed + errors");
    p.scheduled += scheduled;
    p.completed += stats.completed();
    p.errors += stats.errors();
  }
  for (const Server& s : w.servers) p.lost += s.server->requests_dropped();
  p.resolved = p.completed + p.errors;
  p.traffic_digest = traffic.digest();
  auto digest = hup.state_digest();
  result.check(digest.ok(), "state_digest failed at the end of the run");
  if (digest.ok()) p.state_digest = digest.value();
  p.host_failures = hup.master().host_failures_detected();
  p.placements_lost = hup.master().placements_lost();
  p.recoveries = hup.master().recoveries_completed();
  if (options.traced) p.after = read_counters(w);
  return p;
}

}  // namespace

Result run_tenant_traffic(const Options& options, Tracer& tracer) {
  Result result;
  const Inputs in = draw_inputs(options.seed, options.small);
  const std::size_t workers = hardware_threads();
  const auto start = Clock::now();
  std::vector<Pass> serial, sharded;
  while (serial.size() < 2 ||
         (!options.small && seconds_since(start) < options.seconds)) {
    const std::uint64_t id = 2 * serial.size();
    serial.push_back(run_pass(in, 1, options, tracer, id, result));
    sharded.push_back(run_pass(in, workers, options, tracer, id + 1, result));
  }

  const Pass& first = serial.front();
  for (std::size_t k = 0; k < serial.size(); ++k) {
    for (const Pass* p : {&serial[k], &sharded[k]}) {
      result.check(p->traffic_digest == first.traffic_digest,
                   "TrafficEngine digest differs between passes");
      result.check(p->state_digest == first.state_digest,
                   "end-of-run state_digest differs between passes");
      result.attempted += p->scheduled;
      result.failed += p->errors + p->lost;
    }
  }
  Digest digest;
  digest.add(first.traffic_digest);
  digest.add(first.state_digest);
  result.digest = digest.hash;

  // Pass 0 of each engine warms the process; later passes are timed. Every
  // wall time is divided by the pass's machine slowdown. A pass has under
  // 200 slices, so slice percentiles pool every timed serial pass.
  Samples setup, serial_rate, sharded_rate, sim_rate, sharded_sim_rate;
  Samples slowdown, raw_sim_rate, slice_ms;
  double serial_s = 0, sharded_s = 0;
  for (std::size_t k = 0; k < serial.size(); ++k) {
    const Pass& a = serial[k];
    const Pass& b = sharded[k];
    setup.add(a.setup_s / a.slowdown);
    setup.add(b.setup_s / b.slowdown);
    slowdown.add(a.slowdown);
    slowdown.add(b.slowdown);
    if (k == 0) continue;
    serial_rate.add(static_cast<double>(a.resolved) * a.slowdown / a.wall_s);
    sharded_rate.add(static_cast<double>(b.resolved) * b.slowdown / b.wall_s);
    raw_sim_rate.add(a.sim_s / a.wall_s);
    sim_rate.add(a.sim_s * a.slowdown / a.wall_s);
    sharded_sim_rate.add(b.sim_s * b.slowdown / b.wall_s);
    slice_ms.append(a.slice_ms, a.slowdown);
    serial_s += a.wall_s / a.slowdown;
    sharded_s += b.wall_s / b.slowdown;
  }
  std::printf("tenant-traffic: %zu hosts, %zu tenants, %.0f simulated s, "
              "%llu requests, %zu hosts crashed, %zu timed pass pair(s), "
              "%zu slice samples, %zu shard worker(s)\n",
              in.big_host.size(), in.tenants.size(), in.duration_s,
              static_cast<unsigned long long>(first.scheduled), first.crashed,
              serial.size() - 1, slice_ms.size(), workers);
  std::printf("  machine slowdown %.3f (median), unadjusted sim_s_per_wall_s "
              "%.3f\n",
              slowdown.median(), steady_rate(raw_sim_rate));
  result.metric("machine_slowdown", slowdown.median(), "ratio");
  result.metric("setup_s", setup.median(), "s");
  result.metric("ops_per_s", steady_rate(serial_rate), "1/s");
  result.metric("alt_ops_per_s", steady_rate(sharded_rate), "1/s");
  result.metric("op_p50_ms", slice_ms.median(), "ms");
  result.metric("op_p99_ms", slice_ms.percentile(0.99), "ms");
  result.metric("sim_s_per_wall_s", steady_rate(sim_rate), "ratio");
  result.metric("sharded_sim_s_per_wall_s", steady_rate(sharded_sim_rate),
                "ratio");
  if (!options.traced) return result;

  const Pass& p = serial.back();
  const double k = p.slowdown;
  const auto delta = [&](const char* name) {
    return p.after.metrics.at(name) - p.before.metrics.at(name);
  };
  result.metric("sim.events", static_cast<double>(p.events), "count");
  result.metric("sim.run_s", p.run_s / k, "s");
  result.metric("sim.ns_per_event",
                p.events ? p.run_s * 1e9 / k / static_cast<double>(p.events)
                         : 0,
                "ns");
  result.metric("sim.pending_peak", static_cast<double>(p.pending_peak),
                "count");
  result.metric("sim.shard_efficiency",
                sharded_s > 0 ? (serial_s / sharded_s) /
                                    static_cast<double>(workers)
                              : 0,
                "ratio");
  for (const char* name : {"admissions", "rejections", "primings",
                           "priming_failures", "boots", "resizes",
                           "teardowns"}) {
    result.metric(std::string("core.") + name, delta(name), "count");
  }
  result.metric("core.switch.routed",
                static_cast<double>(p.after.routed - p.before.routed), "count");
  result.metric("core.switch.refused",
                static_cast<double>(p.after.refused - p.before.refused),
                "count");
  result.metric("core.switch.failovers",
                static_cast<double>(p.after.failovers - p.before.failovers),
                "count");
  result.metric("core.switch.epochs",
                static_cast<double>(p.after.epochs - p.before.epochs),
                "count");
  result.metric("core.recovery.failures", static_cast<double>(p.host_failures),
                "count");
  result.metric("core.recovery.placements_lost",
                static_cast<double>(p.placements_lost), "count");
  result.metric("core.recovery.recoveries", static_cast<double>(p.recoveries),
                "count");
  result.metric("core.recovery.fault_wall_per_sim_s",
                p.fault_sim > 0 ? p.fault_wall / k / p.fault_sim : 0, "s/s");
  result.metric("core.steady_wall_per_sim_s",
                p.steady_sim > 0 ? p.steady_wall / k / p.steady_sim : 0, "s/s");
  result.metric("core.trace_events",
                static_cast<double>(p.after.trace_events -
                                    p.before.trace_events),
                "count");
  result.metric("image.bytes_from_origin",
                p.after.from_origin - p.before.from_origin, "B");
  result.metric("image.bytes_from_peers",
                p.after.from_peers - p.before.from_peers, "B");
  result.metric("image.bytes_from_cache",
                p.after.from_cache - p.before.from_cache, "B");
  result.metric("net.bytes_delivered",
                static_cast<double>(p.after.bytes_delivered -
                                    p.before.bytes_delivered),
                "B");
  result.metric("net.active_flows_peak", static_cast<double>(p.flows_peak),
                "count");
  result.metric("workload.burst_wall_per_sim_s",
                p.burst_sim > 0 ? p.burst_wall / k / p.burst_sim : 0, "s/s");
  result.metric("workload.light_wall_per_sim_s",
                p.light_sim > 0 ? p.light_wall / k / p.light_sim : 0, "s/s");
  result.metric("workload.scheduled", static_cast<double>(p.scheduled),
                "count");
  result.metric("workload.completed", static_cast<double>(p.completed),
                "count");
  result.metric("workload.errors", static_cast<double>(p.errors), "count");
  result.metric("workload.lost", static_cast<double>(p.lost), "count");
  return result;
}

}  // namespace perfbench
