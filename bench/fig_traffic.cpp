// Coordinated omission, demonstrated: the same web-content fleet is driven
// two ways — by the classic closed-loop siege (N workers that wait for each
// response before sending the next request) and by the open-loop traffic
// engine (arrivals scheduled from a declarative trace, independent of
// completions, latency measured from the *scheduled* arrival). During a
// flash crowd the closed loop politely slows its offered load down to
// whatever the fleet can serve, so its latency distribution never sees the
// overload; the open loop keeps arriving and measures the queueing delay
// that real clients would suffer. The headline gate: open-loop p99 must be
// at least 2x the closed-loop p99 on the same fleet at the same nominal
// demand — if it isn't, the measurement stack has re-acquired the bug.
//
// Also gated here:
//   - determinism: the open-loop sweep runs once serially and once over
//     ParallelRunner; per-replica StreamingStats digests must be
//     bit-identical (identical_to_serial in BENCH_traffic.json),
//   - bounded memory: recording 1,000,000 samples into a StreamingStats
//     performs zero heap allocations after construction + reserve
//     (O(windows) state, never O(requests)) — counted via alloc_counter.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_report.hpp"
#include "core/hup.hpp"
#include "image/image.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/streaming_stats.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"
#include "workload/webservice.hpp"

using namespace soda;

namespace {

host::MachineConfig fig2_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

constexpr std::int64_t kResponseBytes = 2048;

struct Knobs {
  double warm_rate, warm_s;
  double burst_rate, burst_s;
  double cool_s;
  double ramp_to, ramp_s;
  std::uint64_t closed_requests;
  std::size_t replicas;
};

Knobs full_knobs() { return {400, 3, 4000, 2, 3, 2000, 4, 3000, 3}; }
Knobs ci_knobs() { return {300, 1.5, 3000, 1.5, 1.5, 1500, 2, 1200, 3}; }

struct Deployment {
  std::unique_ptr<core::Hup> hup;
  net::NodeId client;
  core::ServiceSwitch* sw = nullptr;
  std::vector<std::unique_ptr<workload::WebContentServer>> servers;
  std::vector<core::NodeDescriptor> nodes;
  net::NodeId switch_node;
};

/// The paper testbed running web-content on three virtual service nodes —
/// the same fleet fig4 measures, so capacities and shapers match.
Deployment deploy() {
  auto tb = core::Hup::paper_testbed();
  Deployment d;
  d.hup = std::move(tb.hup);
  d.client = tb.client;
  d.hup->agent().register_asp("asp", "key");
  const auto loc =
      must(tb.repo->publish(image::web_content_image(16 * 1024 * 1024)));
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web-content";
  request.image_location = loc;
  request.requirement = {3, fig2_unit()};
  d.hup->agent().service_creation(request, [](auto reply, sim::SimTime) {
    must(std::move(reply));
  });
  d.hup->engine().run();
  d.sw = d.hup->master().find_switch("web-content");
  d.nodes = d.hup->master().find_service("web-content")->nodes;
  for (const auto& node : d.nodes) {
    auto* daemon = d.hup->find_daemon(node.host_name);
    auto* vsn = daemon->find_node(node.node_name);
    std::vector<net::LinkId> outbound;
    if (auto link = d.hup->find_shaper(node.host_name)->link_for(vsn->address())) {
      outbound.push_back(*link);
    }
    d.servers.push_back(std::make_unique<workload::WebContentServer>(
        d.hup->engine(), d.hup->network(), vsn->net_node(),
        vm::ExecMode::kUmlTraced, daemon->host().spec().cpu_ghz,
        2 * node.capacity_units, std::move(outbound)));
    if (node.address == d.sw->listen_address()) d.switch_node = vsn->net_node();
  }
  return d;
}

workload::SiegeConfig base_config() {
  workload::SiegeConfig cfg;
  cfg.response_bytes = kResponseBytes;
  cfg.switch_delay =
      workload::switch_forward_cost(2.6, vm::ExecMode::kUmlTraced);
  return cfg;
}

struct OpenResult {
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double burst_peak_p99_ms = 0;  // worst per-window p99 (the flash crowd)
  std::uint64_t digest = 0;

  friend bool operator==(const OpenResult&, const OpenResult&) = default;
};

/// Open loop: warmup -> flash crowd -> recovery -> ramp, latency measured
/// from scheduled arrivals through the streaming stats pipeline.
OpenResult run_open(const Knobs& k, std::uint64_t seed) {
  Deployment d = deploy();
  workload::SiegeConfig cfg = base_config();
  cfg.record_samples = false;  // O(windows) streaming stats only
  workload::SiegeClient siege(d.hup->engine(), d.hup->network(), d.client,
                              d.sw, d.switch_node, cfg);
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    siege.register_backend(d.nodes[i].address, d.servers[i].get(),
                           d.servers[i]->node());
  }
  workload::TrafficEngineConfig traffic_config;
  traffic_config.seed = seed;
  workload::TrafficEngine traffic(d.hup->engine(), traffic_config);
  traffic.add_stream("web", siege,
                     workload::TrafficTrace()
                         .constant(k.warm_rate, k.warm_s)
                         .burst(k.burst_rate, k.burst_s)
                         .constant(k.warm_rate, k.cool_s)
                         .ramp(k.warm_rate, k.ramp_to, k.ramp_s));
  traffic.start();
  d.hup->engine().run();

  const sim::StreamingStats& stats = traffic.stats("web");
  OpenResult r;
  r.scheduled = traffic.scheduled("web");
  r.completed = stats.completed();
  r.errors = stats.errors();
  r.p50_ms = stats.p50() * 1e3;
  r.p99_ms = stats.p99() * 1e3;
  r.p999_ms = stats.p999() * 1e3;
  for (const auto& window : stats.windows()) {
    if (window.p99 * 1e3 > r.burst_peak_p99_ms) {
      r.burst_peak_p99_ms = window.p99 * 1e3;
    }
  }
  r.digest = traffic.digest();
  return r;
}

struct ClosedResult {
  std::uint64_t completed = 0;
  double achieved_rate = 0;  // completions / wall time: the adapted load
  double p50_ms = 0;
  double p99_ms = 0;
};

/// Closed loop on the identical fleet: enough workers to saturate, but the
/// offered load adapts to capacity — coordinated omission by construction.
ClosedResult run_closed(const Knobs& k) {
  Deployment d = deploy();
  workload::SiegeConfig cfg = base_config();
  cfg.concurrency = 8;
  cfg.think_time = sim::SimTime::milliseconds(5);
  cfg.max_requests = k.closed_requests;
  workload::SiegeClient siege(d.hup->engine(), d.hup->network(), d.client,
                              d.sw, d.switch_node, cfg);
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    siege.register_backend(d.nodes[i].address, d.servers[i].get(),
                           d.servers[i]->node());
  }
  const sim::SimTime start = d.hup->engine().now();
  siege.start();
  d.hup->engine().run();

  ClosedResult r;
  r.completed = siege.completed();
  const double span = (d.hup->engine().now() - start).to_seconds();
  r.achieved_rate = span > 0 ? static_cast<double>(r.completed) / span : 0;
  r.p50_ms = siege.stats().p50() * 1e3;
  r.p99_ms = siege.stats().p99() * 1e3;
  return r;
}

/// Allocation gate: a million samples through one StreamingStats must not
/// allocate after construction + reserve — memory is O(windows).
std::uint64_t streaming_alloc_count(std::uint64_t samples) {
  sim::StreamingStats stats;  // 1 s windows, 8-slot ring
  const double span_s = 1000.0;
  stats.reserve_duration(sim::SimTime::seconds(span_s));
  const double dt = span_s / static_cast<double>(samples);
  const std::uint64_t before = bench::allocation_count();
  for (std::uint64_t i = 0; i < samples; ++i) {
    const sim::SimTime at = sim::SimTime::seconds(dt * static_cast<double>(i));
    if (i % 97 == 0) {
      stats.record_error(at);
    } else {
      stats.record_latency(at, 1e-3 + 1e-6 * static_cast<double>(i % 1000));
    }
  }
  const std::uint64_t allocs = bench::allocation_count() - before;
  // Keep the pipeline honest: the readouts still work afterwards.
  if (stats.completed() + stats.errors() != samples || stats.p99() <= 0) {
    return UINT64_MAX;
  }
  return allocs;
}

}  // namespace

int main(int argc, char** argv) {
  const bool ci = argc > 1 && std::strcmp(argv[1], "--ci") == 0;
  const Knobs k = ci ? ci_knobs() : full_knobs();
  util::global_logger().set_level(util::LogLevel::kOff);

  std::printf("== Open-loop vs closed-loop latency on the fig4 fleet "
              "(coordinated omission) ==\n\n");

  // ---- closed loop (the adaptive, omission-prone baseline) ----
  const ClosedResult closed = run_closed(k);
  std::printf("closed loop: %llu requests, achieved %.0f req/s, "
              "p50=%.2fms p99=%.2fms\n",
              static_cast<unsigned long long>(closed.completed),
              closed.achieved_rate, closed.p50_ms, closed.p99_ms);

  // ---- open loop: serial sweep, then the same seeds over the runner ----
  std::vector<std::uint64_t> seeds(k.replicas);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 0xBEEF + i * 1001;

  using Clock = std::chrono::steady_clock;
  const auto serial_start = Clock::now();
  std::vector<OpenResult> serial;
  for (const auto seed : seeds) serial.push_back(run_open(k, seed));
  const double serial_s =
      std::chrono::duration<double>(Clock::now() - serial_start).count();

  const sim::ParallelRunner runner;
  const auto parallel_start = Clock::now();
  const auto parallel = runner.map(
      seeds.size(), [&](std::size_t i) { return run_open(k, seeds[i]); });
  const double parallel_s =
      std::chrono::duration<double>(Clock::now() - parallel_start).count();

  bool identical = serial.size() == parallel.size();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i] == parallel[i];
  }

  util::AsciiTable table({"Replica", "Scheduled", "Served", "Refused",
                          "p50 (ms)", "p99 (ms)", "p999 (ms)",
                          "burst window p99 (ms)"});
  table.set_alignment({util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    const OpenResult& r = parallel[i];
    char p50[32], p99[32], p999[32], burst[32];
    std::snprintf(p50, sizeof p50, "%.2f", r.p50_ms);
    std::snprintf(p99, sizeof p99, "%.2f", r.p99_ms);
    std::snprintf(p999, sizeof p999, "%.2f", r.p999_ms);
    std::snprintf(burst, sizeof burst, "%.2f", r.burst_peak_p99_ms);
    table.add_row({std::to_string(i), std::to_string(r.scheduled),
                   std::to_string(r.completed), std::to_string(r.errors),
                   p50, p99, p999, burst});
  }
  std::printf("\n%s\n", table.render().c_str());

  const OpenResult& open = parallel.front();
  const double ratio = closed.p99_ms > 0 ? open.p99_ms / closed.p99_ms : 0;
  const bool omission_shown = open.p99_ms >= 2.0 * closed.p99_ms;
  std::printf(
      "open-loop p99 %.2fms vs closed-loop p99 %.2fms -> %.1fx: the flash "
      "crowd's queueing delay is\n%s by the open loop (closed-loop offered "
      "load adapted to capacity and never measured it).\n",
      open.p99_ms, closed.p99_ms, ratio,
      omission_shown ? "captured" : "NOT CAPTURED — measurement regression");

  // ---- allocation gate ----
  const std::uint64_t kSamples = 1'000'000;
  const std::uint64_t allocs = streaming_alloc_count(kSamples);
  std::printf("\nstreaming stats: %llu samples recorded with %llu heap "
              "allocation(s) (O(windows) memory)\n",
              static_cast<unsigned long long>(kSamples),
              static_cast<unsigned long long>(allocs));

  std::printf("parallel sweep check: %s (serial %.2fs, parallel %.2fs on %zu "
              "worker(s))\n",
              identical ? "statistics identical to serial run"
                        : "MISMATCH vs serial run",
              serial_s, parallel_s, runner.thread_count());

  bench::BenchReport report("BENCH_traffic.json", "soda-traffic");
  report.record("traffic_open_loop",
                {{"replicas", static_cast<double>(k.replicas)},
                 {"scheduled", static_cast<double>(open.scheduled)},
                 {"served", static_cast<double>(open.completed)},
                 {"refused", static_cast<double>(open.errors)},
                 {"p50_ms", open.p50_ms},
                 {"p99_ms", open.p99_ms},
                 {"p999_ms", open.p999_ms},
                 {"burst_peak_p99_ms", open.burst_peak_p99_ms},
                 {"wall_s_serial", serial_s},
                 {"wall_s_parallel", parallel_s},
                 {"cores", static_cast<double>(bench::machine_cores())},
                 {"parallel_efficiency",
                  bench::parallel_efficiency(serial_s, parallel_s, k.replicas)},
                 {"identical_to_serial", identical ? 1.0 : 0.0}});
  report.record("traffic_closed_loop",
                {{"requests", static_cast<double>(closed.completed)},
                 {"achieved_rate", closed.achieved_rate},
                 {"p50_ms", closed.p50_ms},
                 {"p99_ms", closed.p99_ms},
                 {"open_over_closed_p99", ratio},
                 {"coordinated_omission_shown", omission_shown ? 1.0 : 0.0}});
  report.record("traffic_streaming_stats",
                {{"samples", static_cast<double>(kSamples)},
                 {"record_allocs", static_cast<double>(allocs)}});
  report.write();

  return (identical && omission_shown && allocs == 0) ? 0 : 1;
}
