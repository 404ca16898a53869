// Reproduces Figure 4: average request response time of the web content
// service achieved by its two virtual service nodes — seattle carrying 2M,
// tacoma carrying 1M — under the default weighted-round-robin switching
// policy, across six dataset sizes (request rate decreasing as the dataset
// grows, as in the paper). The expected shape: the seattle node serves
// about twice as many requests, yet both nodes see approximately the same
// response time.
//
// An extended series repeats the largest dataset under the ablation
// policies (plain round-robin, random, least-connections) to show why the
// capacity-aware default is the right one.
//
// A second sweep re-expresses the same offered load open-loop: a
// workload::TrafficTrace drives arrivals at the paper's (decreasing) rate
// independent of completions, so the 2:1 request split survives without the
// closed loop's self-throttling. An overload window — ramp past the
// fleet's service rate and back — reports per-window p99 through the
// overload, which the closed loop structurally cannot measure.
//
// Responses cross each node's outbound traffic shaper, whose limit the
// SODA Daemon set proportional to the node's capacity (2M -> 2x the
// bandwidth share): proportional shares are what keep the per-request
// response time equal while seattle carries twice the requests.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_report.hpp"
#include "core/hup.hpp"
#include "image/image.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/streaming_stats.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
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

struct Deployment {
  std::unique_ptr<core::Hup> hup;
  net::NodeId client;
  core::ServiceSwitch* sw = nullptr;
  std::vector<std::unique_ptr<workload::WebContentServer>> servers;
  std::vector<core::NodeDescriptor> nodes;
  net::NodeId switch_node;
};

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
  const auto* record = d.hup->master().find_service("web-content");
  d.nodes = record->nodes;
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

struct SeriesPoint {
  std::uint64_t served[2];
  double mean_ms[2];
};

SeriesPoint run_point(std::int64_t dataset_bytes, std::uint64_t requests,
                      std::unique_ptr<core::SwitchPolicy> policy = nullptr) {
  Deployment d = deploy();
  if (policy) d.sw->set_policy(std::move(policy));
  workload::SiegeConfig cfg;
  cfg.concurrency = 6;
  // The paper reduces the arrival rate as the dataset grows; in closed loop
  // the think time plays that role.
  cfg.think_time = sim::SimTime::milliseconds(
      20 + dataset_bytes / (64 * 1024));
  cfg.response_bytes = dataset_bytes;
  cfg.max_requests = requests;
  cfg.switch_delay =
      workload::switch_forward_cost(2.6, vm::ExecMode::kUmlTraced);
  workload::SiegeClient siege(d.hup->engine(), d.hup->network(), d.client,
                              d.sw, d.switch_node, cfg);
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    siege.register_backend(d.nodes[i].address, d.servers[i].get(),
                           d.servers[i]->node());
  }
  siege.start();
  d.hup->engine().run();

  SeriesPoint point{};
  for (std::size_t i = 0; i < 2; ++i) {
    point.served[i] = siege.completed_by(d.nodes[i].address);
    point.mean_ms[i] = siege.backend_latency(d.nodes[i].address).mean() * 1e3;
  }
  return point;
}

bool same_point(const SeriesPoint& a, const SeriesPoint& b) {
  return a.served[0] == b.served[0] && a.served[1] == b.served[1] &&
         a.mean_ms[0] == b.mean_ms[0] && a.mean_ms[1] == b.mean_ms[1];
}

// ---- Open-loop re-expression of the offered load -------------------------

struct OpenPoint {
  std::uint64_t served[2] = {0, 0};
  std::uint64_t scheduled = 0;
  std::uint64_t errors = 0;
  double p99_ms = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const OpenPoint&, const OpenPoint&) = default;
};

/// The same deployment driven by a TrafficTrace instead of siege workers:
/// arrivals keep coming at the trace's rate whatever the service does, and
/// latency is measured from the scheduled arrival (coordinated-omission
/// free). Returns the per-window p99 series through `out_windows` when the
/// caller wants the overload profile.
OpenPoint run_open_point(
    std::int64_t dataset_bytes, const workload::TrafficTrace& trace,
    std::vector<sim::StreamingStats::WindowSummary>* out_windows = nullptr) {
  Deployment d = deploy();
  workload::SiegeConfig cfg;
  cfg.response_bytes = dataset_bytes;
  cfg.record_samples = false;  // O(windows) streaming stats only
  cfg.switch_delay =
      workload::switch_forward_cost(2.6, vm::ExecMode::kUmlTraced);
  workload::SiegeClient siege(d.hup->engine(), d.hup->network(), d.client,
                              d.sw, d.switch_node, cfg);
  for (std::size_t i = 0; i < d.nodes.size(); ++i) {
    siege.register_backend(d.nodes[i].address, d.servers[i].get(),
                           d.servers[i]->node());
  }
  workload::TrafficEngine traffic(d.hup->engine());
  traffic.add_stream("web-content", siege, trace);
  traffic.start();
  d.hup->engine().run();

  const sim::StreamingStats& stats = traffic.stats("web-content");
  OpenPoint point;
  for (std::size_t i = 0; i < 2; ++i) {
    point.served[i] = siege.completed_by(d.nodes[i].address);
  }
  point.scheduled = traffic.scheduled("web-content");
  point.errors = stats.errors();
  point.p99_ms = stats.p99() * 1e3;
  point.digest = traffic.digest();
  if (out_windows) *out_windows = stats.windows();
  return point;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kOff);
  std::printf("== Figure 4: per-node response time under weighted "
              "round-robin (2:1 capacities) ==\n\n");

  const std::int64_t kKiB = 1024;
  const std::int64_t sizes[] = {64 * kKiB,  128 * kKiB, 256 * kKiB,
                                512 * kKiB, 1024 * kKiB, 2048 * kKiB};
  constexpr std::size_t kPoints = 6;

  // The six dataset sizes are independent replicas: run the sweep once
  // serially and once fanned out over ParallelRunner, and require the merged
  // statistics to be identical — thread scheduling must never leak into
  // results. Each run_point builds its own Hup/Engine, so jobs share nothing.
  using Clock = std::chrono::steady_clock;
  const auto serial_start = Clock::now();
  std::vector<SeriesPoint> serial_points;
  for (const auto size : sizes) serial_points.push_back(run_point(size, 300));
  const double serial_s =
      std::chrono::duration<double>(Clock::now() - serial_start).count();

  const sim::ParallelRunner runner;
  const auto parallel_start = Clock::now();
  const auto points = runner.map(
      kPoints, [&](std::size_t i) { return run_point(sizes[i], 300); });
  const double parallel_s =
      std::chrono::duration<double>(Clock::now() - parallel_start).count();

  bool identical = true;
  for (std::size_t i = 0; i < kPoints; ++i) {
    identical = identical && same_point(serial_points[i], points[i]);
  }

  util::AsciiTable table({"Dataset size", "req (seattle)", "req (tacoma)",
                          "RT seattle (ms)", "RT tacoma (ms)", "RT ratio"});
  table.set_alignment({util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});
  for (std::size_t i = 0; i < kPoints; ++i) {
    const auto& point = points[i];
    char rt1[32], rt2[32], ratio[16];
    std::snprintf(rt1, sizeof rt1, "%.1f", point.mean_ms[0]);
    std::snprintf(rt2, sizeof rt2, "%.1f", point.mean_ms[1]);
    std::snprintf(ratio, sizeof ratio, "%.2f",
                  point.mean_ms[1] > 0 ? point.mean_ms[0] / point.mean_ms[1] : 0);
    table.add_row({util::format_bytes(sizes[i]), std::to_string(point.served[0]),
                   std::to_string(point.served[1]), rt1, rt2, ratio});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape: seattle serves ~2x the requests of tacoma at every "
              "size; the two response times stay\napproximately equal "
              "(ratio ~1), which is the paper's load-balancing claim.\n\n");

  // ---- Ablation: switching policies at the largest dataset ----
  std::printf("== Ablation: switching policy at %s ==\n\n",
              util::format_bytes(sizes[5]).c_str());
  util::AsciiTable ab({"Policy", "req (seattle)", "req (tacoma)",
                       "RT seattle (ms)", "RT tacoma (ms)"});
  ab.set_alignment({util::Align::kLeft, util::Align::kRight,
                    util::Align::kRight, util::Align::kRight,
                    util::Align::kRight});
  // Policies are constructed per-run (factories, not instances) so the
  // ablation sweep can also fan out across the runner.
  struct PolicyRow {
    const char* name;
    std::function<std::unique_ptr<core::SwitchPolicy>()> make;
  };
  const PolicyRow policies[] = {
      {"weighted-rr (default)", [] { return std::unique_ptr<core::SwitchPolicy>(); }},
      {"plain round-robin", [] { return core::make_plain_round_robin(); }},
      {"random", [] { return core::make_random_policy(7); }},
      {"least-connections", [] { return core::make_least_connections(); }},
      {"fastest-response (EWMA)", [] { return core::make_fastest_response(); }},
  };
  constexpr std::size_t kPolicies = 5;
  const auto ablation_points = runner.map(kPolicies, [&](std::size_t i) {
    return run_point(sizes[5], 300, policies[i].make());
  });
  for (std::size_t i = 0; i < kPolicies; ++i) {
    const auto& point = ablation_points[i];
    char rt1[32], rt2[32];
    std::snprintf(rt1, sizeof rt1, "%.1f", point.mean_ms[0]);
    std::snprintf(rt2, sizeof rt2, "%.1f", point.mean_ms[1]);
    ab.add_row({policies[i].name, std::to_string(point.served[0]),
                std::to_string(point.served[1]), rt1, rt2});
  }
  std::printf("%s\n", ab.render().c_str());
  std::printf(
      "capacity-blind policies (plain RR, random) push half the load onto the "
      "smaller tacoma node\nand its response time explodes. Least-connections "
      "tracks the 2:1 capacities almost exactly —\nqueue depth is honest "
      "feedback. Greedy latency routing (fastest-response) HERDS: with "
      "closed-loop\nfeedback delayed by seconds-long transfers, its stale "
      "estimates pin nearly all load on one node.\nThe paper's default — WRR "
      "over declared capacities — is both stable and balanced.\n");

  // ---- Open loop: the same offered load as arrival traces ----
  // The paper decreases the offered rate as the dataset grows; the trace
  // states it outright (requests/second) instead of encoding it as think
  // time, and the arrivals do not slow down when the service does.
  std::printf("\n== Open loop: offered load as TrafficTrace ==\n\n");
  const double open_rates[kPoints] = {60, 40, 25, 15, 8, 5};
  constexpr double kOpenSeconds = 8;
  const auto open_serial = [&](std::size_t i) {
    return run_open_point(sizes[i], workload::TrafficTrace().constant(
                                        open_rates[i], kOpenSeconds));
  };
  std::vector<OpenPoint> open_points;
  for (std::size_t i = 0; i < kPoints; ++i) open_points.push_back(open_serial(i));
  const auto open_parallel = runner.map(kPoints, open_serial);
  bool open_identical = true;
  for (std::size_t i = 0; i < kPoints; ++i) {
    open_identical = open_identical && open_points[i] == open_parallel[i];
  }

  util::AsciiTable open_table({"Dataset size", "offered req/s", "req (seattle)",
                               "req (tacoma)", "p99 (ms)", "errors"});
  open_table.set_alignment({util::Align::kRight, util::Align::kRight,
                            util::Align::kRight, util::Align::kRight,
                            util::Align::kRight, util::Align::kRight});
  for (std::size_t i = 0; i < kPoints; ++i) {
    const auto& point = open_points[i];
    char rate[16], p99[32];
    std::snprintf(rate, sizeof rate, "%.0f", open_rates[i]);
    std::snprintf(p99, sizeof p99, "%.1f", point.p99_ms);
    open_table.add_row({util::format_bytes(sizes[i]), rate,
                        std::to_string(point.served[0]),
                        std::to_string(point.served[1]), p99,
                        std::to_string(point.errors)});
  }
  std::printf("%s\n", open_table.render().c_str());
  std::printf("the 2:1 request split survives open-loop arrivals — the "
              "balance is the switch's doing,\nnot an artifact of closed-loop "
              "self-throttling.\n");

  // ---- Overload window: ramp past the fleet's service rate and back. ----
  // Per-window p99 through the window is the series the closed loop cannot
  // produce: once overloaded it simply offers less.
  const std::size_t kWindowSize = 2;  // 256 KiB
  const double warm_rate = open_rates[kWindowSize];
  std::vector<sim::StreamingStats::WindowSummary> windows;
  const OpenPoint overload = run_open_point(
      sizes[kWindowSize], workload::TrafficTrace()
                              .constant(warm_rate, 3)
                              .ramp(warm_rate, 8 * warm_rate, 4)
                              .constant(warm_rate, 3),
      &windows);
  std::printf("\n== Overload window at %s: %.0f req/s -> %.0f req/s -> "
              "%.0f req/s ==\n\n",
              util::format_bytes(sizes[kWindowSize]).c_str(), warm_rate,
              8 * warm_rate, warm_rate);
  util::AsciiTable wtable({"window (s)", "completed", "errors", "p99 (ms)"});
  wtable.set_alignment({util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight});
  double steady_p99_ms = 0;
  double peak_p99_ms = 0;
  for (const auto& window : windows) {
    char when[32], p99[32];
    std::snprintf(when, sizeof when, "%.0f", window.start.to_seconds());
    std::snprintf(p99, sizeof p99, "%.1f", window.p99 * 1e3);
    wtable.add_row({when, std::to_string(window.completed),
                    std::to_string(window.errors), p99});
    if (steady_p99_ms == 0 && window.completed > 0) {
      steady_p99_ms = window.p99 * 1e3;  // first (pre-overload) window
    }
    peak_p99_ms = std::max(peak_p99_ms, window.p99 * 1e3);
  }
  std::printf("%s\n", wtable.render().c_str());
  std::printf("queueing delay lands in the p99 series exactly while the "
              "offered rate exceeds capacity\n(peak %.1f ms vs %.1f ms "
              "steady over %llu arrivals, %llu errors), then drains.\n",
              peak_p99_ms, steady_p99_ms,
              static_cast<unsigned long long>(overload.scheduled),
              static_cast<unsigned long long>(overload.errors));

  std::printf("\nparallel sweep check: %s (serial %.2fs, parallel %.2fs on "
              "%zu worker(s))\n",
              identical && open_identical
                  ? "statistics identical to serial run"
                  : "MISMATCH vs serial run",
              serial_s, parallel_s, runner.thread_count());
  soda::bench::BenchReport report;
  report.record("fig4_sweep", {{"points", static_cast<double>(kPoints)},
                               {"wall_s_serial", serial_s},
                               {"wall_s_parallel", parallel_s},
                               {"identical_to_serial", identical ? 1.0 : 0.0}});
  report.record("fig4_open_loop",
                {{"points", static_cast<double>(kPoints)},
                 {"identical_to_serial", open_identical ? 1.0 : 0.0},
                 {"overload_peak_p99_ms", peak_p99_ms},
                 {"overload_steady_p99_ms", steady_p99_ms}});
  report.write();
  return identical && open_identical ? 0 : 1;
}
