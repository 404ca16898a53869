// Reproduces Figure 6: application-level slow-down of the web content
// service, measured as request response time in three scenarios (no other
// load in the system, as in the paper):
//   (1) in one virtual service node, with service switch   (traced syscalls)
//   (2) directly on the host OS, with service switch        (native)
//   (3) directly on the host OS, without service switch     (native)
// The paper's observation: a visible but modest slow-down for (1), roughly
// constant across dataset sizes — far below the ~22x syscall-level ratio of
// Table 4.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_report.hpp"
#include "net/flow_network.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_runner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/siege.hpp"
#include "workload/webservice.hpp"

using namespace soda;

namespace {

constexpr double kSeattleGhz = 2.6;

struct Scenario {
  const char* label;
  bool in_vm;
  bool with_switch;
};

double mean_rt_ms(const Scenario& scenario, std::int64_t bytes,
                  workload::ContentKind content = workload::ContentKind::kStatic) {
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto lan = network.add_node("lan-switch");
  const auto client = network.add_node("client");
  const auto host = network.add_node("seattle");
  network.add_duplex_link(client, lan, 100, sim::SimTime::microseconds(100));
  network.add_duplex_link(host, lan, 100, sim::SimTime::microseconds(100));
  // Scenario (1): the service lives in a VM behind the host's bridge.
  net::NodeId service_node = host;
  if (scenario.in_vm) {
    service_node = network.add_node("vsn");
    // UML's traced virtual NIC delivers about half the host line rate.
    network.add_duplex_link(service_node, host, vm::uml_effective_nic_mbps(100),
                            sim::SimTime::microseconds(20));
  }
  const auto mode =
      scenario.in_vm ? vm::ExecMode::kUmlTraced : vm::ExecMode::kHostNative;
  workload::WebContentServer server(engine, network, service_node, mode,
                                    kSeattleGhz, 2, {}, content);

  workload::SiegeConfig cfg;
  cfg.concurrency = 1;  // light load
  cfg.think_time = sim::SimTime::milliseconds(20);
  cfg.max_requests = 200;
  cfg.response_bytes = bytes;
  cfg.switch_delay = workload::switch_forward_cost(kSeattleGhz, mode);

  const net::Ipv4Address ip(128, 10, 9, 125);
  core::ServiceSwitch sw("web-content", ip, 8080);
  must(sw.add_backend(core::BackEndEntry{ip, 8080, 1, ""}));

  workload::SiegeClient siege(
      engine, network, client, scenario.with_switch ? &sw : nullptr,
      scenario.with_switch ? std::optional<net::NodeId>(service_node)
                           : std::nullopt,
      cfg);
  siege.register_backend(ip, &server, service_node);
  siege.start();
  engine.run();
  return siege.stats().latency_moments().mean() * 1e3;
}

}  // namespace

int main() {
  std::printf("== Figure 6: slow-down at application level "
              "(request response time, light load) ==\n\n");
  const Scenario scenarios[] = {
      {"VSN + switch", true, true},
      {"host + switch", false, true},
      {"host direct", false, false},
  };
  const std::int64_t kKiB = 1024;
  const std::int64_t sizes[] = {16 * kKiB,  64 * kKiB,  128 * kKiB,
                                256 * kKiB, 512 * kKiB, 1024 * kKiB};
  constexpr std::size_t kSizes = 6;
  constexpr std::size_t kCells = kSizes * 3;

  // The 6x3 (size x scenario) grid is 18 independent simulations — each
  // builds its own Engine and network. Fan them out over ParallelRunner and
  // require the merged grid to match a serial sweep exactly.
  using Clock = std::chrono::steady_clock;
  const auto serial_start = Clock::now();
  std::vector<double> serial_grid(kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    serial_grid[i] = mean_rt_ms(scenarios[i % 3], sizes[i / 3]);
  }
  const double serial_s =
      std::chrono::duration<double>(Clock::now() - serial_start).count();

  const sim::ParallelRunner runner;
  const auto parallel_start = Clock::now();
  const auto grid = runner.map(kCells, [&](std::size_t i) {
    return mean_rt_ms(scenarios[i % 3], sizes[i / 3]);
  });
  const double parallel_s =
      std::chrono::duration<double>(Clock::now() - parallel_start).count();

  bool identical = true;
  for (std::size_t i = 0; i < kCells; ++i) {
    identical = identical && serial_grid[i] == grid[i];
  }

  util::AsciiTable table({"Dataset size", "VSN + switch (ms)",
                          "host + switch (ms)", "host direct (ms)",
                          "slow-down (1)/(3)"});
  table.set_alignment({util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});
  for (std::size_t i = 0; i < kSizes; ++i) {
    const double* rt = &grid[i * 3];
    char c1[16], c2[16], c3[16], factor[16];
    std::snprintf(c1, sizeof c1, "%.2f", rt[0]);
    std::snprintf(c2, sizeof c2, "%.2f", rt[1]);
    std::snprintf(c3, sizeof c3, "%.2f", rt[2]);
    std::snprintf(factor, sizeof factor, "%.2fx", rt[0] / rt[2]);
    table.add_row({util::format_bytes(sizes[i]), c1, c2, c3, factor});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape: the virtual-service-node slow-down is visible but modest and "
      "roughly constant across\ndataset sizes — far below Table 4's ~22x "
      "syscall-level ratio, because user-mode cycles and\nnetwork transfer "
      "dominate the response time. The switch hop adds a small constant.\n\n");

  // ---- Extension: dynamic (CGI) content — the "more extensive
  // experiments" the paper says are needed before generalizing. ----
  std::printf("== Extension: dynamic (CGI) content — fork/execve per "
              "request ==\n\n");
  util::AsciiTable dynamic_table({"Page size", "VSN + switch (ms)",
                                  "host direct (ms)", "slow-down"});
  dynamic_table.set_alignment({util::Align::kRight, util::Align::kRight,
                               util::Align::kRight, util::Align::kRight});
  const std::int64_t cgi_sizes[] = {4 * kKiB, 16 * kKiB, 64 * kKiB};
  const auto cgi_grid = runner.map(6, [&](std::size_t i) {
    return mean_rt_ms(scenarios[i % 2 == 0 ? 0 : 2], cgi_sizes[i / 2],
                      workload::ContentKind::kDynamic);
  });
  for (std::size_t i = 0; i < 3; ++i) {
    const double vsn = cgi_grid[i * 2];
    const double direct = cgi_grid[i * 2 + 1];
    char c1[16], c2[16], c3[16];
    std::snprintf(c1, sizeof c1, "%.2f", vsn);
    std::snprintf(c2, sizeof c2, "%.2f", direct);
    std::snprintf(c3, sizeof c3, "%.2fx", vsn / direct);
    dynamic_table.add_row({util::format_bytes(cgi_sizes[i]), c1, c2, c3});
  }
  std::printf("%s\n", dynamic_table.render().c_str());
  std::printf("process-management syscalls are UML's most tracing-hostile "
              "path, so CGI-style services pay\na noticeably larger factor "
              "than the static service — the cost of isolation is "
              "workload-dependent,\nwhich is why the paper stops short of a "
              "general conclusion.\n");

  std::printf("\nparallel sweep check: %s (serial %.2fs, parallel %.2fs on "
              "%zu worker(s))\n",
              identical ? "statistics identical to serial run"
                        : "MISMATCH vs serial run",
              serial_s, parallel_s, runner.thread_count());
  soda::bench::BenchReport report;
  report.record("fig6_sweep", {{"points", static_cast<double>(kCells)},
                               {"wall_s_serial", serial_s},
                               {"wall_s_parallel", parallel_s},
                               {"identical_to_serial", identical ? 1.0 : 0.0}});
  report.write();
  return identical ? 0 : 1;
}
