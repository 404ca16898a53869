// Switch data-plane benchmark: routes ~1M synthetic requests across
// 2/8/32 backends under every built-in switching policy, head-to-head
// against the seed request path (bench/seed_switch.hpp — per-request
// healthy-view materialization, map-keyed policy state, post-pick rescan).
// Records routes/sec, the speedup, and allocations-per-route (via
// alloc_counter.cpp) into BENCH_switch_dataplane.json.
//
// Three gates, enforced by the exit code:
//   * every built-in policy routes with ZERO steady-state allocations;
//   * the data plane is >= 5x the seed path in aggregate routes/sec over
//     the sweep (per-cell ratios are recorded too: small fleets with cheap
//     2-malloc views gain ~3x, 32-backend fleets gain ~6-12x);
//   * the routed-request interleavings of the whole sweep are bit-identical
//     when the cells fan out over sim::ParallelRunner (identical_to_serial).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_report.hpp"
#include "core/switch.hpp"
#include "seed_switch.hpp"
#include "sim/parallel_runner.hpp"
#include "util/contract.hpp"
#include "util/fnv.hpp"
#include "util/table.hpp"

using namespace soda;

namespace {

constexpr int kBackendCounts[] = {2, 8, 32};
constexpr std::size_t kSizes = 3;
constexpr std::uint64_t kPerfRequests = 1'000'000;
constexpr std::uint64_t kWarmupRequests = 20'000;
constexpr std::uint64_t kTraceRequests = 200'000;
constexpr double kMinSpeedup = 5.0;

struct PolicySpec {
  const char* key;    // report entry suffix
  const char* label;  // table row
  std::function<std::unique_ptr<core::SwitchPolicy>()> make;
  std::function<std::unique_ptr<bench::SeedSwitchPolicy>()> make_seed;
};

const PolicySpec kPolicies[] = {
    {"wrr", "weighted-rr", [] { return core::make_weighted_round_robin(); },
     [] { return bench::make_seed_weighted_round_robin(); }},
    {"rr", "plain-rr", [] { return core::make_plain_round_robin(); },
     [] { return bench::make_seed_plain_round_robin(); }},
    {"random", "random", [] { return core::make_random_policy(42); },
     [] { return bench::make_seed_random_policy(42); }},
    {"least", "least-conn", [] { return core::make_least_connections(); },
     [] { return bench::make_seed_least_connections(); }},
    {"ewma", "fastest-response", [] { return core::make_fastest_response(0.2); },
     [] { return bench::make_seed_fastest_response(0.2); }},
};
constexpr std::size_t kPolicyCount = 5;

net::Ipv4Address backend_address(int i) {
  return net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i / 250),
                          static_cast<std::uint8_t>(i % 250 + 1));
}

template <typename Switch>
void add_backends(Switch& sw, int n) {
  for (int i = 0; i < n; ++i) {
    must(sw.add_backend(
        core::BackEndEntry{backend_address(i), 8080, 1 + i % 3, {}}));
  }
}

/// Deterministic synthetic response time for the request completed at
/// iteration `i` (feeds the EWMA policy; no-op feedback for the others).
inline double synthetic_rt(std::uint64_t i) noexcept {
  return 1e-4 * static_cast<double>(i % 13 + 1);
}

/// The uniform request loop both switch designs run: route, record, and
/// complete requests with a small in-flight window so connection counts
/// stay live (least-connections sees real queue depth). `observe` sees
/// every routed entry, in order.
template <typename Switch, typename Observe>
void drive(Switch& sw, std::uint64_t requests, Observe observe) {
  constexpr std::uint64_t kOutstanding = 4;
  std::uint32_t ring_addr[kOutstanding] = {};
  int ring_port[kOutstanding] = {};
  for (std::uint64_t i = 0; i < requests; ++i) {
    const std::uint64_t slot = i % kOutstanding;
    if (i >= kOutstanding) {
      const net::Ipv4Address done(ring_addr[slot]);
      sw.on_request_complete(done, ring_port[slot]);
      sw.report_response_time(done, ring_port[slot], synthetic_rt(i));
    }
    const auto routed = sw.route();
    if (!routed.ok()) std::abort();  // the loop never drains all backends
    const core::BackEndEntry& entry = routed.value();
    observe(entry);
    ring_addr[slot] = entry.address.value();
    ring_port[slot] = entry.port;
  }
  for (std::uint64_t i = 0; i < kOutstanding && i < requests; ++i) {
    sw.on_request_complete(net::Ipv4Address(ring_addr[i]), ring_port[i]);
  }
}

/// Runs `requests` through `sw` without looking at where they went.
template <typename Switch>
void drive(Switch& sw, std::uint64_t requests) {
  drive(sw, requests, [](const core::BackEndEntry&) {});
}

/// One determinism cell: the full routed-request interleaving of a fresh
/// switch, reduced to a hash plus per-backend counts.
struct RouteTrace {
  std::uint64_t hash = 0;
  std::uint64_t routed = 0;
  std::vector<std::uint64_t> per_backend;

  friend bool operator==(const RouteTrace&, const RouteTrace&) = default;
};

RouteTrace run_trace(std::size_t policy, int backends) {
  core::ServiceSwitch sw("bench", net::Ipv4Address(10, 0, 0, 254), 80);
  add_backends(sw, backends);
  sw.set_policy(kPolicies[policy].make());
  RouteTrace trace;
  trace.hash = util::kFnvBasis;
  drive(sw, kTraceRequests, [&trace](const core::BackEndEntry& entry) {
    trace.hash = util::fnv1a_word(
        trace.hash, std::uint64_t{entry.address.value()} << 32 |
                        static_cast<std::uint32_t>(entry.port));
  });
  trace.routed = sw.requests_routed();
  for (int i = 0; i < backends; ++i) {
    trace.per_backend.push_back(sw.routed_to(backend_address(i), 8080));
  }
  return trace;
}

struct Measurement {
  double seconds = 0;
  double routes_per_sec = 0;
  double allocs_per_route = 0;
};

struct PerfCell {
  Measurement fast;  // the epoch-cached data plane
  Measurement seed;  // the materialize-and-rescan path

  [[nodiscard]] double speedup() const noexcept {
    return seed.routes_per_sec > 0
               ? fast.routes_per_sec / seed.routes_per_sec
               : 0;
  }
};

template <typename Switch>
Measurement measure(Switch& sw) {
  drive(sw, kWarmupRequests);
  const std::uint64_t allocs_before = bench::allocation_count();
  const auto start = std::chrono::steady_clock::now();
  // A port sum keeps the loop observable, so it cannot be optimized away;
  // the routing fingerprint is hashed in run_trace(), outside the clock.
  std::uint64_t ports = 0;
  drive(sw, kPerfRequests,
        [&ports](const core::BackEndEntry& entry) { ports += entry.port; });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t allocs = bench::allocation_count() - allocs_before;
  if (ports == 0) std::printf("unlikely zero port sum\n");
  return {seconds, static_cast<double>(kPerfRequests) / seconds,
          static_cast<double>(allocs) / static_cast<double>(kPerfRequests)};
}

PerfCell run_perf(std::size_t policy, int backends) {
  PerfCell cell;
  {
    core::ServiceSwitch sw("bench", net::Ipv4Address(10, 0, 0, 254), 80);
    add_backends(sw, backends);
    sw.set_policy(kPolicies[policy].make());
    // Warmup inside measure() builds the snapshot; from then on the epoch
    // must not move — the steady state really is steady.
    drive(sw, 64);
    const std::uint64_t epoch = sw.epoch();
    cell.fast = measure(sw);
    SODA_ENSURES(sw.epoch() == epoch);
  }
  {
    bench::SeedServiceSwitch sw;
    add_backends(sw, backends);
    sw.set_policy(kPolicies[policy].make_seed());
    cell.seed = measure(sw);
  }
  return cell;
}

std::string format_rate(double per_sec) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2fM/s", per_sec / 1e6);
  return buffer;
}

}  // namespace

int main() {
  std::printf("== Switch data plane: routes/sec and allocations vs the seed "
              "path ==\n\n");

  // ---- Determinism: the full (policy x size) sweep, serial vs parallel ----
  constexpr std::size_t kCells = kPolicyCount * kSizes;
  std::vector<RouteTrace> serial_traces;
  for (std::size_t p = 0; p < kPolicyCount; ++p) {
    for (std::size_t s = 0; s < kSizes; ++s) {
      serial_traces.push_back(run_trace(p, kBackendCounts[s]));
    }
  }
  const sim::ParallelRunner runner;
  const auto parallel_traces = runner.map(kCells, [&](std::size_t i) {
    return run_trace(i / kSizes, kBackendCounts[i % kSizes]);
  });
  bool identical = true;
  for (std::size_t i = 0; i < kCells; ++i) {
    identical = identical && serial_traces[i] == parallel_traces[i];
  }

  // ---- Perf: 1M routed requests per cell, new path vs seed path ----
  util::AsciiTable table({"Policy", "Backends", "routes/sec", "seed routes/sec",
                          "speedup", "allocs/route", "seed allocs/route"});
  table.set_alignment({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});
  soda::bench::BenchReport report("BENCH_switch_dataplane.json",
                                  "soda-switch-dataplane");
  double min_speedup = 1e30;
  double max_allocs = 0;
  double fast_seconds = 0;
  double seed_seconds = 0;
  for (std::size_t p = 0; p < kPolicyCount; ++p) {
    for (std::size_t s = 0; s < kSizes; ++s) {
      const int n = kBackendCounts[s];
      const PerfCell cell = run_perf(p, n);
      min_speedup = std::min(min_speedup, cell.speedup());
      max_allocs = std::max(max_allocs, cell.fast.allocs_per_route);
      fast_seconds += cell.fast.seconds;
      seed_seconds += cell.seed.seconds;
      char speedup[16], allocs[16], seed_allocs[16];
      std::snprintf(speedup, sizeof speedup, "%.1fx", cell.speedup());
      std::snprintf(allocs, sizeof allocs, "%.3f",
                    cell.fast.allocs_per_route);
      std::snprintf(seed_allocs, sizeof seed_allocs, "%.3f",
                    cell.seed.allocs_per_route);
      table.add_row({kPolicies[p].label, std::to_string(n),
                     format_rate(cell.fast.routes_per_sec),
                     format_rate(cell.seed.routes_per_sec), speedup, allocs,
                     seed_allocs});
      report.record(
          std::string("switch_route_") + kPolicies[p].key + "_n" +
              std::to_string(n),
          {{"routes_per_sec", cell.fast.routes_per_sec},
           {"seed_routes_per_sec", cell.seed.routes_per_sec},
           {"speedup", cell.speedup()},
           {"allocs_per_route", cell.fast.allocs_per_route},
           {"seed_allocs_per_route", cell.seed.allocs_per_route}});
    }
  }
  std::printf("%s\n", table.render().c_str());

  // Headline throughput ratio: the same 15M routed requests, end to end.
  const double sweep_requests =
      static_cast<double>(kCells) * static_cast<double>(kPerfRequests);
  const double sweep_speedup =
      fast_seconds > 0 ? seed_seconds / fast_seconds : 0;
  const bool zero_alloc = max_allocs == 0;
  const bool fast_enough = sweep_speedup >= kMinSpeedup;
  std::printf("steady-state allocations per route: %s (max %.3f)\n",
              zero_alloc ? "ZERO for every built-in policy" : "NON-ZERO",
              max_allocs);
  std::printf("sweep routes/sec: %.2fM/s vs seed %.2fM/s -> %.1fx "
              "(gate: >= %.0fx; slowest cell %.1fx)\n",
              sweep_requests / fast_seconds / 1e6,
              sweep_requests / seed_seconds / 1e6, sweep_speedup, kMinSpeedup,
              min_speedup);
  std::printf("parallel sweep check: %s (%zu cells on %zu worker(s))\n",
              identical ? "routed interleavings identical to serial run"
                        : "MISMATCH vs serial run",
              kCells, runner.thread_count());

  report.record("switch_dataplane_sweep",
                {{"cells", static_cast<double>(kCells)},
                 {"requests_per_cell", static_cast<double>(kPerfRequests)},
                 {"routes_per_sec", sweep_requests / fast_seconds},
                 {"seed_routes_per_sec", sweep_requests / seed_seconds},
                 {"speedup", sweep_speedup},
                 {"min_cell_speedup", min_speedup},
                 {"max_allocs_per_route", max_allocs},
                 {"identical_to_serial", identical ? 1.0 : 0.0}});
  report.write();
  return identical && zero_alloc && fast_enough ? 0 : 1;
}
