// Fleet-scale control-plane benchmark: a 10,000-host HUP hosting ~2,000
// services that serve 1M+ virtual users through ramp / steady / fault
// phases, plus head-to-head microbenches of the two hot control-plane
// paths against the preserved seed data layout (bench/seed_planner.hpp:
// string-keyed hosts, slice-resumming comparators, map-scan detector).
// Results land in BENCH_fleet.json.
//
// Gates, enforced by the exit code:
//   * the whole fleet scenario is bit-identical when its replicas fan out
//     over sim::ParallelRunner (identical_to_serial);
//   * a steady-state placement decision performs ZERO heap allocations and
//     runs >= 5x the seed planner's decisions/sec;
//   * a steady-state heartbeat check performs ZERO heap allocations;
//   * the steady phase routed at least the configured number of guests.
//
// `--ci` shrinks the fleet (1k hosts / 200 services / 100k guests) so the
// gates run in CI time; the committed BENCH_fleet.json carries the
// full-scale numbers.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_report.hpp"
#include "core/agent.hpp"
#include "core/hup.hpp"
#include "core/master.hpp"
#include "host/host.hpp"
#include "image/image.hpp"
#include "seed_planner.hpp"
#include "sim/parallel_runner.hpp"
#include "util/contract.hpp"
#include "util/fnv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace soda;

namespace {

struct Scale {
  const char* label;
  int hosts;
  int services;
  std::uint64_t guests;
  int crash_hosts;
  std::size_t replicas;
  /// Passes over the guest population in the sharded-engine routing bench
  /// (more passes at the small CI scale keep the measured window honest).
  int guest_rounds;
};

constexpr Scale kFull{"full", 10'000, 2'000, 1'000'000, 8, 2, 8};
constexpr Scale kCi{"ci", 1'000, 200, 100'000, 4, 2, 40};

constexpr std::size_t kShardWorkers = 4;
constexpr double kMinShardedSpeedup = 2.0;

constexpr double kMinPlacementSpeedup = 5.0;

/// Incremental FNV-1a digest of the control-plane decisions a run makes.
struct Digest {
  std::uint64_t hash = util::kFnvBasis;
  void add(std::string_view text) noexcept { hash = util::fnv1a(hash, text); }
  void add(std::uint64_t value) noexcept {
    hash = util::fnv1a_word(hash, value);
  }
};

host::MachineConfig fleet_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;  // inflated 1.5x -> one unit per tacoma host
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

std::string host_name(int i) { return "fleet-" + std::to_string(i); }

void add_fleet_hosts(core::Hup& hup, int hosts) {
  for (int i = 0; i < hosts; ++i) {
    host::HostSpec spec = host::HostSpec::tacoma();
    spec.name = host_name(i);
    hup.add_host(spec,
                 net::Ipv4Address(10, static_cast<std::uint8_t>(i / 250),
                                  static_cast<std::uint8_t>(i % 250), 16),
                 16);
  }
}

struct FleetRun {
  std::uint64_t digest = 0;
  // Ramp.
  double ramp_seconds = 0;
  double allocs_per_admission = 0;
  std::uint64_t nodes_placed = 0;
  // Guests.
  std::uint64_t guests_routed = 0;
  double guest_seconds = 0;
  // Steady.
  double steady_sim_seconds = 0;
  double steady_wall_seconds = 0;
  // Fault.
  std::uint64_t host_failures = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t placements_lost = 0;
};

/// One full fleet scenario: ramp services up, route the guest load, hold a
/// heartbeat steady state, then crash and recover a slab of hosts. Every
/// decision folds into the digest, so a replica is comparable bit-for-bit
/// between serial and ParallelRunner execution.
FleetRun run_fleet(const Scale& scale, std::size_t replica) {
  util::global_logger().set_level(util::LogLevel::kOff);
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  core::Hup hup(config);
  add_fleet_hosts(hup, scale.hosts);
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(1024 * 1024)));

  FleetRun run;
  Digest digest;
  std::vector<std::string> service_names;
  service_names.reserve(static_cast<std::size_t>(scale.services));
  const int base = static_cast<int>(replica) * scale.services;

  // ---- Ramp: admit every service, one priming round per creation. ----
  const std::uint64_t ramp_allocs_before = bench::allocation_count();
  const auto ramp_start = std::chrono::steady_clock::now();
  for (int s = 0; s < scale.services; ++s) {
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = "svc-" + std::to_string(base + s);
    request.image_location = location;
    request.requirement = {2, fleet_unit()};
    service_names.push_back(request.service_name);
    hup.agent().service_creation(request, [&](auto reply, sim::SimTime) {
      const auto& value = must(std::move(reply));
      for (const auto& node : value.nodes) {
        digest.add(node.node_name);
        digest.add(node.host_name);
        digest.add(node.address.value());
        digest.add(static_cast<std::uint64_t>(node.port));
        ++run.nodes_placed;
      }
    });
    hup.engine().run();
  }
  run.ramp_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - ramp_start)
                         .count();
  run.allocs_per_admission =
      static_cast<double>(bench::allocation_count() - ramp_allocs_before) /
      static_cast<double>(scale.services);

  // ---- Guests: every virtual user routes one request through its
  // service's switch (uniform spread across the fleet's services). ----
  const auto guest_start = std::chrono::steady_clock::now();
  const std::uint64_t per_service =
      scale.guests / static_cast<std::uint64_t>(scale.services) + 1;
  for (const std::string& name : service_names) {
    core::ServiceSwitch* sw = hup.master().find_switch(name);
    SODA_ENSURES(sw != nullptr);
    for (std::uint64_t g = 0; g < per_service; ++g) {
      const auto routed = sw->route();
      if (!routed.ok()) break;
      const core::BackEndEntry& entry = routed.value();
      digest.add(entry.address.value());
      sw->on_request_complete(entry.address, entry.port);
      ++run.guests_routed;
    }
  }
  run.guest_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - guest_start)
                          .count();

  // ---- Steady: heartbeats + periodic timeout sweeps across the fleet. ----
  constexpr sim::SimTime kSteadyWindow = sim::SimTime::seconds(5);
  hup.enable_failure_detection();  // 250 ms heartbeats, 1 s timeout
  const auto steady_start = std::chrono::steady_clock::now();
  hup.engine().run_until(hup.engine().now() + kSteadyWindow);
  run.steady_wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - steady_start)
                                .count();
  run.steady_sim_seconds = kSteadyWindow.to_seconds();

  // ---- Fault: crash a slab of loaded hosts, let the detector declare
  // them dead and the recovery re-prime, then bring them back. ----
  for (int i = 0; i < scale.crash_hosts; ++i) hup.crash_host(host_name(i));
  hup.engine().run_until(hup.engine().now() + sim::SimTime::seconds(3));
  for (int i = 0; i < scale.crash_hosts; ++i) hup.recover_host(host_name(i));
  hup.engine().run_until(hup.engine().now() + sim::SimTime::seconds(3));
  run.host_failures = hup.master().host_failures_detected();
  run.recoveries = hup.master().recoveries_completed();
  run.placements_lost = hup.master().placements_lost();

  digest.add(run.guests_routed);
  digest.add(run.host_failures);
  digest.add(run.recoveries);
  digest.add(run.placements_lost);
  digest.add(hup.trace().render());
  run.digest = digest.hash;
  return run;
}

// ---------------------------------------------------------------------------
// Sharded intra-replica guest routing: the same fleet's guest load expressed
// as an event program — one event per (service, pass), tagged with the
// service's task shard. A sharded engine runs same-timestamp chunks of
// distinct services concurrently; each chunk routes its guests against its
// own ServiceSwitch (shard-local state), folds a local FNV hash, and defers
// the fold into the global digest, which therefore accumulates in schedule
// order regardless of worker count. workers=1 is the sequential baseline the
// digest must match bit-for-bit.

struct ShardedGuestRun {
  std::uint64_t digest = 0;
  std::uint64_t routed = 0;
  double seconds = 0;
};

struct ShardedGuestProgram {
  sim::Engine* engine = nullptr;
  std::vector<core::ServiceSwitch*> switches;
  std::uint64_t per_chunk = 0;
  Digest digest;
  std::uint64_t routed = 0;
};

ShardedGuestRun run_sharded_guests(const Scale& scale, std::size_t replica,
                                   std::size_t workers) {
  util::global_logger().set_level(util::LogLevel::kOff);
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  core::Hup hup(config);
  add_fleet_hosts(hup, scale.hosts);
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(1024 * 1024)));

  ShardedGuestProgram program;
  program.engine = &hup.engine();
  program.per_chunk =
      scale.guests / static_cast<std::uint64_t>(scale.services) + 1;
  program.switches.reserve(static_cast<std::size_t>(scale.services));
  const int base = static_cast<int>(replica) * scale.services;
  for (int s = 0; s < scale.services; ++s) {
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = "svc-" + std::to_string(base + s);
    request.image_location = location;
    request.requirement = {2, fleet_unit()};
    hup.agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup.engine().run();
    program.switches.push_back(hup.master().find_switch(request.service_name));
    SODA_ENSURES(program.switches.back() != nullptr);
  }

  hup.engine().enable_sharding(workers);
  const sim::SimTime t0 = hup.engine().now();
  for (int round = 0; round < scale.guest_rounds; ++round) {
    for (int s = 0; s < scale.services; ++s) {
      hup.engine().schedule_at_sharded(
          t0 + sim::SimTime::milliseconds(round + 1),
          sim::Engine::shard_for_task(static_cast<std::uint32_t>(s)),
          [p = &program, s] {
            core::ServiceSwitch* sw =
                p->switches[static_cast<std::size_t>(s)];
            Digest local;
            std::uint64_t n = 0;
            for (std::uint64_t g = 0; g < p->per_chunk; ++g) {
              const auto routed = sw->route();
              if (!routed.ok()) break;
              const core::BackEndEntry& entry = routed.value();
              local.add(entry.address.value());
              sw->on_request_complete(entry.address, entry.port);
              ++n;
            }
            p->engine->defer([p, hash = local.hash, n] {
              p->digest.add(hash);
              p->routed += n;
            });
          });
    }
  }

  ShardedGuestRun run;
  const auto start = std::chrono::steady_clock::now();
  hup.engine().run();
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  program.digest.add(program.routed);
  run.digest = program.digest.hash;
  run.routed = program.routed;
  return run;
}

// ---------------------------------------------------------------------------
// Placement-decision microbench: the interned/SoA planner vs the seed
// layout, same fleet, same load, same query.

struct PlacementBench {
  double decisions_per_sec = 0;
  double seed_decisions_per_sec = 0;
  double allocs_per_decision = 0;
  double seed_allocs_per_decision = 0;

  [[nodiscard]] double speedup() const noexcept {
    return seed_decisions_per_sec > 0
               ? decisions_per_sec / seed_decisions_per_sec
               : 0;
  }
};

PlacementBench run_placement_bench(const Scale& scale) {
  util::global_logger().set_level(util::LogLevel::kOff);
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  core::Hup hup(config);
  add_fleet_hosts(hup, scale.hosts);

  // The same mid-life load on both layouts: host i carries i%7 slices.
  host::ResourceVector slice;
  slice.cpu_mhz = 150;
  slice.memory_mb = 16;
  slice.disk_mb = 32;
  slice.bandwidth_mbps = 1;
  bench::SeedFleet seed;
  for (int i = 0; i < scale.hosts; ++i) {
    host::HupHost* h = hup.find_host(host_name(i));
    SODA_ENSURES(h != nullptr);
    seed.add_host(host_name(i), h->capacity());
    for (int k = 0; k < i % 7; ++k) {
      must(h->reserve("load", slice));
      seed.host(static_cast<std::size_t>(i)).reserve("load", slice);
    }
  }

  host::ResourceRequirement req;
  req.n = 8;
  req.m.cpu_mhz = 256;
  req.m.memory_mb = 64;
  req.m.disk_mb = 128;
  req.m.bandwidth_mbps = 2;

  PlacementBench bench;
  const std::string probe = "probe-svc";
  {
    const auto& planner = hup.master().planner();
    std::vector<core::Placement> plan;
    for (int warm = 0; warm < 16; ++warm) {
      must(planner.plan_allocation_into(probe, req, nullptr, plan));
    }
    constexpr int kDecisions = 200;
    const std::uint64_t allocs_before = bench::allocation_count();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kDecisions; ++i) {
      must(planner.plan_allocation_into(probe, req, nullptr, plan));
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    bench.allocs_per_decision =
        static_cast<double>(bench::allocation_count() - allocs_before) /
        kDecisions;
    bench.decisions_per_sec = kDecisions / seconds;
  }
  {
    for (int warm = 0; warm < 4; ++warm) {
      SODA_ENSURES(seed.plan_allocation(probe, req, 1.5) > 0);
    }
    constexpr int kDecisions = 50;
    const std::uint64_t allocs_before = bench::allocation_count();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kDecisions; ++i) {
      SODA_ENSURES(seed.plan_allocation(probe, req, 1.5) > 0);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    bench.seed_allocs_per_decision =
        static_cast<double>(bench::allocation_count() - allocs_before) /
        kDecisions;
    bench.seed_decisions_per_sec = kDecisions / seconds;
  }
  return bench;
}

// ---------------------------------------------------------------------------
// Heartbeat microbench: one detector round = every host heartbeats once,
// then one timeout sweep. The wheel detector vs the seed map scan.

struct HeartbeatBench {
  double rounds_per_sec = 0;
  double seed_rounds_per_sec = 0;
  double allocs_per_check = 0;

  [[nodiscard]] double speedup() const noexcept {
    return seed_rounds_per_sec > 0 ? rounds_per_sec / seed_rounds_per_sec : 0;
  }
};

HeartbeatBench run_heartbeat_bench(const Scale& scale) {
  util::global_logger().set_level(util::LogLevel::kOff);
  core::Hup hup;
  add_fleet_hosts(hup, scale.hosts);

  core::FailureDetectorConfig detector;
  detector.heartbeat_interval = sim::SimTime::milliseconds(250);
  detector.timeout = sim::SimTime::seconds(1);
  hup.master().enable_failure_detection(detector);

  HeartbeatBench bench;
  const auto& daemons = hup.master().daemons();
  auto round = [&] {
    hup.engine().run_until(hup.engine().now() + detector.heartbeat_interval);
    for (core::SodaDaemon* daemon : daemons) {
      hup.master().on_heartbeat(*daemon, hup.engine().now());
    }
  };
  // Warm past a full wheel revolution so every bucket's storage exists.
  constexpr int kWarmRounds = 32;
  constexpr int kRounds = 200;
  std::uint64_t check_allocs = 0;
  for (int i = 0; i < kWarmRounds; ++i) {
    round();
    hup.master().check_failures_once();
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) {
    round();
    const std::uint64_t before = bench::allocation_count();
    const std::size_t dead = hup.master().check_failures_once();
    check_allocs += bench::allocation_count() - before;
    SODA_ENSURES(dead == 0);  // everyone heartbeats: nobody expires
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  bench.rounds_per_sec = kRounds / seconds;
  bench.allocs_per_check = static_cast<double>(check_allocs) / kRounds;

  // Seed detector: same rounds against the name-keyed map scan.
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(scale.hosts));
  for (int i = 0; i < scale.hosts; ++i) names.push_back(host_name(i));
  bench::SeedDetector seed(detector.timeout);
  sim::SimTime now = sim::SimTime::zero();
  seed.arm(names, now);
  for (int i = 0; i < 4; ++i) {
    now += detector.heartbeat_interval;
    for (const auto& n : names) seed.on_heartbeat(n, now);
    SODA_ENSURES(seed.check_once(now) == 0);
  }
  const auto seed_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) {
    now += detector.heartbeat_interval;
    for (const auto& n : names) seed.on_heartbeat(n, now);
    SODA_ENSURES(seed.check_once(now) == 0);
  }
  const double seed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    seed_start)
          .count();
  bench.seed_rounds_per_sec = kRounds / seed_seconds;
  return bench;
}

std::string format_count(double v) {
  char buffer[32];
  if (v >= 1e6) {
    std::snprintf(buffer, sizeof buffer, "%.2fM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buffer, sizeof buffer, "%.1fk", v / 1e3);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.1f", v);
  }
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Scale scale = kFull;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) scale = kCi;
  }
  std::printf("== Fleet-scale control plane (%s: %d hosts, %d services, "
              "%llu guests) ==\n\n",
              scale.label, scale.hosts, scale.services,
              static_cast<unsigned long long>(scale.guests));

  // ---- The fleet scenario: serial replicas, then the same replicas under
  // the parallel runner; every decision must be bit-identical. ----
  std::vector<FleetRun> serial;
  for (std::size_t r = 0; r < scale.replicas; ++r) {
    serial.push_back(run_fleet(scale, r));
  }
  const sim::ParallelRunner runner(scale.replicas);
  const auto parallel = runner.map(
      scale.replicas, [&](std::size_t r) { return run_fleet(scale, r); });
  bool identical = true;
  for (std::size_t r = 0; r < scale.replicas; ++r) {
    identical = identical && serial[r].digest == parallel[r].digest;
  }
  const FleetRun& fleet = serial.front();

  // ---- Sharded intra-replica execution: the guest-routing event program
  // under the sequential engine, the sharded engine, and the sharded engine
  // nested inside ParallelRunner replicas — all three must produce the same
  // digest. The speedup is recorded alongside the core count; the >= 2x
  // gate arms only on machines with at least kShardWorkers cores. ----
  const std::size_t cores = std::thread::hardware_concurrency();
  const ShardedGuestRun guests_seq0 = run_sharded_guests(scale, 0, 1);
  const ShardedGuestRun guests_seq1 = run_sharded_guests(scale, 1, 1);
  const ShardedGuestRun guests_sharded =
      run_sharded_guests(scale, 0, kShardWorkers);
  const auto guests_nested = runner.map(2, [&](std::size_t r) {
    return run_sharded_guests(scale, r, kShardWorkers);
  });
  const bool sharded_identical =
      guests_sharded.digest == guests_seq0.digest &&
      guests_nested[0].digest == guests_seq0.digest &&
      guests_nested[1].digest == guests_seq1.digest;
  const double sharded_speedup = guests_sharded.seconds > 0
                                     ? guests_seq0.seconds /
                                           guests_sharded.seconds
                                     : 0;

  // ---- Hot-path microbenches vs the seed layout. ----
  const PlacementBench placement = run_placement_bench(scale);
  const HeartbeatBench heartbeat = run_heartbeat_bench(scale);

  const double host_sim_per_wall =
      static_cast<double>(scale.hosts) * fleet.steady_sim_seconds /
      fleet.steady_wall_seconds;
  const double admissions_per_sec =
      static_cast<double>(scale.services) / fleet.ramp_seconds;
  const double guest_routes_per_sec =
      static_cast<double>(fleet.guests_routed) / fleet.guest_seconds;

  util::AsciiTable table({"Phase", "Metric", "Value"});
  table.set_alignment(
      {util::Align::kLeft, util::Align::kLeft, util::Align::kRight});
  table.add_row({"ramp", "admissions/sec", format_count(admissions_per_sec)});
  table.add_row({"ramp", "allocs/admission",
                 format_count(fleet.allocs_per_admission)});
  table.add_row({"ramp", "nodes placed",
                 format_count(static_cast<double>(fleet.nodes_placed))});
  table.add_row({"guests", "routed",
                 format_count(static_cast<double>(fleet.guests_routed))});
  table.add_row({"guests", "routes/sec", format_count(guest_routes_per_sec)});
  table.add_row({"steady", "host-sim-sec/wall-sec",
                 format_count(host_sim_per_wall)});
  table.add_row({"sharded", "guests routed",
                 format_count(static_cast<double>(guests_sharded.routed))});
  table.add_row(
      {"sharded", "speedup vs sequential",
       format_count(sharded_speedup)});
  table.add_row({"fault", "hosts declared dead",
                 format_count(static_cast<double>(fleet.host_failures))});
  table.add_row({"fault", "services recovered",
                 format_count(static_cast<double>(fleet.recoveries))});
  table.add_row({"placement", "decisions/sec",
                 format_count(placement.decisions_per_sec)});
  table.add_row({"placement", "seed decisions/sec",
                 format_count(placement.seed_decisions_per_sec)});
  table.add_row({"heartbeat", "rounds/sec",
                 format_count(heartbeat.rounds_per_sec)});
  table.add_row({"heartbeat", "seed rounds/sec",
                 format_count(heartbeat.seed_rounds_per_sec)});
  std::printf("%s\n", table.render().c_str());

  const bool placement_fast =
      placement.speedup() >= kMinPlacementSpeedup;
  const bool placement_zero_alloc = placement.allocs_per_decision == 0;
  const bool heartbeat_zero_alloc = heartbeat.allocs_per_check == 0;
  const bool enough_guests = fleet.guests_routed >= scale.guests;
  std::printf("placement decision: %.1fx the seed planner (gate >= %.0fx), "
              "%.3f allocs/decision (gate 0)\n",
              placement.speedup(), kMinPlacementSpeedup,
              placement.allocs_per_decision);
  std::printf("heartbeat check: %.1fx the seed scan, %.3f allocs/check "
              "(gate 0)\n",
              heartbeat.speedup(), heartbeat.allocs_per_check);
  std::printf("parallel fleet check: %s (%zu replicas on %zu worker(s))\n",
              identical ? "bit-identical to serial run"
                        : "MISMATCH vs serial run",
              scale.replicas, runner.thread_count());
  const bool sharded_fast_enough =
      cores < kShardWorkers || sharded_speedup >= kMinShardedSpeedup;
  std::printf("sharded guest routing: %s at %zu workers, %.2fx sequential "
              "(gate >= %.1fx on >= %zu cores; this machine: %zu)\n",
              sharded_identical ? "bit-identical to sequential engine"
                                : "MISMATCH vs sequential engine",
              kShardWorkers, sharded_speedup, kMinShardedSpeedup,
              kShardWorkers, cores);

  soda::bench::BenchReport report("BENCH_fleet.json", "soda-fleet");
  report.record("fleet_ramp",
                {{"hosts", static_cast<double>(scale.hosts)},
                 {"services", static_cast<double>(scale.services)},
                 {"nodes_placed", static_cast<double>(fleet.nodes_placed)},
                 {"admissions_per_sec", admissions_per_sec},
                 {"allocs_per_admission", fleet.allocs_per_admission}});
  report.record("fleet_steady",
                {{"hosts", static_cast<double>(scale.hosts)},
                 {"sim_seconds", fleet.steady_sim_seconds},
                 {"host_sim_seconds_per_wall_sec", host_sim_per_wall}});
  report.record("fleet_guests",
                {{"guests_routed", static_cast<double>(fleet.guests_routed)},
                 {"routes_per_sec", guest_routes_per_sec}});
  report.record("fleet_fault",
                {{"hosts_crashed", static_cast<double>(scale.crash_hosts)},
                 {"host_failures", static_cast<double>(fleet.host_failures)},
                 {"recoveries", static_cast<double>(fleet.recoveries)},
                 {"placements_lost",
                  static_cast<double>(fleet.placements_lost)}});
  report.record("fleet_placement_decision",
                {{"hosts", static_cast<double>(scale.hosts)},
                 {"placements_per_sec", placement.decisions_per_sec},
                 {"seed_placements_per_sec", placement.seed_decisions_per_sec},
                 {"speedup", placement.speedup()},
                 {"allocs_per_decision", placement.allocs_per_decision},
                 {"seed_allocs_per_decision",
                  placement.seed_allocs_per_decision}});
  report.record("fleet_heartbeat",
                {{"hosts", static_cast<double>(scale.hosts)},
                 {"rounds_per_sec", heartbeat.rounds_per_sec},
                 {"seed_rounds_per_sec", heartbeat.seed_rounds_per_sec},
                 {"speedup", heartbeat.speedup()},
                 {"allocs_per_check", heartbeat.allocs_per_check}});
  report.record("fleet_parallel",
                {{"replicas", static_cast<double>(scale.replicas)},
                 {"identical_to_serial", identical ? 1.0 : 0.0}});
  report.record(
      "fleet_sharded",
      {{"workers", static_cast<double>(kShardWorkers)},
       {"cores", static_cast<double>(cores)},
       {"guest_rounds", static_cast<double>(scale.guest_rounds)},
       {"guests_routed", static_cast<double>(guests_sharded.routed)},
       {"identical_to_sequential", sharded_identical ? 1.0 : 0.0},
       {"sequential_seconds", guests_seq0.seconds},
       {"sharded_seconds", guests_sharded.seconds},
       {"speedup", sharded_speedup}});
  report.write();
  return identical && placement_fast && placement_zero_alloc &&
                 heartbeat_zero_alloc && enough_guests && sharded_identical &&
                 sharded_fast_enough
             ? 0
             : 1;
}
