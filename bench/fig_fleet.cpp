// Fleet-scale control-plane benchmark: a 10,000-host HUP hosting ~2,000
// services that serve 1M+ virtual users through ramp / steady / fault
// phases, plus microbenches of the two hot control-plane paths: placement
// at two fleet sizes, and the heartbeat check against the preserved seed
// detector (bench/seed_detector.hpp: a name-keyed map scan). Results land
// in BENCH_fleet.json.
//
// Gates, enforced by the exit code:
//   * the whole fleet scenario is bit-identical when its replicas fan out
//     over sim::ParallelRunner (identical_to_serial);
//   * a ramp admission makes at most kMaxAllocsPerAdmission heap
//     allocations (its nodes share one guest rootfs instead of copying it);
//   * a decide -> reserve -> release placement cycle at 10k hosts costs at
//     most 2x the same cycle at 1k hosts, and makes ZERO heap allocations;
//   * a steady-state heartbeat check performs ZERO heap allocations;
//   * the steady phase routed at least the configured number of guests;
//   * sharded guest routing is bit-identical to the sequential engine, and
//     on >= 4 cores its fastest round is >= 2x the fastest sequential one.
//
// `--ci` shrinks the fleet scenario (1k hosts / 200 services / 100k guests)
// so the gates run in CI time; the placement cycles run at 1k and 10k hosts
// either way. The committed BENCH_fleet.json carries the full-scale numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_report.hpp"
#include "core/agent.hpp"
#include "core/hup.hpp"
#include "core/master.hpp"
#include "host/host.hpp"
#include "image/image.hpp"
#include "seed_detector.hpp"
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

/// Ceiling on the ramp's heap allocations per admission (a 2-node service,
/// every service of one image). Measured at `--ci` size: 1,031.5 when each
/// node copied its own rootfs and merged the image into it, 154.5 once the
/// nodes share one tree. The ceiling sits midway, so a per-node tree copy
/// cannot come back unnoticed.
constexpr double kMaxAllocsPerAdmission = 593.0;

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

/// Every fleet here places worst-fit.
core::MasterConfig worst_fit() {
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  return config;
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
  core::Hup hup(worst_fit());
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
//
// A world is built once and runs the program several times (rounds). Each
// round continues the same switches, so round k of two worlds built alike
// must match bit-for-bit whatever their worker counts, and the sequential
// and sharded worlds can alternate rounds on one machine: the gate compares
// their fastest rounds, since a shared machine only ever slows a round down.

constexpr int kShardRounds = 9;

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

/// One admitted fleet carrying the guest-routing program.
class ShardedGuests {
 public:
  ShardedGuests(const Scale& scale, std::size_t replica, std::size_t workers)
      : scale_(scale), hup_(worst_fit()) {
    util::global_logger().set_level(util::LogLevel::kOff);
    add_fleet_hosts(hup_, scale.hosts);
    auto& repo = hup_.add_repository("asp-repo");
    hup_.agent().register_asp("asp", "key");
    const auto location =
        must(repo.publish(image::web_content_image(1024 * 1024)));
    program_.engine = &hup_.engine();
    program_.per_chunk =
        scale.guests / static_cast<std::uint64_t>(scale.services) + 1;
    program_.switches.reserve(static_cast<std::size_t>(scale.services));
    const int base = static_cast<int>(replica) * scale.services;
    for (int s = 0; s < scale.services; ++s) {
      core::ServiceCreationRequest request;
      request.credentials = {"asp", "key"};
      request.service_name = "svc-" + std::to_string(base + s);
      request.image_location = location;
      request.requirement = {2, fleet_unit()};
      hup_.agent().service_creation(
          request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
      hup_.engine().run();
      program_.switches.push_back(
          hup_.master().find_switch(request.service_name));
      SODA_ENSURES(program_.switches.back() != nullptr);
    }
    hup_.engine().enable_sharding(workers);
  }
  ShardedGuests(const ShardedGuests&) = delete;
  ShardedGuests& operator=(const ShardedGuests&) = delete;

  /// One round: scale.guest_rounds passes over every service's guests.
  ShardedGuestRun round() {
    program_.digest = Digest{};
    program_.routed = 0;
    const sim::SimTime t0 = hup_.engine().now();
    for (int pass = 0; pass < scale_.guest_rounds; ++pass) {
      for (int s = 0; s < scale_.services; ++s) {
        hup_.engine().schedule_at_sharded(
            t0 + sim::SimTime::milliseconds(pass + 1),
            sim::Engine::shard_for_task(static_cast<std::uint32_t>(s)),
            [p = &program_, s] {
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
    hup_.engine().run();
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    program_.digest.add(program_.routed);
    run.digest = program_.digest.hash;
    run.routed = program_.routed;
    return run;
  }

 private:
  const Scale& scale_;
  core::Hup hup_;
  ShardedGuestProgram program_;
};

/// The sequential and the sharded world, alternating kShardRounds rounds.
struct ShardedGuestBench {
  std::vector<ShardedGuestRun> sequential;  // replica 0, one worker
  std::vector<ShardedGuestRun> sharded;     // replica 0, kShardWorkers
  bool identical = true;                    // every round, and nested

  [[nodiscard]] static double fastest(
      const std::vector<ShardedGuestRun>& runs) {
    double best = 0;
    for (const ShardedGuestRun& run : runs) {
      best = best == 0 ? run.seconds : std::min(best, run.seconds);
    }
    return best;
  }
  [[nodiscard]] double speedup() const {
    const double sharded_best = fastest(sharded);
    return sharded_best > 0 ? fastest(sequential) / sharded_best : 0;
  }
};

ShardedGuestBench run_sharded_guest_bench(const Scale& scale,
                                          const sim::ParallelRunner& runner) {
  ShardedGuestBench bench;
  {
    ShardedGuests sequential(scale, 0, 1);
    ShardedGuests sharded(scale, 0, kShardWorkers);
    for (int round = 0; round < kShardRounds; ++round) {
      bench.sequential.push_back(sequential.round());
      bench.sharded.push_back(sharded.round());
      bench.identical = bench.identical && bench.sharded.back().digest ==
                                               bench.sequential.back().digest;
    }
  }
  // The sharded engine nested inside ParallelRunner replicas: each
  // replica's first round must match the sequential engine's.
  const std::uint64_t seq1 = ShardedGuests(scale, 1, 1).round().digest;
  const auto nested = runner.map(2, [&](std::size_t r) {
    return ShardedGuests(scale, r, kShardWorkers).round().digest;
  });
  bench.identical = bench.identical &&
                    nested[0] == bench.sequential.front().digest &&
                    nested[1] == seq1;
  return bench;
}

// ---------------------------------------------------------------------------
// Placement-scale microbench: decide -> reserve the plan -> release, on a
// 1k-host and a 10k-host fleet carrying the same mid-life load. Each plan
// stays reserved through the next decision, so every decision re-keys the
// hosts the previous cycle reserved on and released. The planner keeps its
// host ranking between decisions and re-keys only the hosts whose
// availability changed, so a cycle costs what it changes, not the fleet's
// size: the 10k-host cycle must cost at most kMaxScaleRatio x the 1k-host
// one, in the same run, with zero heap allocations per cycle.

constexpr int kSmallFleet = 1'000;
constexpr int kLargeFleet = 10'000;
constexpr double kMaxScaleRatio = 2.0;

/// One fleet and the probe request its cycles place.
class PlacementCycles {
 public:
  explicit PlacementCycles(int hosts) : hup_(worst_fit()) {
    add_fleet_hosts(hup_, hosts);
    // Host i carries i%7 slices, so spare CPU both ties and differs.
    host::ResourceVector slice;
    slice.cpu_mhz = 150;
    slice.memory_mb = 16;
    slice.disk_mb = 32;
    slice.bandwidth_mbps = 1;
    for (int i = 0; i < hosts; ++i) {
      host::HupHost* h = hup_.find_host(host_name(i));
      SODA_ENSURES(h != nullptr);
      for (int k = 0; k < i % 7; ++k) must(h->reserve("load", slice));
    }
    request_.n = 8;
    request_.m.cpu_mhz = 256;
    request_.m.memory_mb = 64;
    request_.m.disk_mb = 128;
    request_.m.bandwidth_mbps = 2;
    unit_ = hup_.master().planner().inflated_unit(request_.m);
    held_.reserve(static_cast<std::size_t>(request_.n));
    released_.reserve(static_cast<std::size_t>(request_.n));
  }

  /// Runs `cycles` cycles; returns the wall seconds they took.
  double run(int cycles) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < cycles; ++i) {
      must(hup_.master().planner().plan_allocation_into(probe_, request_,
                                                        nullptr, plan_));
      std::swap(held_, released_);
      for (const core::Placement& p : plan_) {
        host::HupHost& h = p.daemon->host();
        held_.emplace_back(&h,
                           must(h.reserve(probe_, unit_.scaled(p.units))));
      }
      for (const auto& [h, slice] : released_) must(h->release(slice));
      released_.clear();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

 private:
  const std::string probe_ = "probe-svc";
  core::Hup hup_;
  host::ResourceRequirement request_;
  host::ResourceVector unit_;
  std::vector<core::Placement> plan_;
  using Held = std::vector<std::pair<host::HupHost*, host::SliceId>>;
  Held held_;      // this cycle's plan, reserved
  Held released_;  // the previous cycle's, released after the reserve
};

struct PlacementScaleBench {
  double small_cycle_ns = 0;
  double large_cycle_ns = 0;
  double allocs_per_cycle = 0;

  [[nodiscard]] double ratio() const noexcept {
    return small_cycle_ns > 0 ? large_cycle_ns / small_cycle_ns : 0;
  }
};

PlacementScaleBench run_placement_scale_bench() {
  util::global_logger().set_level(util::LogLevel::kOff);
  PlacementCycles small(kSmallFleet);
  PlacementCycles large(kLargeFleet);
  constexpr int kWarmCycles = 64;
  constexpr int kRounds = 7;
  constexpr int kCyclesPerRound = 2'000;
  small.run(kWarmCycles);
  large.run(kWarmCycles);
  // Rounds alternate between the fleets, and each keeps its fastest round:
  // a shared machine only ever slows a round down.
  double small_best = 0;
  double large_best = 0;
  const std::uint64_t allocs_before = bench::allocation_count();
  for (int round = 0; round < kRounds; ++round) {
    const double s = small.run(kCyclesPerRound);
    const double l = large.run(kCyclesPerRound);
    small_best = round == 0 ? s : std::min(small_best, s);
    large_best = round == 0 ? l : std::min(large_best, l);
  }
  PlacementScaleBench bench;
  bench.allocs_per_cycle =
      static_cast<double>(bench::allocation_count() - allocs_before) /
      (2.0 * kRounds * kCyclesPerRound);
  bench.small_cycle_ns = small_best * 1e9 / kCyclesPerRound;
  bench.large_cycle_ns = large_best * 1e9 / kCyclesPerRound;
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
  // digest. The speedup (fastest sharded round against fastest sequential
  // round) is recorded alongside the core count; the >= 2x gate arms only
  // on machines with at least kShardWorkers cores. ----
  const std::size_t cores = std::thread::hardware_concurrency();
  const ShardedGuestBench guests = run_sharded_guest_bench(scale, runner);
  const bool sharded_identical = guests.identical;
  const double sharded_speedup = guests.speedup();

  // ---- Hot-path microbenches. ----
  const PlacementScaleBench placement = run_placement_scale_bench();
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
  table.add_row(
      {"sharded", "guests routed per round",
       format_count(static_cast<double>(guests.sharded.front().routed))});
  table.add_row(
      {"sharded", "speedup vs sequential",
       format_count(sharded_speedup)});
  table.add_row({"fault", "hosts declared dead",
                 format_count(static_cast<double>(fleet.host_failures))});
  table.add_row({"fault", "services recovered",
                 format_count(static_cast<double>(fleet.recoveries))});
  table.add_row({"placement", "cycle ns at 1k hosts",
                 format_count(placement.small_cycle_ns)});
  table.add_row({"placement", "cycle ns at 10k hosts",
                 format_count(placement.large_cycle_ns)});
  table.add_row({"heartbeat", "rounds/sec",
                 format_count(heartbeat.rounds_per_sec)});
  table.add_row({"heartbeat", "seed rounds/sec",
                 format_count(heartbeat.seed_rounds_per_sec)});
  std::printf("%s\n", table.render().c_str());

  const bool admission_allocs_ok =
      fleet.allocs_per_admission <= kMaxAllocsPerAdmission;
  const bool placement_scales = placement.ratio() <= kMaxScaleRatio;
  const bool placement_zero_alloc = placement.allocs_per_cycle == 0;
  const bool heartbeat_zero_alloc = heartbeat.allocs_per_check == 0;
  const bool enough_guests = fleet.guests_routed >= scale.guests;
  std::printf("ramp admission: %.1f allocs (gate <= %.1f)\n",
              fleet.allocs_per_admission, kMaxAllocsPerAdmission);
  std::printf("placement cycle: %.0f ns at %d hosts, %.0f ns at %d hosts, "
              "ratio %.2f (gate <= %.1f), %.3f allocs/cycle (gate 0)\n",
              placement.small_cycle_ns, kSmallFleet, placement.large_cycle_ns,
              kLargeFleet, placement.ratio(), kMaxScaleRatio,
              placement.allocs_per_cycle);
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
                 {"allocs_per_admission", fleet.allocs_per_admission},
                 {"allocs_per_admission_ceiling", kMaxAllocsPerAdmission}});
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
  report.record("fleet_placement_scale",
                {{"small_hosts", static_cast<double>(kSmallFleet)},
                 {"large_hosts", static_cast<double>(kLargeFleet)},
                 {"small_cycle_ns", placement.small_cycle_ns},
                 {"large_cycle_ns", placement.large_cycle_ns},
                 {"scale_ratio", placement.ratio()},
                 {"allocs_per_cycle", placement.allocs_per_cycle}});
  report.record("fleet_heartbeat",
                {{"hosts", static_cast<double>(scale.hosts)},
                 {"rounds_per_sec", heartbeat.rounds_per_sec},
                 {"seed_rounds_per_sec", heartbeat.seed_rounds_per_sec},
                 {"speedup", heartbeat.speedup()},
                 {"allocs_per_check", heartbeat.allocs_per_check}});
  report.record("fleet_parallel",
                {{"replicas", static_cast<double>(scale.replicas)},
                 {"identical_to_serial", identical ? 1.0 : 0.0}});
  std::vector<std::pair<std::string, double>> sharded_fields = {
      {"workers", static_cast<double>(kShardWorkers)},
      {"cores", static_cast<double>(cores)},
      {"guest_rounds", static_cast<double>(scale.guest_rounds)},
      {"guests_routed", static_cast<double>(guests.sharded.front().routed)},
      {"identical_to_sequential", sharded_identical ? 1.0 : 0.0},
      {"rounds", static_cast<double>(kShardRounds)},
      {"sequential_seconds", ShardedGuestBench::fastest(guests.sequential)},
      {"sharded_seconds", ShardedGuestBench::fastest(guests.sharded)},
      {"speedup", sharded_speedup}};
  for (int round = 0; round < kShardRounds; ++round) {
    const auto r = static_cast<std::size_t>(round);
    const std::string prefix = "round" + std::to_string(round) + "_";
    sharded_fields.emplace_back(prefix + "sequential_seconds",
                                guests.sequential[r].seconds);
    sharded_fields.emplace_back(prefix + "sharded_seconds",
                                guests.sharded[r].seconds);
  }
  report.record("fleet_sharded", std::move(sharded_fields));
  report.write();
  return identical && admission_allocs_ok && placement_scales &&
                 placement_zero_alloc && heartbeat_zero_alloc &&
                 enough_guests && sharded_identical && sharded_fast_enough
             ? 0
             : 1;
}
