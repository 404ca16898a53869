// Versioned-world-snapshot benchmark (DESIGN.md §14): measures checkpoint
// save/load cost at fleet scale and proves the restore gate everywhere it
// matters. Results land in BENCH_snapshot.json.
//
// Gates, enforced by the exit code (and `identical_after_restore:1` on
// stdout for CI):
//
//   * fleet scale (10k hosts full / 1k CI): save -> load into a fresh HUP ->
//     continue BOTH worlds through the same crash/recover slab -> end-state
//     digests bit-identical;
//   * chaos sweep (>= 256 seeds): every seed's cold run digest equals its
//     warm run digest (checkpoint written at T0, restored, continued),
//     serially AND fanned out over sim::ParallelRunner;
//   * branch-and-diverge: K divergent fault-schedule continuations explored
//     from ONE restored T0 world are digest-identical to K cold rebuilds —
//     and cheaper in wall clock (the reason snapshots exist).
//
// `--ci` shrinks the fleet; the chaos sweep stays at 256+ seeds either way.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "chaos/checkpoint.hpp"
#include "chaos/generator.hpp"
#include "chaos/runner.hpp"
#include "chaos/spec.hpp"
#include "core/agent.hpp"
#include "core/hup.hpp"
#include "core/master.hpp"
#include "host/host.hpp"
#include "image/image.hpp"
#include "sim/parallel_runner.hpp"
#include "snapshot/format.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace soda;

namespace {

struct Scale {
  const char* label;
  int hosts;
  int services;
  int crash_hosts;
  std::size_t chaos_seeds;
  std::size_t branches;
};

constexpr Scale kFull{"full", 10'000, 500, 8, 512, 8};
constexpr Scale kCi{"ci", 1'000, 100, 4, 256, 4};

constexpr std::uint64_t kSweepSeed = 0x54A95EEDULL;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- Fleet-scale save / load / continue -------------------------------------

host::MachineConfig fleet_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

std::string host_name(int i) { return "fleet-" + std::to_string(i); }

core::MasterConfig fleet_config() {
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  return config;
}

/// The fig_fleet world: `hosts` tacoma-class hosts carrying `services`
/// two-unit services, failure detection armed, run one detector round past
/// the last admission so the only pending events are the re-armable
/// heartbeat/detector timers — the checkpointable quiesce point.
std::unique_ptr<core::Hup> build_fleet(const Scale& scale) {
  auto hup = std::make_unique<core::Hup>(fleet_config());
  for (int i = 0; i < scale.hosts; ++i) {
    host::HostSpec spec = host::HostSpec::tacoma();
    spec.name = host_name(i);
    hup->add_host(spec,
                  net::Ipv4Address(10, static_cast<std::uint8_t>(i / 250),
                                   static_cast<std::uint8_t>(i % 250), 16),
                  16);
  }
  auto& repo = hup->add_repository("asp-repo");
  hup->agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(1024 * 1024)));
  for (int s = 0; s < scale.services; ++s) {
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = "svc-" + std::to_string(s);
    request.image_location = location;
    request.requirement = {2, fleet_unit()};
    hup->agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup->engine().run();
  }
  hup->enable_failure_detection();  // 250 ms heartbeats, 1 s timeout
  hup->engine().run_until(hup->engine().now() + sim::SimTime::seconds(1));
  return hup;
}

/// The continuation a world runs past the checkpoint: crash branch-specific
/// slab of loaded hosts, let the detector and recovery churn, bring them
/// back, settle, digest. `branch` picks WHICH slab dies, so distinct
/// branches are genuinely divergent futures of the same T0 world.
std::uint64_t continue_and_digest(core::Hup& hup, const Scale& scale,
                                  std::size_t branch) {
  const int first = static_cast<int>(branch) * scale.crash_hosts;
  const sim::SimTime t0 = hup.engine().now();
  for (int i = 0; i < scale.crash_hosts; ++i) hup.crash_host(host_name(first + i));
  hup.engine().run_until(t0 + sim::SimTime::seconds(3));
  for (int i = 0; i < scale.crash_hosts; ++i) {
    hup.recover_host(host_name(first + i));
  }
  hup.engine().run_until(t0 + sim::SimTime::seconds(8));
  // Recovery re-priming may still be in flight at fleet scale; settle in
  // fixed 2 s steps until the world quiesces. Deterministic: bit-identical
  // worlds quiesce at the same step.
  for (int settle = 0; settle < 30; ++settle) {
    const Result<std::uint64_t> digest = hup.state_digest();
    if (digest.ok()) return digest.value();
    hup.engine().run_until(hup.engine().now() + sim::SimTime::seconds(2));
  }
  return must(hup.state_digest());
}

struct FleetResult {
  double save_ms = 0;
  double load_ms = 0;
  double snapshot_mb = 0;
  bool identical = false;
};

FleetResult run_fleet_snapshot(const Scale& scale) {
  FleetResult result;
  auto original = build_fleet(scale);

  const auto save_start = std::chrono::steady_clock::now();
  const std::string bytes = must(original->save_snapshot());
  result.save_ms = seconds_since(save_start) * 1e3;
  result.snapshot_mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);

  auto restored = std::make_unique<core::Hup>(fleet_config());
  const auto load_start = std::chrono::steady_clock::now();
  must(restored->load_snapshot(bytes));
  result.load_ms = seconds_since(load_start) * 1e3;

  const std::uint64_t original_digest =
      continue_and_digest(*original, scale, 0);
  const std::uint64_t restored_digest =
      continue_and_digest(*restored, scale, 0);
  result.identical = original_digest == restored_digest;
  if (!result.identical) {
    std::printf("fleet continuation MISMATCH: original %016llx restored "
                "%016llx\n",
                static_cast<unsigned long long>(original_digest),
                static_cast<unsigned long long>(restored_digest));
  }
  return result;
}

// --- Chaos sweep: cold digest == warm digest, serial and parallel -----------

std::string sweep_path(std::size_t i) {
  return "SNAPSHOT_sweep_" + std::to_string(i) + ".ckpt";
}

struct SweepResult {
  bool identical_serial = true;
  bool identical_parallel = true;
  std::size_t setup_errors = 0;
  double serial_s = 0;
  double serial_warm_s = 0;  // the warm restores alone, which the parallel
                             // phase repeats
  double parallel_s = 0;
};

SweepResult run_chaos_sweep(std::size_t seeds) {
  SweepResult result;
  chaos::ChaosOptions cold_options;
  cold_options.check_invariants = false;  // digests ignore the checker
  std::vector<std::uint64_t> cold_digests(seeds);

  const auto serial_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < seeds; ++i) {
    const chaos::ChaosSpec spec =
        chaos::generate_scenario(sim::replica_seed(kSweepSeed, i));
    chaos::ChaosOptions save = cold_options;
    save.save_checkpoint = sweep_path(i);
    const chaos::ChaosReport cold = chaos::run_scenario(spec, save);
    chaos::ChaosOptions warm = cold_options;
    warm.from_checkpoint = sweep_path(i);
    const auto warm_start = std::chrono::steady_clock::now();
    const chaos::ChaosReport hot = chaos::run_scenario(spec, warm);
    result.serial_warm_s += seconds_since(warm_start);
    cold_digests[i] = cold.digest;
    if (!cold.setup_error.empty() || !hot.setup_error.empty()) {
      ++result.setup_errors;
      std::printf("sweep seed index %zu setup error: %s\n", i,
                  (cold.setup_error + hot.setup_error).c_str());
    }
    if (cold.digest != hot.digest || !hot.warm_started) {
      result.identical_serial = false;
      std::printf("sweep seed index %zu: cold %016llx != warm %016llx\n", i,
                  static_cast<unsigned long long>(cold.digest),
                  static_cast<unsigned long long>(hot.digest));
    }
  }
  result.serial_s = seconds_since(serial_start);

  // The same warm restores fanned out over the parallel runner, reading the
  // serially-written checkpoint files concurrently.
  const auto parallel_start = std::chrono::steady_clock::now();
  const sim::ParallelRunner runner(0);
  const std::vector<std::uint64_t> parallel_digests =
      runner.map(seeds, [&](std::size_t i) {
        chaos::ChaosOptions warm = cold_options;
        warm.from_checkpoint = sweep_path(i);
        return chaos::run_scenario(
                   chaos::generate_scenario(sim::replica_seed(kSweepSeed, i)),
                   warm)
            .digest;
      });
  result.parallel_s = seconds_since(parallel_start);
  for (std::size_t i = 0; i < seeds; ++i) {
    if (parallel_digests[i] != cold_digests[i]) {
      result.identical_parallel = false;
      std::printf("parallel warm restore mismatch at seed index %zu\n", i);
      break;
    }
  }
  for (std::size_t i = 0; i < seeds; ++i) {
    std::remove(sweep_path(i).c_str());
  }
  return result;
}

// --- Branch-and-diverge ------------------------------------------------------

struct BranchResult {
  bool identical = true;
  double cold_s = 0;
  double warm_s = 0;

  [[nodiscard]] double speedup() const noexcept {
    return warm_s > 0 ? cold_s / warm_s : 0;
  }
};

/// The reason snapshots exist: exploring K divergent futures of one
/// expensive world. Warm side pays ONE fleet build + save, then restores the
/// file per branch; cold side rebuilds the fleet from scratch per branch.
/// Every branch kills a different host slab, and each warm digest must match
/// its cold twin.
BranchResult run_branch_and_diverge(const Scale& scale,
                                    const std::string& checkpoint_path) {
  BranchResult result;

  const auto warm_start = std::chrono::steady_clock::now();
  {
    auto base = build_fleet(scale);
    must(base->save_snapshot_file(checkpoint_path));
  }
  std::vector<std::uint64_t> warm_digests;
  for (std::size_t k = 0; k < scale.branches; ++k) {
    core::Hup restored(fleet_config());
    must(restored.load_snapshot_file(checkpoint_path));
    warm_digests.push_back(continue_and_digest(restored, scale, k));
  }
  result.warm_s = seconds_since(warm_start);

  const auto cold_start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < scale.branches; ++k) {
    auto rebuilt = build_fleet(scale);
    const std::uint64_t cold = continue_and_digest(*rebuilt, scale, k);
    if (cold != warm_digests[k]) {
      result.identical = false;
      std::printf("branch %zu: cold %016llx != warm %016llx\n", k,
                  static_cast<unsigned long long>(cold),
                  static_cast<unsigned long long>(warm_digests[k]));
    }
  }
  result.cold_s = seconds_since(cold_start);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::global_logger().set_level(util::LogLevel::kOff);
  Scale scale = kFull;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) scale = kCi;
  }
  std::printf("== Versioned world snapshots (%s: %d hosts, %d services, "
              "%zu chaos seeds, %zu branches) ==\n\n",
              scale.label, scale.hosts, scale.services, scale.chaos_seeds,
              scale.branches);

  const FleetResult fleet = run_fleet_snapshot(scale);
  std::printf("fleet: %.1f MB snapshot, save %.1f ms, load %.1f ms, "
              "continuation %s\n",
              fleet.snapshot_mb, fleet.save_ms, fleet.load_ms,
              fleet.identical ? "bit-identical" : "MISMATCH");

  const SweepResult sweep = run_chaos_sweep(scale.chaos_seeds);
  std::printf("chaos sweep: %zu seeds, serial %.1f runs/sec (%s), parallel "
              "%.1f runs/sec (%s), %zu setup errors\n",
              scale.chaos_seeds,
              static_cast<double>(2 * scale.chaos_seeds) / sweep.serial_s,
              sweep.identical_serial ? "cold == warm" : "MISMATCH",
              static_cast<double>(scale.chaos_seeds) / sweep.parallel_s,
              sweep.identical_parallel ? "identical" : "MISMATCH",
              sweep.setup_errors);

  const std::string branch_ckpt = "SNAPSHOT_branch_t0.snap";
  const BranchResult branch = run_branch_and_diverge(scale, branch_ckpt);
  std::printf("branch-and-diverge: %zu branches, cold rebuilds %.2f s, "
              "build + save + warm restores %.2f s -> %.2fx, digests %s\n",
              scale.branches, branch.cold_s, branch.warm_s, branch.speedup(),
              branch.identical ? "identical" : "MISMATCH");

  util::AsciiTable table({"Section", "Metric", "Value"});
  table.set_alignment(
      {util::Align::kLeft, util::Align::kLeft, util::Align::kRight});
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.1f", fleet.snapshot_mb);
  table.add_row({"fleet", "snapshot MB", buffer});
  std::snprintf(buffer, sizeof buffer, "%.1f", fleet.save_ms);
  table.add_row({"fleet", "save ms", buffer});
  std::snprintf(buffer, sizeof buffer, "%.1f", fleet.load_ms);
  table.add_row({"fleet", "load ms", buffer});
  std::snprintf(buffer, sizeof buffer, "%zu", scale.chaos_seeds);
  table.add_row({"sweep", "seeds", buffer});
  std::snprintf(buffer, sizeof buffer, "%.2fx", branch.speedup());
  table.add_row({"branch", "wall-clock win", buffer});
  std::printf("\n%s\n", table.render().c_str());

  const bool identical = fleet.identical && sweep.identical_serial &&
                         sweep.identical_parallel && branch.identical &&
                         sweep.setup_errors == 0;
  std::printf("identical_after_restore:%d\n", identical ? 1 : 0);

  bench::BenchReport report("BENCH_snapshot.json", "soda-snapshot");
  report.record("snapshot_fleet",
                {{"hosts", static_cast<double>(scale.hosts)},
                 {"services", static_cast<double>(scale.services)},
                 {"snapshot_mb", fleet.snapshot_mb},
                 {"save_ms", fleet.save_ms},
                 {"load_ms", fleet.load_ms},
                 {"identical_after_continue", fleet.identical ? 1.0 : 0.0}});
  report.record("snapshot_chaos_sweep",
                {{"seeds", static_cast<double>(scale.chaos_seeds)},
                 {"identical_serial", sweep.identical_serial ? 1.0 : 0.0},
                 {"identical_parallel", sweep.identical_parallel ? 1.0 : 0.0},
                 {"setup_errors", static_cast<double>(sweep.setup_errors)},
                 {"serial_runs_per_sec",
                  static_cast<double>(2 * scale.chaos_seeds) / sweep.serial_s},
                 {"parallel_runs_per_sec",
                  static_cast<double>(scale.chaos_seeds) / sweep.parallel_s},
                 {"cores", static_cast<double>(bench::machine_cores())},
                 {"parallel_efficiency",
                  bench::parallel_efficiency(sweep.serial_warm_s,
                                             sweep.parallel_s,
                                             scale.chaos_seeds)}});
  report.record("snapshot_branch",
                {{"branches", static_cast<double>(scale.branches)},
                 {"cold_rebuild_s", branch.cold_s},
                 {"warm_restore_s", branch.warm_s},
                 {"speedup", branch.speedup()},
                 {"identical", branch.identical ? 1.0 : 0.0}});
  report.record("snapshot_gate",
                {{"identical_after_restore", identical ? 1.0 : 0.0}});
  if (!report.write()) {
    std::printf("failed to write BENCH_snapshot.json\n");
    return 1;
  }
  if (!identical) return 1;
  std::printf("snapshot: all gates passed\n");
  return 0;
}
