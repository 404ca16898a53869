// Chaos-fuzzer driver (DESIGN.md §13): thousands of seeded scenarios —
// random fleet x services x switch policies x traffic traces x fault
// schedules — each run twice, serially and fanned out over
// sim::ParallelRunner, with the InvariantChecker attached. Gates:
//
//   - zero invariant violations across the whole corpus (any violation is
//     shrunk to a minimal scenario-DSL reproducer, written next to the
//     report, and the bench exits non-zero),
//   - serial and parallel end-state digests bit-identical per seed
//     (identical_to_serial in BENCH_chaos.json),
//   - the shrinking machinery itself demonstrated end to end: a synthetic
//     violation (the checker's test-only hook) is planted on one seed,
//     shrunk, and the reproducer must replay the failure in <= 10 DSL
//     lines,
//   - invariant-checking overhead measured (checker-on vs checker-off on a
//     subset) — the oracle must stay cheap enough to leave on everywhere.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "chaos/dsl.hpp"
#include "chaos/generator.hpp"
#include "chaos/runner.hpp"
#include "chaos/shrink.hpp"
#include "sim/parallel_runner.hpp"
#include "util/log.hpp"

using namespace soda;

namespace {

constexpr std::uint64_t kBaseSeed = 0xC4A05EEDULL;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::size_t dsl_lines(const std::string& text) {
  std::size_t lines = 0;
  bool content = false;
  bool comment = false;
  bool at_line_start = true;
  for (const char c : text) {
    if (c == '\n') {
      if (content && !comment) ++lines;
      content = comment = false;
      at_line_start = true;
      continue;
    }
    if (at_line_start && c == '#') comment = true;
    if (c != ' ' && c != '\t') content = true;
    at_line_start = false;
  }
  if (content && !comment) ++lines;
  return lines;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// Plants the checker's synthetic violation on the first host-crash fault
/// of a generated scenario, shrinks it, and checks the reproducer: <= 10
/// DSL lines, exact spec round-trip, and a deterministic replay of the
/// failure.
struct ShrinkDemo {
  bool ok = false;
  std::uint64_t seed = 0;
  std::size_t lines = 0;
  std::size_t candidates_tried = 0;
  std::string dsl;
};

ShrinkDemo run_shrink_demo(std::uint64_t base) {
  ShrinkDemo demo;
  // Find a seed whose scenario crashes a low-indexed host: the synthetic
  // hook keys on the host *name*, which depends on its index, so a cheap
  // reproducer wants the crash near the front of the fleet.
  chaos::ChaosSpec spec;
  std::string victim;
  for (std::uint64_t i = 0; i < 64; ++i) {
    spec = chaos::generate_scenario(sim::replica_seed(base, i));
    for (const chaos::ChaosFault& fault : spec.faults) {
      if (fault.kind == core::FaultKind::kHostCrash && fault.host <= 1) {
        demo.seed = spec.seed;
        victim = chaos::chaos_host_name(spec, fault.host);
        break;
      }
    }
    if (!victim.empty()) break;
  }
  if (victim.empty()) return demo;

  chaos::ChaosOptions options;
  options.synthetic_violation_on_host_down = victim;
  const chaos::ChaosOracle oracle = [&](const chaos::ChaosSpec& candidate) {
    return !chaos::run_scenario(candidate, options).violations.empty();
  };
  if (!oracle(spec)) return demo;

  chaos::ShrinkResult shrunk = chaos::shrink_scenario(spec, oracle);
  demo.candidates_tried = shrunk.candidates_tried;
  demo.dsl = chaos::render_dsl(shrunk.spec);
  demo.lines = dsl_lines(demo.dsl);

  auto parsed = chaos::parse_dsl(demo.dsl);
  const bool round_trip = parsed.ok() && parsed.value() == shrunk.spec;
  const bool replays = parsed.ok() && oracle(parsed.value());
  demo.ok = demo.lines <= 10 && round_trip && replays;
  if (!demo.ok) {
    std::printf("shrink demo FAILED: lines=%zu round_trip=%d replays=%d\n",
                demo.lines, round_trip ? 1 : 0, replays ? 1 : 0);
  }
  return demo;
}

}  // namespace

int main(int argc, char** argv) {
  util::global_logger().set_level(util::LogLevel::kOff);
  bool ci = false;
  std::size_t seeds = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) {
      ci = true;
      seeds = 256;
    } else {
      seeds = static_cast<std::size_t>(std::strtoull(argv[i], nullptr, 10));
    }
  }

  std::printf("chaos fuzz: %zu seeds from base %#llx%s\n", seeds,
              static_cast<unsigned long long>(kBaseSeed),
              ci ? " (ci corpus)" : "");

  // --- serial sweep, checker on -------------------------------------------
  const auto serial_start = std::chrono::steady_clock::now();
  std::vector<chaos::ChaosReport> serial(seeds);
  for (std::size_t i = 0; i < seeds; ++i) {
    serial[i] = chaos::run_scenario(chaos::generate_scenario(
        sim::replica_seed(kBaseSeed, i)));
  }
  const double serial_s = seconds_since(serial_start);

  std::size_t violations = 0;
  std::uint64_t faults = 0, requests = 0;
  std::size_t setup_errors = 0;
  for (const chaos::ChaosReport& report : serial) {
    violations += report.violations.size();
    faults += report.faults_injected;
    requests += report.requests;
    if (!report.setup_error.empty()) ++setup_errors;
  }
  std::printf("serial: %.1f scenarios/sec, %llu faults injected, %llu "
              "requests driven, %zu violations, %zu setup errors\n",
              static_cast<double>(seeds) / serial_s,
              static_cast<unsigned long long>(faults),
              static_cast<unsigned long long>(requests), violations,
              setup_errors);

  // Any real violation: shrink it to a replayable reproducer and fail.
  std::size_t reproducers = 0;
  for (std::size_t i = 0; i < seeds && reproducers < 4; ++i) {
    if (serial[i].violations.empty()) continue;
    const std::uint64_t seed = sim::replica_seed(kBaseSeed, i);
    std::printf("VIOLATION at seed %llu: %s — %s\n",
                static_cast<unsigned long long>(seed),
                serial[i].violations.front().invariant.c_str(),
                serial[i].violations.front().detail.c_str());
    const chaos::ChaosOracle oracle = [](const chaos::ChaosSpec& candidate) {
      return !chaos::run_scenario(candidate).violations.empty();
    };
    chaos::ShrinkResult shrunk =
        chaos::shrink_scenario(chaos::generate_scenario(seed), oracle);
    const std::string path =
        "CHAOS_repro_" + std::to_string(seed) + ".soda";
    write_file(path, chaos::render_dsl(shrunk.spec));
    std::printf("  shrunk reproducer written to %s\n", path.c_str());
    ++reproducers;
  }

  // --- the same seeds through ParallelRunner ------------------------------
  const auto parallel_start = std::chrono::steady_clock::now();
  const sim::ParallelRunner runner(0);
  const std::vector<std::uint64_t> parallel_digests =
      runner.map(seeds, [](std::size_t i) {
        return chaos::run_scenario(chaos::generate_scenario(
                                       sim::replica_seed(
                                           kBaseSeed, i)))
            .digest;
      });
  const double parallel_s = seconds_since(parallel_start);
  bool identical = true;
  for (std::size_t i = 0; i < seeds; ++i) {
    if (serial[i].digest != parallel_digests[i]) {
      identical = false;
      std::printf("digest mismatch at seed index %zu\n", i);
      break;
    }
  }
  std::printf("parallel: %.1f scenarios/sec, digests %s\n",
              static_cast<double>(seeds) / parallel_s,
              identical ? "identical to serial" : "MISMATCH");

  // --- invariant-check overhead on a subset -------------------------------
  const std::size_t subset = std::min<std::size_t>(seeds, 128);
  chaos::ChaosOptions unchecked;
  unchecked.check_invariants = false;
  const auto off_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < subset; ++i) {
    const chaos::ChaosReport report = chaos::run_scenario(
        chaos::generate_scenario(
            sim::replica_seed(kBaseSeed, i)),
        unchecked);
    if (report.digest != serial[i].digest) {
      std::printf("checker-off digest mismatch at seed index %zu\n", i);
      identical = false;
    }
  }
  const double off_s = seconds_since(off_start);
  const auto on_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < subset; ++i) {
    (void)chaos::run_scenario(chaos::generate_scenario(
        sim::replica_seed(kBaseSeed, i)));
  }
  const double on_s = seconds_since(on_start);
  const double overhead_pct = off_s > 0 ? (on_s / off_s - 1.0) * 100.0 : 0;
  std::printf("invariant-check overhead: %.1f%% (%zu-seed subset)\n",
              overhead_pct, subset);

  // --- shrink demo ---------------------------------------------------------
  const ShrinkDemo demo = run_shrink_demo(kBaseSeed ^ 0xD37ULL);
  if (demo.ok) {
    std::printf("shrink demo: seed %llu -> %zu DSL lines after %zu "
                "candidates\n%s",
                static_cast<unsigned long long>(demo.seed), demo.lines,
                demo.candidates_tried, demo.dsl.c_str());
    write_file("CHAOS_shrink_demo.soda", demo.dsl);
  }

  bench::BenchReport report("BENCH_chaos.json", "soda-chaos");
  report.record("chaos_fuzz",
                {{"seeds", static_cast<double>(seeds)},
                 {"scenarios_per_sec", static_cast<double>(seeds) / serial_s},
                 {"parallel_scenarios_per_sec",
                  static_cast<double>(seeds) / parallel_s},
                 {"cores", static_cast<double>(bench::machine_cores())},
                 {"parallel_efficiency",
                  bench::parallel_efficiency(serial_s, parallel_s, seeds)},
                 {"faults_injected", static_cast<double>(faults)},
                 {"requests_driven", static_cast<double>(requests)},
                 {"violations", static_cast<double>(violations)},
                 {"setup_errors", static_cast<double>(setup_errors)},
                 {"identical_to_serial", identical ? 1.0 : 0.0},
                 {"check_overhead_pct", overhead_pct}});
  report.record("chaos_shrink_demo",
                {{"shrink_demo_ok", demo.ok ? 1.0 : 0.0},
                 {"shrink_lines", static_cast<double>(demo.lines)},
                 {"shrink_candidates",
                  static_cast<double>(demo.candidates_tried)}});
  if (!report.write()) {
    std::printf("failed to write BENCH_chaos.json\n");
    return 1;
  }
  if (violations || setup_errors || !identical || !demo.ok) return 1;
  std::printf("chaos fuzz: all gates passed\n");
  return 0;
}
