// Tests for the chaos fuzzer (src/chaos, DESIGN.md §13): generator
// determinism and diversity, scenario-run determinism, checker transparency
// (identical digests with the InvariantChecker on or off, serial or under
// ParallelRunner), the pinned regression corpus, the synthetic-violation
// hook, deterministic shrinking, and exact DSL round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "chaos/checkpoint.hpp"
#include "chaos/dsl.hpp"
#include "chaos/generator.hpp"
#include "chaos/invariants.hpp"
#include "chaos/runner.hpp"
#include "chaos/shrink.hpp"
#include "core/faults.hpp"
#include "sim/parallel_runner.hpp"
#include "util/log.hpp"

namespace soda::chaos {
namespace {

constexpr std::uint64_t kBase = 0xC4A05EEDULL;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::global_logger().set_level(util::LogLevel::kOff);
  }
};

/// The first host-crash fault of the first seed (from `base`) that has one,
/// as (spec, crashed-host-name) — the seeded failure used by the synthetic
/// violation and shrink tests.
std::pair<ChaosSpec, std::string> first_crashing_scenario(std::uint64_t base) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    ChaosSpec spec = generate_scenario(sim::replica_seed(base, i));
    for (const ChaosFault& fault : spec.faults) {
      // Low host index, so the shrunk fleet (hosts can only be dropped from
      // the back) stays small.
      if (fault.kind == core::FaultKind::kHostCrash && fault.host <= 1) {
        return {spec, chaos_host_name(spec, fault.host)};
      }
    }
  }
  return {};
}

TEST_F(ChaosTest, GeneratorIsDeterministicPerSeed) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = sim::replica_seed(kBase, i);
    EXPECT_EQ(generate_scenario(seed), generate_scenario(seed));
  }
  EXPECT_FALSE(generate_scenario(1) == generate_scenario(2));
}

TEST_F(ChaosTest, GeneratorCoversTheScenarioSpace) {
  std::set<core::PlacementPolicy> placements;
  std::set<std::string> policies;
  std::set<core::FaultKind> kinds;
  std::set<std::size_t> fleet_sizes;
  bool multi_service = false;
  for (std::uint64_t i = 0; i < 128; ++i) {
    const ChaosSpec spec = generate_scenario(sim::replica_seed(kBase, i));
    EXPECT_TRUE(validate_spec(spec).ok());
    placements.insert(spec.placement);
    fleet_sizes.insert(spec.hosts.size());
    multi_service |= spec.services.size() > 1;
    for (const ChaosService& service : spec.services) {
      policies.insert(service.policy);
    }
    for (const ChaosFault& fault : spec.faults) kinds.insert(fault.kind);
  }
  EXPECT_GE(placements.size(), 3u);
  EXPECT_GE(policies.size(), 4u);
  EXPECT_GE(fleet_sizes.size(), 3u);
  EXPECT_TRUE(multi_service);
  EXPECT_TRUE(kinds.count(core::FaultKind::kHostCrash));
  EXPECT_TRUE(kinds.count(core::FaultKind::kHostRecover));
  EXPECT_TRUE(kinds.count(core::FaultKind::kSlowHost));
  EXPECT_TRUE(kinds.count(core::FaultKind::kLossyLink));
  EXPECT_TRUE(kinds.count(core::FaultKind::kGuestCrash));
}

TEST_F(ChaosTest, RunIsDeterministic) {
  const ChaosSpec spec = generate_scenario(sim::replica_seed(kBase, 3));
  const ChaosReport a = run_scenario(spec);
  const ChaosReport b = run_scenario(spec);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST_F(ChaosTest, CheckerIsTransparentToTheDigest) {
  ChaosOptions unchecked;
  unchecked.check_invariants = false;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const ChaosSpec spec = generate_scenario(sim::replica_seed(kBase, i));
    EXPECT_EQ(run_scenario(spec).digest, run_scenario(spec, unchecked).digest)
        << "seed index " << i;
  }
}

TEST_F(ChaosTest, SerialMatchesParallelRunner) {
  constexpr std::size_t kSeeds = 16;
  std::vector<std::uint64_t> serial(kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    serial[i] =
        run_scenario(generate_scenario(sim::replica_seed(kBase, i))).digest;
  }
  const sim::ParallelRunner runner(0);
  const std::vector<std::uint64_t> parallel =
      runner.map(kSeeds, [](std::size_t i) {
        return run_scenario(generate_scenario(sim::replica_seed(kBase, i)))
            .digest;
      });
  EXPECT_EQ(serial, parallel);
}

TEST_F(ChaosTest, PinnedCorpusReplaysClean) {
  // SODA_CHAOS_CORPUS holds one decimal seed per line ('#' comments). Every
  // corpus seed must run violation-free and round-trip through the DSL;
  // the file pins the seeds that exposed past recovery bugs.
  std::FILE* f = std::fopen(SODA_CHAOS_CORPUS, "r");
  ASSERT_NE(f, nullptr) << "missing corpus file " << SODA_CHAOS_CORPUS;
  std::vector<std::uint64_t> seeds;
  char line[128];
  while (std::fgets(line, sizeof line, f)) {
    if (line[0] == '#' || line[0] == '\n') continue;
    seeds.push_back(std::strtoull(line, nullptr, 10));
  }
  std::fclose(f);
  ASSERT_GE(seeds.size(), 16u);
  for (const std::uint64_t seed : seeds) {
    const ChaosSpec spec = generate_scenario(seed);
    const auto parsed = parse_dsl(render_dsl(spec));
    ASSERT_TRUE(parsed.ok()) << "seed " << seed;
    EXPECT_EQ(parsed.value(), spec) << "seed " << seed;
    const ChaosReport report = run_scenario(spec);
    EXPECT_TRUE(report.setup_error.empty()) << "seed " << seed;
    for (const Violation& violation : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": [" << violation.invariant << "] "
                    << violation.detail;
    }
  }
}

TEST_F(ChaosTest, SyntheticViolationIsDetected) {
  auto [spec, victim] = first_crashing_scenario(kBase);
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(run_scenario(spec).violations.empty());  // clean without hook
  ChaosOptions options;
  options.synthetic_violation_on_host_down = victim;
  const ChaosReport seeded = run_scenario(spec, options);
  ASSERT_FALSE(seeded.violations.empty());
  EXPECT_EQ(seeded.violations.front().invariant, "seeded-violation");
}

TEST_F(ChaosTest, ShrinkIsDeterministicAndMinimal) {
  auto [spec, victim] = first_crashing_scenario(kBase);
  ASSERT_FALSE(victim.empty());
  ChaosOptions options;
  options.synthetic_violation_on_host_down = victim;
  const ChaosOracle oracle = [&](const ChaosSpec& candidate) {
    return !run_scenario(candidate, options).violations.empty();
  };

  const ShrinkResult first = shrink_scenario(spec, oracle);
  const ShrinkResult second = shrink_scenario(spec, oracle);
  EXPECT_EQ(first.spec, second.spec);
  EXPECT_EQ(first.candidates_tried, second.candidates_tried);

  // The same shrink fanned out over ParallelRunner: still the same minimum.
  const sim::ParallelRunner runner(0);
  const std::vector<std::uint64_t> digests = runner.map(2, [&](std::size_t) {
    return run_scenario(shrink_scenario(spec, oracle).spec, options).digest;
  });
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], run_scenario(first.spec, options).digest);

  // Minimal: the synthetic failure needs one host and one crash, so the
  // reproducer must collapse to a handful of DSL lines, round-trip exactly,
  // and still reproduce when replayed from its rendering.
  const std::string dsl = render_dsl(first.spec);
  std::size_t lines = 0;
  for (std::size_t at = 0; at < dsl.size();) {
    std::size_t end = dsl.find('\n', at);
    if (end == std::string::npos) end = dsl.size();
    if (end > at && dsl[at] != '#') ++lines;  // content, not a comment
    at = end + 1;
  }
  EXPECT_LE(lines, 10u) << dsl;
  EXPECT_TRUE(first.spec.services.empty()) << dsl;
  const auto parsed = parse_dsl(dsl);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), first.spec);
  EXPECT_TRUE(oracle(parsed.value()));
}

TEST_F(ChaosTest, DslRoundTripsExactlyOverManySeeds) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const ChaosSpec spec = generate_scenario(sim::replica_seed(kBase, i));
    const std::string dsl = render_dsl(spec);
    const auto parsed = parse_dsl(dsl);
    ASSERT_TRUE(parsed.ok()) << dsl;
    EXPECT_EQ(parsed.value(), spec) << dsl;
  }
}

TEST_F(ChaosTest, DslRefusesAHorizonPastTheInputBound) {
  // A reproducer's last advance becomes its horizon; 1e300 s would overflow
  // the clock.
  std::string dsl = render_dsl(generate_scenario(sim::replica_seed(kBase, 0)));
  const std::size_t at = dsl.rfind("\nadvance ");
  ASSERT_NE(at, std::string::npos);
  dsl.replace(at + 1, dsl.find('\n', at + 1) - at - 1, "advance 1e300");
  const auto parsed = parse_dsl(dsl);
  ASSERT_FALSE(parsed.ok()) << dsl;
  EXPECT_NE(parsed.error().message.find("horizon"), std::string::npos);
}

TEST_F(ChaosTest, DslRefusesASeedPastTheIntegerRange) {
  // A seed is read as a double; 2^64 and above have no std::uint64_t value,
  // while the largest double below 2^64 still converts exactly.
  const std::string dsl =
      render_dsl(generate_scenario(sim::replica_seed(kBase, 0)));
  const std::size_t at = dsl.find(" seed=", dsl.find("\ntraffic "));
  ASSERT_NE(at, std::string::npos);
  const auto with_seed = [&](const std::string& seed) {
    std::string edited = dsl;
    edited.replace(at + 6, edited.find_first_of(" \n", at + 1) - at - 6, seed);
    return parse_dsl(edited);
  };
  for (const char* seed : {"1e300", "18446744073709551616"}) {
    const auto parsed = with_seed(seed);
    ASSERT_FALSE(parsed.ok()) << seed;
    EXPECT_NE(parsed.error().message.find("bad option 'seed="), std::string::npos)
        << parsed.error().message;
  }
  const auto largest = with_seed("18446744073709549568");  // 2^64 - 2^11
  ASSERT_TRUE(largest.ok()) << largest.error().message;
  bool found = false;
  for (const ChaosService& service : largest.value().services) {
    found = found || service.traffic_seed == 18446744073709549568u;
  }
  EXPECT_TRUE(found);
}

TEST_F(ChaosTest, RunnerReportsSetupErrorsInsteadOfCrashing) {
  ChaosSpec spec = generate_scenario(sim::replica_seed(kBase, 0));
  ASSERT_FALSE(spec.services.empty());
  spec.services[0].policy = "warp-drive";
  const ChaosReport report = run_scenario(spec);
  EXPECT_FALSE(report.setup_error.empty());
}

// --- Billing/accounting conservation ----------------------------------------

core::BillingEntry entry(const std::string& service, double start_s,
                         double end_s = -1, int instances = 2,
                         const std::string& asp = "asp") {
  core::BillingEntry e;
  e.asp_id = asp;
  e.service_name = service;
  e.machine_instances = instances;
  e.started_at = sim::SimTime::seconds(start_s);
  if (end_s >= 0) e.ended_at = sim::SimTime::seconds(end_s);
  return e;
}

TEST_F(ChaosTest, BillingConservationAcceptsCleanLedger) {
  const std::vector<core::BillingEntry> ledger = {
      entry("old", 0, 5),   // closed: lived and was torn down
      entry("web", 6),      // open: still accruing
  };
  const std::vector<BillingExpectation> live = {{"web", "asp", 2}};
  EXPECT_TRUE(billing_conservation_violations(ledger, live,
                                              sim::SimTime::seconds(10))
                  .empty());
}

TEST_F(ChaosTest, BillingConservationFlagsDoubleBilledService) {
  // Two simultaneously-open accrual windows for one placement.
  const std::vector<core::BillingEntry> ledger = {entry("web", 1),
                                                  entry("web", 2)};
  const std::vector<BillingExpectation> live = {{"web", "asp", 2}};
  const auto problems = billing_conservation_violations(
      ledger, live, sim::SimTime::seconds(10));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("double-billed"), std::string::npos);
}

TEST_F(ChaosTest, BillingConservationFlagsOverlappingClosedWindows) {
  const std::vector<core::BillingEntry> ledger = {entry("web", 1, 6),
                                                  entry("web", 4, 8)};
  const auto problems = billing_conservation_violations(
      ledger, {}, sim::SimTime::seconds(10));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("double-billed"), std::string::npos);
}

TEST_F(ChaosTest, BillingConservationFlagsDroppedAccrual) {
  // A live placement whose accrual window is missing entirely.
  const std::vector<BillingExpectation> live = {{"web", "asp", 2}};
  const auto problems =
      billing_conservation_violations({}, live, sim::SimTime::seconds(10));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("dropped"), std::string::npos);
}

TEST_F(ChaosTest, BillingConservationFlagsCorruptWindows) {
  EXPECT_FALSE(billing_conservation_violations(
                   {entry("web", 20)}, {}, sim::SimTime::seconds(10))
                   .empty());  // accrues from the future
  EXPECT_FALSE(billing_conservation_violations(
                   {entry("web", 6, 3)}, {}, sim::SimTime::seconds(10))
                   .empty());  // window runs backwards
  EXPECT_FALSE(billing_conservation_violations(
                   {entry("web", 1)}, {}, sim::SimTime::seconds(10))
                   .empty());  // accrues but is not live
}

// --- Checkpoint / warm start -------------------------------------------------

TEST_F(ChaosTest, SnapshotHeaderRoundTrips) {
  ChaosSpec spec = generate_scenario(sim::replica_seed(kBase, 3));
  spec.snapshot = "worlds/chaos_t0.ckpt";
  const std::string dsl = render_dsl(spec);
  EXPECT_NE(dsl.find("# snapshot: worlds/chaos_t0.ckpt"), std::string::npos);
  const auto parsed = parse_dsl(dsl);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), spec);
}

TEST_F(ChaosTest, WarmStartDigestMatchesColdRun) {
  // The fig_snapshot gate in miniature: checkpoint at T0, restore, continue
  // — digest must equal the uninterrupted run's, seed by seed.
  for (std::uint64_t i = 0; i < 4; ++i) {
    const ChaosSpec spec = generate_scenario(sim::replica_seed(kBase, i));
    const std::string path = ::testing::TempDir() + "chaos_warm_" +
                             std::to_string(i) + ".ckpt";
    ChaosOptions save;
    save.save_checkpoint = path;
    const ChaosReport cold = run_scenario(spec, save);
    ASSERT_TRUE(cold.setup_error.empty()) << cold.setup_error;
    EXPECT_FALSE(cold.warm_started);

    ChaosOptions warm;
    warm.from_checkpoint = path;
    const ChaosReport hot = run_scenario(spec, warm);
    ASSERT_TRUE(hot.setup_error.empty()) << hot.setup_error;
    EXPECT_TRUE(hot.warm_started);
    EXPECT_EQ(hot.digest, cold.digest);
    EXPECT_EQ(hot.requests, cold.requests);
    std::remove(path.c_str());
  }
}

TEST_F(ChaosTest, WarmStartAcceptsDivergentFaultsAndTraffic) {
  // A checkpointed T0 world replays under a DIFFERENT post-T0 future: same
  // fleet and services, fresh faults and traffic. Digest must equal that
  // future's cold run.
  const ChaosSpec base = generate_scenario(sim::replica_seed(kBase, 1));
  const std::string path = ::testing::TempDir() + "chaos_branch.ckpt";
  ChaosOptions save;
  save.save_checkpoint = path;
  ASSERT_TRUE(run_scenario(base, save).setup_error.empty());

  const ChaosSpec variant =
      generate_scenario_from_base(base, sim::replica_seed(kBase, 77));
  EXPECT_EQ(variant.hosts, base.hosts);
  const ChaosReport cold = run_scenario(variant);
  ChaosOptions warm;
  warm.from_checkpoint = path;
  const ChaosReport hot = run_scenario(variant, warm);
  ASSERT_TRUE(hot.setup_error.empty()) << hot.setup_error;
  EXPECT_TRUE(hot.warm_started);
  EXPECT_EQ(hot.digest, cold.digest);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, CheckpointRejectsIncompatibleBase) {
  const ChaosSpec base = generate_scenario(sim::replica_seed(kBase, 1));
  const std::string path = ::testing::TempDir() + "chaos_mismatch.ckpt";
  ChaosOptions save;
  save.save_checkpoint = path;
  ASSERT_TRUE(run_scenario(base, save).setup_error.empty());

  ChaosSpec tampered = base;
  tampered.services[0].units += 1;  // a different T0 world
  ChaosOptions warm;
  warm.from_checkpoint = path;
  const ChaosReport report = run_scenario(tampered, warm);
  EXPECT_NE(report.setup_error.find("base mismatch"), std::string::npos)
      << report.setup_error;
  std::remove(path.c_str());
}

TEST_F(ChaosTest, CheckpointRejectsCorruptFile) {
  const ChaosSpec base = generate_scenario(sim::replica_seed(kBase, 2));
  const std::string path = ::testing::TempDir() + "chaos_corrupt.ckpt";
  ChaosOptions save;
  save.save_checkpoint = path;
  ASSERT_TRUE(run_scenario(base, save).setup_error.empty());
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    std::fseek(f, 64, SEEK_SET);
    std::fputc(byte ^ 0x5A, f);  // guaranteed flip
    std::fclose(f);
  }
  ChaosOptions warm;
  warm.from_checkpoint = path;
  EXPECT_FALSE(run_scenario(base, warm).setup_error.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace soda::chaos
