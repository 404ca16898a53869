// Tests for the parallel experiment runner: replica-seed determinism, the
// parallel == serial merge contract (the whole point of the design — fanning
// replicas across threads must not change a single bit of the merged
// output), exception propagation, and the Scenario::run_replicas wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"

namespace soda::sim {
namespace {

TEST(ReplicaSeed, DeterministicAndDistinct) {
  EXPECT_EQ(replica_seed(42, 0), replica_seed(42, 0));
  EXPECT_NE(replica_seed(42, 0), replica_seed(42, 1));
  EXPECT_NE(replica_seed(42, 0), replica_seed(43, 0));
  // Neighbouring replicas must not collide across a realistic sweep width.
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) seeds.push_back(replica_seed(7, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ParallelRunner, RunVisitsEveryIndexExactlyOnce) {
  ParallelRunner runner(4);
  constexpr std::size_t kJobs = 1000;
  std::vector<std::atomic<int>> visits(kJobs);
  runner.run(kJobs, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(visits[i].load(), 1);
}

// One replica = one Engine + one Rng; the sum-of-samples statistic depends
// on every event that ran, so any cross-replica interference or seed drift
// changes it.
std::uint64_t run_replica(std::size_t index) {
  Engine engine;
  Rng rng(replica_seed(0x50da, index));
  std::uint64_t sum = 0;
  for (int i = 0; i < 200; ++i) {
    engine.schedule_at(SimTime::nanoseconds(rng.uniform_int(0, 1000)),
                       [&sum, &rng] {
                         sum += static_cast<std::uint64_t>(
                             rng.uniform_int(0, 1 << 20));
                       });
  }
  engine.run();
  return sum;
}

TEST(ParallelRunner, MapMatchesSerialBitForBit) {
  constexpr std::size_t kReplicas = 32;
  std::vector<std::uint64_t> serial;
  for (std::size_t i = 0; i < kReplicas; ++i) serial.push_back(run_replica(i));

  for (std::size_t threads : {1u, 2u, 8u}) {
    ParallelRunner runner(threads);
    const auto parallel = runner.map(kReplicas, run_replica);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(ParallelRunner, OneWorkerRunsOnCallingThread) {
  ParallelRunner runner(1);
  EXPECT_EQ(runner.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  runner.run(4, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelRunner, FirstExceptionPropagatesAfterDraining) {
  ParallelRunner runner(4);
  std::atomic<int> completed{0};
  try {
    runner.run(100, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("replica 17 failed");
      ++completed;
    });
    FAIL() << "expected the job's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "replica 17 failed");
  }
  // The runner must have joined its workers before rethrowing: no job can
  // still be running, so the counter is final here.
  const int snapshot = completed.load();
  EXPECT_EQ(snapshot, completed.load());
}

TEST(ScenarioRunReplicas, MatchesSerialRuns) {
  const auto scenario = must(core::Scenario::parse(R"(
host seattle 128.10.9.120
host tacoma  128.10.9.140
repo asp-repo
asp bioinfo key-123
publish web content-mb=8
create web-content web n=2
expect-services 1
status web-content
teardown web-content
expect-services 0
)"));
  const auto serial = must(scenario.run());
  const auto replicas = must(scenario.run_replicas(6, 3));
  ASSERT_EQ(replicas.size(), 6u);
  for (const auto& transcript : replicas) EXPECT_EQ(transcript, serial);
}

}  // namespace
}  // namespace soda::sim
