// google-benchmark micro-benchmarks of the substrate itself: event queue
// throughput (schedule/pop and cancel-heavy), flow-network reallocation,
// switch routing, Master planning, rootfs assembly, and the syscall cost
// model. These guard against accidental slowdowns in the simulator that
// would make the paper-scale experiments unpleasant to run.
//
// After the google-benchmark pass, main() hand-times the event queue's
// schedule/pop and cancel churn, fleet-size flow-network reallocations (a
// capacity flip over 64 routes, and a flow's start and cancel among 200 on
// 8 routes), short flows started and completed through the engine on 6
// shared routes, and a fleet-size chunk peer choice (by the requester's
// registry slot, as the distributor locates) and holder report-and-drop
// pair (with allocation counts from alloc_counter.cpp) and records the
// results in BENCH_sim_core.json via BenchReport.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_report.hpp"
#include "core/hup.hpp"
#include "core/switch.hpp"
#include "image/distributor.hpp"
#include "image/image.hpp"
#include "net/flow_network.hpp"
#include "os/rootfs.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "util/log.hpp"
#include "vm/syscall.hpp"

using namespace soda;

namespace {

// Uniform-random schedule times, pre-generated so the RNG cost stays out of
// the measured loops.
std::vector<std::int64_t> random_times(std::size_t n) {
  sim::Rng rng(1);
  std::vector<std::int64_t> times(n);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  return times;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto times = random_times(n);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.schedule(sim::SimTime::nanoseconds(times[i]), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time.ns());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1 << 8)->Arg(1 << 12);

// Schedule/cancel churn: O(1) generation-tag cancel.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = queue.schedule(
          sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)), [] {});
      benchmark::DoNotOptimize(queue.cancel(id));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(1 << 10);

// A LAN star: `hosts` hosts on 100 Mbps duplex links to one switch.
struct Star {
  sim::Engine engine;
  net::FlowNetwork network{engine};
  std::vector<net::NodeId> hosts;
  std::vector<net::LinkId> uplinks;

  explicit Star(int host_count) {
    const auto sw = network.add_node("sw");
    for (int i = 0; i < host_count; ++i) {
      hosts.push_back(network.add_node("h"));
      uplinks.push_back(
          network.add_duplex_link(hosts.back(), sw, 100, sim::SimTime::zero())
              .first);
    }
  }
  // Flow i runs from host i to host i + 3 (mod hosts).
  void start(std::size_t i, std::int64_t bytes) {
    benchmark::DoNotOptimize(network.start_flow(
        hosts[i % hosts.size()], hosts[(i + 3) % hosts.size()], bytes,
        [](sim::SimTime) {}));
  }
};

void BM_FlowNetworkReallocate(benchmark::State& state) {
  const auto host_count = static_cast<int>(state.range(0));
  const auto flows = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    Star star(host_count);
    state.ResumeTiming();
    // Every start_flow triggers a full max-min reallocation.
    for (std::size_t i = 0; i < flows; ++i) star.start(i, 1'000'000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) * state.iterations());
}
BENCHMARK(BM_FlowNetworkReallocate)
    ->ArgNames({"hosts", "flows"})
    ->Args({8, 16})
    ->Args({8, 64})
    ->Args({300, 64})
    ->Args({2500, 64});

void BM_SwitchRouteWrr(benchmark::State& state) {
  core::ServiceSwitch sw("svc", net::Ipv4Address(10, 0, 0, 1), 80);
  for (int i = 0; i < 8; ++i) {
    must(sw.add_backend(core::BackEndEntry{
        net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)), 80,
        1 + i % 3, ""}));
  }
  for (auto _ : state) {
    auto backend = sw.route();
    benchmark::DoNotOptimize(backend);
    sw.on_request_complete(backend.value().address, backend.value().port);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchRouteWrr);

void BM_MasterPlanAllocation(benchmark::State& state) {
  util::global_logger().set_level(util::LogLevel::kOff);
  auto tb = core::Hup::paper_testbed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tb.hup->master().planner().plan_allocation("svc", {3, {}}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MasterPlanAllocation);

void BM_RootfsBuildAndCustomize(benchmark::State& state) {
  for (auto _ : state) {
    auto rootfs = os::build_rootfs(os::RootFsTemplate::kRh72Server);
    auto customized = os::customize_rootfs(rootfs, {"httpd", "syslog"});
    benchmark::DoNotOptimize(customized.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RootfsBuildAndCustomize);

void BM_SyscallCostModel(benchmark::State& state) {
  const vm::SyscallCostModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vm::static_request_cost(model, 256 * 1024).slowdown());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyscallCostModel);

// ---- Hand-timed measurements, recorded in BENCH_sim_core.json ----

// Process CPU time, the same accounting google-benchmark uses for
// items_per_second: on a busy shared core, wall time charges the queue for
// scheduler steal that has nothing to do with its own cost.
double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

struct Measured {
  double items_per_sec;
  double cpu_s;
  double allocs_per_event;
};

Measured measure_schedule_pop(std::size_t n, std::size_t reps,
                              const std::vector<std::int64_t>& times) {
  std::int64_t sink = 0;
  const std::uint64_t allocs_before = bench::allocation_count();
  const double start = cpu_seconds();
  for (std::size_t r = 0; r < reps; ++r) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.schedule(sim::SimTime::nanoseconds(times[i]), [] {});
    }
    while (!queue.empty()) sink += queue.pop().time.ns();
  }
  const double cpu = cpu_seconds() - start;
  const std::uint64_t allocs = bench::allocation_count() - allocs_before;
  benchmark::DoNotOptimize(sink);
  const auto events = static_cast<double>(n) * static_cast<double>(reps);
  return Measured{events / cpu, cpu, static_cast<double>(allocs) / events};
}

void write_sim_core_report() {
  bench::BenchReport report;

  const std::size_t n = 4096;
  const std::size_t reps = 250;
  const auto times = random_times(n);

  // Warm-up pass so the measured rounds do not pay the page-fault bill and
  // the CPU clock has ramped, then short rounds, many of them: on a machine
  // whose clock wanders, the best round is the undisturbed one.
  measure_schedule_pop(n, 200, times);
  Measured best{0, 0, 0};
  for (int round = 0; round < 12; ++round) {
    const auto measured = measure_schedule_pop(n, reps, times);
    if (measured.items_per_sec > best.items_per_sec) best = measured;
  }
  report.record("event_queue_schedule_pop_n4096",
                {{"items_per_sec", best.items_per_sec},
                 {"cpu_s", best.cpu_s},
                 {"allocs_per_event", best.allocs_per_event}});

  // Cancellation-churn memory: 1M schedule+cancel cycles must not grow the
  // queue.
  {
    sim::EventQueue queue;
    const double start = cpu_seconds();
    for (std::size_t i = 0; i < 1'000'000; ++i) {
      const auto id = queue.schedule(
          sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)), [] {});
      queue.cancel(id);
    }
    const double cpu = cpu_seconds() - start;
    report.record("event_queue_cancel_churn_1M",
                  {{"items_per_sec", 1e6 / cpu},
                   {"cpu_s", cpu},
                   {"footprint_bytes", static_cast<double>(
                        queue.footprint_bytes())}});
  }

  // Flow-network reallocation at fleet size: 64 long flows in flight on a
  // 300-host star (600 links). Each set_link_capacity runs exactly one
  // settle (at an unchanged clock) and one reallocation; flipping one
  // crossed uplink between 100 and 50 Mbps makes the filling take two
  // rounds. After the warm-up, the reused buffers must absorb everything.
  {
    Star star(300);
    for (std::size_t i = 0; i < 64; ++i) star.start(i, std::int64_t{1} << 50);
    const auto reallocate = [&star](int i) {
      star.network.set_link_capacity(star.uplinks[0], i % 2 == 0 ? 50 : 100);
    };
    for (int i = 0; i < 1'000; ++i) reallocate(i);
    constexpr int kReallocations = 10'000;
    const std::uint64_t allocs_before = bench::allocation_count();
    const double start = cpu_seconds();
    for (int i = 0; i < kReallocations; ++i) reallocate(i);
    const double cpu = cpu_seconds() - start;
    const std::uint64_t allocs = bench::allocation_count() - allocs_before;
    report.record("flow_reallocate_h300_f64",
                  {{"ns_per_reallocation", cpu * 1e9 / kReallocations},
                   {"allocs_per_reallocation",
                    static_cast<double>(allocs) / kReallocations},
                   {"cores", static_cast<double>(
                                 std::thread::hardware_concurrency())}});
  }

  // The same star under a burst: 200 long flows from 8 hosts into one, on 8
  // routes. Each operation starts a short flow on one of those routes and
  // cancels it, at an unchanged clock: two reallocations, each re-sharing
  // over 201 or 200 competing flows.
  {
    Star star(300);
    const auto into_first = [&star](int i, std::int64_t bytes) {
      return must(star.network.start_flow(star.hosts[1 + i % 8], star.hosts[0],
                                          bytes, [](sim::SimTime) {}));
    };
    for (int i = 0; i < 200; ++i) into_first(i, std::int64_t{1} << 50);
    const auto start_and_cancel = [&](int i) {
      star.network.cancel_flow(into_first(i, 1'000'000));
    };
    for (int i = 0; i < 1'000; ++i) start_and_cancel(i);
    constexpr int kOperations = 5'000;
    const std::uint64_t allocs_before = bench::allocation_count();
    const double start = cpu_seconds();
    for (int i = 0; i < kOperations; ++i) start_and_cancel(i);
    const double cpu = cpu_seconds() - start;
    const std::uint64_t allocs = bench::allocation_count() - allocs_before;
    constexpr double kReallocations = 2.0 * kOperations;
    report.record("flow_burst_h300_f200",
                  {{"ns_per_reallocation", cpu * 1e9 / kReallocations},
                   {"allocs_per_reallocation",
                    static_cast<double>(allocs) / kReallocations},
                   {"cores", static_cast<double>(
                                 std::thread::hardware_concurrency())}});
  }

  // The completion path, shaped like tenant traffic: 42 short flows in
  // flight on 6 routes (a guest's bridge, its host's uplink and the guest's
  // shaper, into one client), 7 per route. Each completion starts the next
  // flow on its route, through Engine::run, until a budget of flows is
  // spent: every flow starts, settles, drains, waits out its latency and
  // completes.
  {
    struct Churn {
      sim::Engine engine;
      net::FlowNetwork network{engine};
      net::NodeId client;
      std::vector<net::NodeId> guests;
      std::vector<net::LinkId> shapers;
      std::int64_t budget = 0;
      std::int64_t started = 0;

      Churn() {
        const auto sw = network.add_node("sw");
        client = network.add_node("client");
        network.add_duplex_link(client, sw, 100, sim::SimTime::microseconds(100));
        for (int r = 0; r < 6; ++r) {
          const auto host = network.add_node("host");
          network.add_duplex_link(host, sw, 100, sim::SimTime::microseconds(100));
          guests.push_back(network.add_node("guest"));
          network.add_duplex_link(guests.back(), host, 50,
                                  sim::SimTime::microseconds(10));
          shapers.push_back(network.add_virtual_link(10 + 5 * r));
        }
      }
      void start(std::size_t r) {
        if (started == budget) return;
        const std::int64_t bytes = 2'048 + started++ % 29 * 1'024;
        must(network.start_flow(guests[r], client, bytes,
                                [this, r](sim::SimTime) { start(r); },
                                net::kUncapped, {&shapers[r], 1}));
      }
      // Each run starts the same flows in the same order.
      void run(std::int64_t flows) {
        budget = flows;
        started = 0;
        for (int k = 0; k < 7; ++k) {
          for (std::size_t r = 0; r < guests.size(); ++r) start(r);
        }
        engine.run();
      }
    };
    constexpr std::int64_t kFlows = 100'000;
    Churn churn;
    churn.run(kFlows);  // warm-up: the measured run repeats it
    const std::uint64_t allocs_before = bench::allocation_count();
    const double start = cpu_seconds();
    churn.run(kFlows);
    const double cpu = cpu_seconds() - start;
    const std::uint64_t allocs = bench::allocation_count() - allocs_before;
    report.record("flow_churn_r6_f42",
                  {{"ns_per_flow", cpu * 1e9 / kFlows},
                   {"allocs_per_flow", static_cast<double>(allocs) / kFlows},
                   {"cores", static_cast<double>(
                                 std::thread::hardware_concurrency())}});
  }

  // A chunk's peer choice and holder updates at fleet size: 2,500 attached
  // members, each chunk held by 700 of them, as once priming has spread an
  // image across a fleet. Requesters cycle through every host, holders and
  // not. Each measurement runs batches until 0.2 s of CPU time is spent.
  {
    constexpr int kHosts = 2'500;
    constexpr int kHolders = 700;
    constexpr std::uint64_t kChunks = 16;
    sim::Engine engine;
    net::FlowNetwork network(engine);
    image::ChunkRegistry registry;  // outlives the distributors below
    std::vector<std::unique_ptr<image::ImageDistributor>> members;
    for (int i = 0; i < kHosts; ++i) {
      const std::string name = "host-" + std::to_string(i);
      members.push_back(std::make_unique<image::ImageDistributor>(
          engine, network, network.add_node(name), name));
      members.back()->set_registry(&registry);
    }
    for (std::uint64_t c = 0; c < kChunks; ++c) {
      for (int h = 0; h < kHolders; ++h) {
        registry.report_chunk(members[(c * 151 + h) % kHosts]->registry_slot(),
                              image::ChunkId{c + 1});
      }
    }
    struct Timed {
      double ns_per_op;
      double allocs_per_op;
    };
    // Runs `batch(first, count)` over consecutive operation indices, after
    // one warm-up batch.
    const auto timed = [](const auto& batch) {
      constexpr std::size_t kBatch = 10'000;
      batch(0, kBatch);
      std::size_t done = 0;
      const std::uint64_t allocs_before = bench::allocation_count();
      const double start = cpu_seconds();
      double cpu = 0;
      do {
        batch(done, kBatch);
        done += kBatch;
        cpu = cpu_seconds() - start;
      } while (cpu < 0.2);
      const auto ops = static_cast<double>(done);
      return Timed{cpu * 1e9 / ops,
                   static_cast<double>(bench::allocation_count() -
                                       allocs_before) /
                       ops};
    };
    std::size_t sink = 0;
    // The distributor's call: the requester's slot and cached hash.
    const Timed locate = timed([&](std::size_t first, std::size_t count) {
      for (std::size_t i = first; i < first + count; ++i) {
        const image::ImageDistributor& requester = *members[(i * 7) % kHosts];
        const auto peer =
            registry.locate(image::ChunkId{i % kChunks + 1},
                            requester.registry_slot(), requester.name_hash());
        sink += peer ? peer->node.value : 0;
      }
    });
    // One report that adds a holder to a 700-holder list, then the drop
    // that takes it out again; the host cycles through the chunk's
    // non-holders, so the insertion point moves along the list.
    const Timed update = timed([&](std::size_t first, std::size_t count) {
      for (std::size_t i = first; i < first + count; ++i) {
        const std::uint64_t c = i % kChunks;
        const auto host = members[(c * 151 + kHolders +
                                   (i * 7) % (kHosts - kHolders)) %
                                  kHosts]
                              ->registry_slot();
        registry.report_chunk(host, image::ChunkId{c + 1});
        registry.drop_chunk(host, image::ChunkId{c + 1});
      }
    });
    benchmark::DoNotOptimize(sink);
    const auto cores = static_cast<double>(std::thread::hardware_concurrency());
    report.record("chunk_locate_h2500",
                  {{"ns_per_locate", locate.ns_per_op},
                   {"allocs_per_locate", locate.allocs_per_op},
                   {"cores", cores}});
    report.record("chunk_report_h2500",
                  {{"ns_per_report_and_drop", update.ns_per_op},
                   {"allocs_per_report", update.allocs_per_op},
                   {"cores", cores}});
  }

  if (report.write()) {
    std::printf("\nwrote BENCH_sim_core.json (event queue: %.3g ev/s)\n",
                best.items_per_sec);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_sim_core_report();
  return 0;
}
