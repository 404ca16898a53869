// Tests for the honest-latency measurement stack: the open-loop traffic
// engine, the streaming stats pipeline behind it, and the SiegeClient
// refusal/backlog accounting it depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "core/events.hpp"
#include "core/switch.hpp"
#include "sim/streaming_stats.hpp"
#include "snapshot/format.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"
#include "workload/webservice.hpp"

namespace soda::workload {
namespace {

struct ServerBed {
  sim::Engine engine;
  net::FlowNetwork network{engine};
  net::NodeId sw, client, server_node;

  ServerBed() {
    sw = network.add_node("switch");
    client = network.add_node("client");
    server_node = network.add_node("server");
    network.add_duplex_link(client, sw, 100, sim::SimTime::zero());
    network.add_duplex_link(server_node, sw, 100, sim::SimTime::zero());
  }
};

// ---------- TrafficTrace ----------

TEST(TrafficTrace, ParsesAllPhaseShapes) {
  const auto parsed = TrafficTrace::parse(
      "const:200x5, burst:5000x2, ramp:100..500x10, diurnal:300~200x60/30");
  ASSERT_TRUE(parsed.ok());
  const TrafficTrace& trace = parsed.value();
  ASSERT_EQ(trace.phases().size(), 4u);
  EXPECT_EQ(trace.phases()[0].shape, TrafficPhase::Shape::kConstant);
  EXPECT_EQ(trace.phases()[1].shape, TrafficPhase::Shape::kBurst);
  EXPECT_EQ(trace.phases()[2].shape, TrafficPhase::Shape::kRamp);
  EXPECT_EQ(trace.phases()[3].shape, TrafficPhase::Shape::kDiurnal);
  EXPECT_DOUBLE_EQ(trace.duration_s(), 77.0);
  // const contributes 1000, burst 10000, ramp 3000; the diurnal phase spans
  // whole periods so its sine integrates away: 18000 net.
  EXPECT_NEAR(trace.expected_arrivals(), 1000 + 10000 + 3000 + 18000, 1e-6);
}

TEST(TrafficTrace, RateAtTracksPhases) {
  TrafficTrace trace;
  trace.constant(100, 10).ramp(100, 300, 10).diurnal(200, 100, 40, 40);
  EXPECT_DOUBLE_EQ(trace.rate_at(5), 100.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(15), 200.0);  // midpoint of the ramp
  EXPECT_NEAR(trace.rate_at(30), 300.0, 1e-9);  // diurnal peak at T/4
  EXPECT_NEAR(trace.rate_at(50), 100.0, 1e-9);  // trough at 3T/4
  EXPECT_DOUBLE_EQ(trace.rate_at(-1), 0.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(61), 0.0);  // past the end
}

TEST(TrafficTrace, RejectsMalformedSpecs) {
  EXPECT_FALSE(TrafficTrace::parse("").ok());
  EXPECT_FALSE(TrafficTrace::parse("const:200").ok());       // no duration
  EXPECT_FALSE(TrafficTrace::parse("warp:200x5").ok());      // unknown shape
  EXPECT_FALSE(TrafficTrace::parse("ramp:200x5").ok());      // missing ..TO
  EXPECT_FALSE(TrafficTrace::parse("const:0x5").ok());       // zero rate
  EXPECT_FALSE(TrafficTrace::parse("const:100x5/2").ok());   // period on const
  EXPECT_FALSE(TrafficTrace::parse("diurnal:100~200x5").ok());  // amp > base
  // Seconds past the input bound (1e9 s in all); a stream reserves twice
  // its trace's duration on the clock.
  EXPECT_FALSE(TrafficTrace::parse("const:10x1e300").ok());
  EXPECT_FALSE(TrafficTrace::parse("const:10xinf").ok());
  EXPECT_FALSE(TrafficTrace::parse("const:10x6e8,burst:20x6e8").ok());
  EXPECT_FALSE(TrafficTrace::parse("diurnal:10~5x1/1e300").ok());
  EXPECT_TRUE(TrafficTrace::parse("const:10x6e8,burst:20x4e8").ok());
}

// ---------- LogHistogram ----------

TEST(LogHistogram, BucketsBoundRelativeError) {
  sim::LogHistogram h(1e-6, 1e4, 32);
  for (double x : {1e-6, 3.7e-4, 0.02, 1.0, 55.0, 9999.0}) {
    sim::LogHistogram probe(1e-6, 1e4, 32);
    probe.add(x);
    // The recording bucket's upper edge over-estimates x by < 1/32 of an
    // octave — the HDR-style relative error bound.
    const double est = probe.quantile(0.5);
    EXPECT_GE(est * (1 + 1e-12), x);
    EXPECT_LE(est, x * (1.0 + 2.0 / 32));
    h.add(x);
  }
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.underflow() + h.overflow(), 0u);
}

TEST(LogHistogram, OutOfRangeCountedSeparately) {
  sim::LogHistogram h(1e-3, 1e3, 8);
  h.add(1e-9);
  h.add(5.0);
  h.add(1e9);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // The top rank sits in the overflow mass: report the exact max, never a
  // clamped in-range bucket.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e9);
}

TEST(LogHistogram, MergeEqualsCombinedRecording) {
  sim::LogHistogram a(1e-6, 1e2, 32), b(1e-6, 1e2, 32), all(1e-6, 1e2, 32);
  for (int i = 1; i <= 1000; ++i) {
    const double x = 1e-4 * i;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  EXPECT_EQ(a.digest(), all.digest());
  EXPECT_DOUBLE_EQ(a.p99(), all.p99());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

// ---------- StreamingStats ----------

TEST(StreamingStats, WindowRotationMatchesBatchRecompute) {
  sim::StreamingStatsConfig cfg;
  cfg.window = sim::SimTime::seconds(1.0);
  cfg.ring_windows = 4;
  sim::StreamingStats stats(cfg);
  sim::LogHistogram batch(cfg.hist_lo, cfg.hist_hi, cfg.sub_buckets);

  // 10 seconds of samples, irregular per-window counts.
  std::uint64_t emitted = 0;
  for (int s = 0; s < 10; ++s) {
    const int count = 3 + (s * 7) % 5;
    for (int i = 0; i < count; ++i) {
      const double latency = 1e-3 * (1 + s) + 1e-5 * i;
      stats.record_latency(
          sim::SimTime::seconds(s + i / static_cast<double>(count)), latency);
      batch.add(latency);
      ++emitted;
    }
  }
  stats.advance_to(sim::SimTime::seconds(10.5));  // close the 10th window

  EXPECT_EQ(stats.completed(), emitted);
  ASSERT_EQ(stats.windows().size(), 10u);
  std::uint64_t windowed = 0;
  for (const auto& w : stats.windows()) windowed += w.completed;
  EXPECT_EQ(windowed, emitted);
  // The cumulative view must equal a single batch histogram over the same
  // samples — rotation may not lose or double-count anything.
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(stats.quantile(q), batch.quantile(q)) << q;
  }
  EXPECT_DOUBLE_EQ(stats.max_latency(), batch.max());
}

TEST(StreamingStats, ErrorRateOverTime) {
  sim::StreamingStatsConfig cfg;
  cfg.window = sim::SimTime::seconds(1.0);
  sim::StreamingStats stats(cfg);
  stats.advance_to(sim::SimTime::zero());  // anchor windows at t=0
  // Window 0: 3 completions, 1 error. Window 1: 1 completion, 3 errors.
  for (int i = 0; i < 3; ++i) {
    stats.record_latency(sim::SimTime::seconds(0.2 + 0.1 * i), 0.01);
  }
  stats.record_error(sim::SimTime::seconds(0.9));
  stats.record_latency(sim::SimTime::seconds(1.2), 0.01);
  for (int i = 0; i < 3; ++i) {
    stats.record_error(sim::SimTime::seconds(1.4 + 0.1 * i));
  }
  stats.advance_to(sim::SimTime::seconds(2.1));

  EXPECT_EQ(stats.errors(), 4u);
  EXPECT_DOUBLE_EQ(stats.error_rate(), 0.5);
  const sim::TimeSeries series = stats.error_rate_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series.points()[0].value, 0.25);
  EXPECT_DOUBLE_EQ(series.points()[1].value, 0.75);
}

TEST(StreamingStats, RollingQuantileForgetsOldWindows) {
  sim::StreamingStatsConfig cfg;
  cfg.window = sim::SimTime::seconds(1.0);
  cfg.ring_windows = 2;
  sim::StreamingStats stats(cfg);
  // A slow burst early, then fast steady state far past the ring.
  for (int i = 0; i < 100; ++i) {
    stats.record_latency(sim::SimTime::seconds(0.001 * i), 2.0);
  }
  for (int s = 5; s < 10; ++s) {
    for (int i = 0; i < 100; ++i) {
      stats.record_latency(sim::SimTime::seconds(s + 0.001 * i), 0.001);
    }
  }
  // Cumulative still remembers the burst; the rolling view has let it go.
  EXPECT_GT(stats.quantile(0.9), 1.0);
  EXPECT_LT(stats.rolling_p99(), 0.01);
}

TEST(StreamingStats, DigestDetectsDivergence) {
  sim::StreamingStats a, b;
  for (int i = 0; i < 50; ++i) {
    a.record_latency(sim::SimTime::seconds(0.1 * i), 0.005 * (i % 7 + 1));
    b.record_latency(sim::SimTime::seconds(0.1 * i), 0.005 * (i % 7 + 1));
  }
  EXPECT_EQ(a.digest(), b.digest());
  b.record_latency(sim::SimTime::seconds(5.1), 0.005);
  EXPECT_NE(a.digest(), b.digest());
}

// ---------- SiegeClient refusal + backlog accounting ----------

TEST(Siege, RefusalsLeaveTimestampedSeries) {
  ServerBed bed;
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.6, 1);
  const net::Ipv4Address ip(10, 0, 0, 1);
  core::ServiceSwitch sw("web", ip, 8080);
  must(sw.add_backend(core::BackEndEntry{ip, 8080, 1, {}}));
  must(sw.set_backend_health(ip, 8080, false));
  SiegeConfig cfg;
  cfg.concurrency = 2;
  cfg.max_requests = 10;
  SiegeClient siege(bed.engine, bed.network, bed.client, &sw, bed.server_node,
                    cfg);
  siege.register_backend(ip, &server, bed.server_node);
  siege.start();
  bed.engine.run();
  EXPECT_EQ(siege.refused(), 10u);
  // Refusals do not vanish from accounting: each is an error in the
  // client's pipeline, timestamped into its window.
  const sim::StreamingStats& stats = siege.stats();
  EXPECT_EQ(stats.errors(), 10u);
  EXPECT_EQ(stats.completed(), 0u);
  EXPECT_DOUBLE_EQ(stats.error_rate(), 1.0);
  // Close the open window on a copy so every refusal shows in the series.
  sim::StreamingStats closed = stats;
  closed.advance_to(bed.engine.now() + closed.window_width());
  std::uint64_t windowed = 0;
  for (const auto& window : closed.windows()) windowed += window.errors;
  EXPECT_EQ(windowed, 10u);
}

TEST(Siege, FailoverRefusalLeavesNoPhantomConnection) {
  // Least-connections regression: a request routed to a backend that died
  // after its last health probe takes the failover path; if the failover
  // also fails, the originally routed backend must not keep a phantom
  // active connection (that would skew every future least-conn pick).
  ServerBed bed;
  const net::NodeId node2 = bed.network.add_node("server2");
  bed.network.add_duplex_link(node2, bed.sw, 100, sim::SimTime::zero());
  WebContentServer s1(bed.engine, bed.network, bed.server_node,
                      vm::ExecMode::kHostNative, 2.6, 2);
  WebContentServer s2(bed.engine, bed.network, node2,
                      vm::ExecMode::kHostNative, 2.6, 2);
  const net::Ipv4Address ip1(10, 0, 0, 1), ip2(10, 0, 0, 2);
  core::ServiceSwitch sw("web", ip1, 8080);
  sw.set_policy(core::make_least_connections());
  must(sw.add_backend(core::BackEndEntry{ip1, 8080, 1, {}}));
  must(sw.add_backend(core::BackEndEntry{ip2, 8080, 1, {}}));
  // Both servers die *after* the switch's view was last refreshed.
  s1.set_down(true);
  s2.set_down(true);

  SiegeConfig cfg;
  cfg.concurrency = 1;
  cfg.max_requests = 4;
  SiegeClient siege(bed.engine, bed.network, bed.client, &sw, bed.server_node,
                    cfg);
  siege.register_backend(ip1, &s1, bed.server_node);
  siege.register_backend(ip2, &s2, node2);
  siege.start();
  bed.engine.run();

  EXPECT_EQ(siege.completed(), 0u);
  EXPECT_EQ(siege.refused(), 4u);
  for (const core::BackEndState& backend : sw.backends()) {
    EXPECT_EQ(backend.active_connections, 0u)
        << backend.entry.address.to_string();
  }
}

TEST(Siege, InjectMeasuresFromScheduledArrival) {
  // Open-loop contract: a backlogged arrival's latency clock starts at its
  // scheduled time, so client-side queueing is measured, not omitted.
  ServerBed bed;
  WebContentServer server(bed.engine, bed.network, bed.server_node,
                          vm::ExecMode::kHostNative, 2.6, 1);
  SiegeConfig cfg;
  cfg.max_in_flight = 1;
  cfg.response_bytes = 256 * 1024;  // ~21 ms per transfer at 100 Mbps
  SiegeClient siege(bed.engine, bed.network, bed.client, nullptr, std::nullopt,
                    cfg);
  siege.register_backend(net::Ipv4Address(10, 0, 0, 1), &server,
                         bed.server_node);
  std::vector<double> latencies;
  siege.set_observer([&](const SiegeClient::RequestOutcome& outcome) {
    EXPECT_FALSE(outcome.refused);
    latencies.push_back(outcome.latency_s);
  });
  for (int i = 0; i < 5; ++i) siege.inject(bed.engine.now());
  EXPECT_EQ(siege.backlog(), 4u);
  bed.engine.run();
  ASSERT_EQ(latencies.size(), 5u);
  EXPECT_EQ(siege.backlog(), 0u);
  // Request k waits behind k predecessors: latencies must grow roughly
  // linearly, and the last must be ~5x the first.
  for (std::size_t i = 1; i < latencies.size(); ++i) {
    EXPECT_GT(latencies[i], latencies[i - 1]);
  }
  EXPECT_GT(latencies.back(), 4.0 * latencies.front());
}

// ---------- TrafficEngine ----------

struct TrafficBed : ServerBed {
  WebContentServer server{engine,   network, server_node,
                          vm::ExecMode::kHostNative, 2.6, 8};
  core::ServiceSwitch service_switch{"web", net::Ipv4Address(10, 0, 0, 1),
                                     8080};
  SiegeClient siege;

  explicit TrafficBed(SiegeConfig cfg = make_config())
      : siege(engine, network, client, &service_switch, sw, cfg) {
    must(service_switch.add_backend(
        core::BackEndEntry{net::Ipv4Address(10, 0, 0, 1), 8080, 1, {}}));
    siege.register_backend(net::Ipv4Address(10, 0, 0, 1), &server,
                           server_node);
  }

  static SiegeConfig make_config() {
    SiegeConfig cfg;
    cfg.record_samples = false;
    cfg.response_bytes = 1024;
    return cfg;
  }
};

TEST(TrafficEngine, DrivesConstantTraceOpenLoop) {
  TrafficBed bed;
  TrafficEngine traffic(bed.engine);
  traffic.add_stream("web", bed.siege,
                     TrafficTrace().constant(200, 2.0));
  traffic.start();
  bed.engine.run();

  EXPECT_TRUE(traffic.finished());
  const sim::StreamingStats& stats = traffic.stats("web");
  // ~400 expected arrivals; Poisson noise stays well within 25%.
  EXPECT_NEAR(static_cast<double>(traffic.scheduled("web")), 400.0, 100.0);
  EXPECT_EQ(stats.completed(), traffic.scheduled("web"));
  EXPECT_EQ(stats.errors(), 0u);
  EXPECT_GT(stats.p50(), 0.0);
  EXPECT_GE(stats.p999(), stats.p50());
}

TEST(TrafficEngine, MultiTenantStreamsAreIndependent) {
  TrafficBed bed;
  // Second tenant shares the fleet through its own client.
  SiegeConfig cfg = TrafficBed::make_config();
  SiegeClient other(bed.engine, bed.network, bed.client, &bed.service_switch,
                    bed.sw, cfg);
  other.register_backend(net::Ipv4Address(10, 0, 0, 1), &bed.server,
                         bed.server_node);

  TrafficEngine traffic(bed.engine);
  traffic.add_stream("gold", bed.siege, TrafficTrace().constant(150, 2.0));
  traffic.add_stream("bronze", other, TrafficTrace().constant(50, 2.0));
  traffic.start();
  bed.engine.run();

  EXPECT_TRUE(traffic.finished());
  EXPECT_GT(traffic.scheduled("gold"), traffic.scheduled("bronze"));
  EXPECT_EQ(traffic.stats("gold").completed() +
                traffic.stats("bronze").completed(),
            traffic.scheduled("gold") + traffic.scheduled("bronze"));
}

TEST(TrafficEngine, RefusalsLandInErrorStats) {
  TrafficBed bed;
  must(bed.service_switch.set_backend_health(net::Ipv4Address(10, 0, 0, 1),
                                             8080, false));
  TrafficEngine traffic(bed.engine);
  traffic.add_stream("web", bed.siege, TrafficTrace().constant(100, 1.0));
  traffic.start();
  bed.engine.run();

  const sim::StreamingStats& stats = traffic.stats("web");
  EXPECT_EQ(stats.completed(), 0u);
  EXPECT_EQ(stats.errors(), traffic.scheduled("web"));
  EXPECT_DOUBLE_EQ(stats.error_rate(), 1.0);
}

TEST(TrafficEngine, ReplaysAreBitIdentical) {
  auto digest_of_run = [] {
    TrafficBed bed;
    TrafficEngine traffic(bed.engine);
    traffic.add_stream("web", bed.siege,
                       TrafficTrace().constant(100, 1.0).burst(400, 0.5));
    traffic.start();
    bed.engine.run();
    return traffic.digest();
  };
  const std::uint64_t first = digest_of_run();
  EXPECT_EQ(first, digest_of_run());
  EXPECT_NE(first, 0u);
}

TEST(StreamingStats, MidWindowCheckpointContinuesBitIdentical) {
  // Save with a half-filled open window and a warm ring, restore into a
  // same-config pipeline, feed both the same tail — digests must stay equal.
  sim::StreamingStatsConfig config;
  config.window = sim::SimTime::seconds(1);
  sim::StreamingStats original(config);
  for (int i = 0; i < 35; ++i) {
    original.record_latency(sim::SimTime::milliseconds(100 * i),
                            0.001 * (1 + i % 7));
    if (i % 9 == 0) original.record_error(sim::SimTime::milliseconds(100 * i));
  }

  snapshot::Writer writer;
  original.serialize(writer);
  const std::string bytes = writer.finish();
  sim::StreamingStats restored(config);
  snapshot::Reader reader(bytes);
  restored.serialize(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(restored.digest(), original.digest());
  EXPECT_EQ(restored.windows().size(), original.windows().size());

  for (int i = 35; i < 70; ++i) {
    const sim::SimTime at = sim::SimTime::milliseconds(100 * i);
    original.record_latency(at, 0.002 * (1 + i % 5));
    restored.record_latency(at, 0.002 * (1 + i % 5));
  }
  EXPECT_EQ(restored.digest(), original.digest());
  EXPECT_DOUBLE_EQ(restored.rolling_p99(), original.rolling_p99());
}

TEST(TrafficEngine, CheckpointRoundTripContinuesBitIdentical) {
  // Save mid-trace (arrival process pending, half-open stats window),
  // restore into a fresh bed with the same streams registered, re-arm, and
  // finish both runs: stats digests must match bit for bit. The all-refusal
  // switch keeps every request resolved at its arrival instant, so the
  // mid-trace point is quiesced by construction.
  const TrafficTrace trace = TrafficTrace().constant(80, 2.0);
  TrafficBed original;
  must(original.service_switch.set_backend_health(net::Ipv4Address(10, 0, 0, 1),
                                                  8080, false));
  TrafficEngine original_traffic(original.engine);
  original_traffic.add_stream("web", original.siege, trace);
  original_traffic.start();
  original.engine.run_until(sim::SimTime::milliseconds(500));

  snapshot::Writer writer;
  original_traffic.serialize(writer);
  const std::string bytes = writer.finish();

  TrafficBed restored;
  must(restored.service_switch.set_backend_health(net::Ipv4Address(10, 0, 0, 1),
                                                  8080, false));
  TrafficEngine restored_traffic(restored.engine);
  restored_traffic.add_stream("web", restored.siege, trace);
  snapshot::Reader reader(bytes);
  restored_traffic.serialize(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  restored_traffic.rearm_arrivals();

  original.engine.run();
  restored.engine.run();
  EXPECT_TRUE(original_traffic.finished());
  EXPECT_TRUE(restored_traffic.finished());
  EXPECT_EQ(restored_traffic.scheduled("web"),
            original_traffic.scheduled("web"));
  EXPECT_EQ(restored_traffic.digest(), original_traffic.digest());
}

TEST(TrafficEngine, LoadRejectsMismatchedStreamSet) {
  TrafficBed bed;
  TrafficEngine saved(bed.engine);
  saved.add_stream("web", bed.siege, TrafficTrace().constant(10, 0.5));
  snapshot::Writer writer;
  saved.serialize(writer);
  const std::string bytes = writer.finish();

  TrafficBed other;
  TrafficEngine renamed(other.engine);
  renamed.add_stream("api", other.siege, TrafficTrace().constant(10, 0.5));
  snapshot::Reader reader(bytes);
  renamed.serialize(reader);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("name mismatch"), std::string::npos);
}

// ---------- Recorded (file:) traces ----------

TEST(TrafficTrace, ParsesRecordedTraceFile) {
  const auto parsed =
      TrafficTrace::parse(std::string("file:") + SODA_RECORDED_TRACE);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const TrafficTrace& trace = parsed.value();
  EXPECT_TRUE(trace.is_file());
  EXPECT_TRUE(trace.phases().empty());
  ASSERT_EQ(trace.file_offsets().size(), 20u);
  EXPECT_DOUBLE_EQ(trace.file_offsets().front(), 0.0);
  EXPECT_DOUBLE_EQ(trace.duration_s(), 2.4);
  EXPECT_DOUBLE_EQ(trace.expected_arrivals(), 20.0);
  // Recorded traces report the average rate inside the span, zero outside.
  EXPECT_NEAR(trace.rate_at(1.0), 20.0 / 2.4, 1e-12);
  EXPECT_DOUBLE_EQ(trace.rate_at(3.0), 0.0);
}

TEST(TrafficTrace, RejectsMalformedTraceFiles) {
  EXPECT_FALSE(TrafficTrace::parse("file:/nonexistent/arrivals.trace").ok());

  const auto mixed = TrafficTrace::parse("const:100x1, file:whatever");
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.error().message.find("single-phase"), std::string::npos);

  const auto write_temp = [](const char* name, const char* body) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << body;
    return path;
  };
  const auto decreasing =
      TrafficTrace::from_file(write_temp("dec.trace", "0.5\n0.2\n"));
  ASSERT_FALSE(decreasing.ok());
  EXPECT_NE(decreasing.error().message.find("non-decreasing"),
            std::string::npos);
  const auto junk =
      TrafficTrace::from_file(write_temp("junk.trace", "0.1\npotato\n"));
  ASSERT_FALSE(junk.ok());
  EXPECT_NE(junk.error().message.find(":2"), std::string::npos);
  const auto far =
      TrafficTrace::from_file(write_temp("far.trace", "0.5\n1e300\n"));
  ASSERT_FALSE(far.ok());
  EXPECT_NE(far.error().message.find(":2"), std::string::npos);
  EXPECT_FALSE(
      TrafficTrace::from_file(write_temp("empty.trace", "# comments\n\n"))
          .ok());
}

TEST(TrafficEngine, ReplaysRecordedTraceFileAtExactOffsets) {
  const auto parsed =
      TrafficTrace::parse(std::string("file:") + SODA_RECORDED_TRACE);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  const auto digest_of_run = [&] {
    TrafficBed bed;
    TrafficEngine traffic(bed.engine);
    traffic.add_stream("web", bed.siege, parsed.value());
    traffic.start();
    bed.engine.run();
    EXPECT_TRUE(traffic.finished());
    // Every recorded arrival fires exactly once — no Poisson slack here.
    EXPECT_EQ(traffic.scheduled("web"), parsed.value().file_offsets().size());
    EXPECT_EQ(traffic.stats("web").completed(),
              parsed.value().file_offsets().size());
    return traffic.digest();
  };
  const std::uint64_t first = digest_of_run();
  EXPECT_EQ(first, digest_of_run());
  EXPECT_NE(first, 0u);
}

TEST(TrafficEngine, FileTraceCheckpointRoundTripContinuesBitIdentical) {
  // Save mid-replay (6 of 20 recorded arrivals fired), restore into a fresh
  // bed, re-arm, and finish both: the replay cursor is the stream's
  // `scheduled` count, which the snapshot format already carries, so the
  // restored run must land the remaining arrivals at the same offsets.
  const auto parsed =
      TrafficTrace::parse(std::string("file:") + SODA_RECORDED_TRACE);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  TrafficBed original;
  must(original.service_switch.set_backend_health(net::Ipv4Address(10, 0, 0, 1),
                                                  8080, false));
  TrafficEngine original_traffic(original.engine);
  original_traffic.add_stream("web", original.siege, parsed.value());
  original_traffic.start();
  original.engine.run_until(sim::SimTime::milliseconds(500));
  EXPECT_EQ(original_traffic.scheduled("web"), 6u);

  snapshot::Writer writer;
  original_traffic.serialize(writer);
  const std::string bytes = writer.finish();

  TrafficBed restored;
  must(restored.service_switch.set_backend_health(net::Ipv4Address(10, 0, 0, 1),
                                                  8080, false));
  TrafficEngine restored_traffic(restored.engine);
  restored_traffic.add_stream("web", restored.siege, parsed.value());
  snapshot::Reader reader(bytes);
  restored_traffic.serialize(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  restored_traffic.rearm_arrivals();

  original.engine.run();
  restored.engine.run();
  EXPECT_TRUE(original_traffic.finished());
  EXPECT_TRUE(restored_traffic.finished());
  EXPECT_EQ(restored_traffic.scheduled("web"),
            parsed.value().file_offsets().size());
  EXPECT_EQ(restored_traffic.digest(), original_traffic.digest());
}

TEST(TrafficEngine, RegistersGauges) {
  TrafficBed bed;
  TrafficEngine traffic(bed.engine);
  traffic.add_stream("web", bed.siege, TrafficTrace().constant(100, 1.0));
  traffic.start();
  bed.engine.run();

  core::MetricsRegistry metrics;
  traffic.register_gauges(metrics);
  EXPECT_TRUE(metrics.has("traffic.web.p99"));
  EXPECT_GT(metrics.value("traffic.web.p99"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.value("traffic.web.error_rate"), 0.0);
}

}  // namespace
}  // namespace soda::workload
