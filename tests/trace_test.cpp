// Tests for the control-plane trace: the TraceLog container itself, the
// exact event sequences the SODA entities emit during service lifecycles,
// and the bus's echo of every record to the log.
#include <gtest/gtest.h>

#include <vector>

#include "core/hup.hpp"
#include "core/trace.hpp"
#include "image/image.hpp"
#include "util/log.hpp"

namespace soda::core {
namespace {

// ---------- TraceLog container ----------

TEST(TraceLog, RecordsInOrder) {
  TraceLog log;
  log.record({sim::SimTime::seconds(1), TraceKind::kAdmitted, "master", "svc",
              {}});
  log.record({sim::SimTime::seconds(2), TraceKind::kServiceRunning, "master",
              "svc", {}});
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].kind, TraceKind::kAdmitted);
  EXPECT_EQ(log.events()[1].kind, TraceKind::kServiceRunning);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLog, BoundedWithDropAccounting) {
  TraceLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.record({sim::SimTime::seconds(i), TraceKind::kAdmitted, "m",
                "svc" + std::to_string(i), {}});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.events().front().subject, "svc2");  // oldest two gone
}

TEST(TraceLog, SubjectFilterMatchesServiceAndItsNodes) {
  TraceLog log;
  log.record({sim::SimTime::zero(), TraceKind::kAdmitted, "master", "web", {}});
  log.record(
      {sim::SimTime::zero(), TraceKind::kNodeBooted, "daemon@s", "web/0", {}});
  log.record({sim::SimTime::zero(), TraceKind::kAdmitted, "master", "webby", {}});
  const auto events = log.for_subject("web");
  ASSERT_EQ(events.size(), 2u);  // "webby" must not match "web"
  EXPECT_EQ(events[1].subject, "web/0");
}

TEST(TraceLog, RenderIsHumanReadable) {
  TraceLog log;
  log.record({sim::SimTime::seconds(1.5), TraceKind::kNodeBooted,
              "daemon@seattle", "web/0", "ip 10.0.0.1"});
  const std::string text = log.render();
  EXPECT_NE(text.find("t=1.500s"), std::string::npos);
  EXPECT_NE(text.find("[daemon@seattle]"), std::string::npos);
  EXPECT_NE(text.find("node-booted web/0: ip 10.0.0.1"), std::string::npos);
}

TEST(TraceLog, ClearResets) {
  TraceLog log(2);
  for (int i = 0; i < 3; ++i) {
    log.record({sim::SimTime::zero(), TraceKind::kAdmitted, "m", "s", {}});
  }
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLog, KindNames) {
  EXPECT_EQ(trace_kind_name(TraceKind::kPrimingStarted), "priming-started");
  EXPECT_EQ(trace_kind_name(TraceKind::kHealthChanged), "health-changed");
}

// ---------- Control-plane sequences ----------

struct TraceBed {
  Hup::PaperTestbed tb;
  Hup& hup;
  image::ImageLocation loc;

  TraceBed() : tb(Hup::paper_testbed()), hup(*tb.hup) {
    hup.agent().register_asp("asp", "key");
    loc = must(tb.repo->publish(image::honeypot_image()));
  }

  bool create(const std::string& name, int n = 1) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = loc;
    request.requirement = {n, {}};
    bool ok = false;
    hup.agent().service_creation(request, [&](auto reply, sim::SimTime) {
      ok = reply.ok();
    });
    hup.engine().run();
    return ok;
  }
};

TEST(TraceSequence, SuccessfulCreationEmitsTheProtocol) {
  TraceBed bed;
  ASSERT_TRUE(bed.create("svc"));
  const auto kinds = bed.hup.trace().kinds_for("svc");
  EXPECT_EQ(kinds,
            (std::vector<TraceKind>{
                TraceKind::kRequestReceived, TraceKind::kAdmitted,
                TraceKind::kPrimingStarted, TraceKind::kImageDownloaded,
                TraceKind::kNodeBooted, TraceKind::kSwitchCreated,
                TraceKind::kServiceRunning}));
}

TEST(TraceSequence, EventsCarryMonotonicTimestamps) {
  TraceBed bed;
  ASSERT_TRUE(bed.create("svc"));
  const auto events = bed.hup.trace().for_subject("svc");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, events[i - 1].at);
  }
  // Priming has real duration: running strictly after the request.
  EXPECT_GT(events.back().at, events.front().at);
}

TEST(TraceSequence, RejectionTracesAndStops) {
  TraceBed bed;
  EXPECT_FALSE(bed.create("huge", 40));
  const auto kinds = bed.hup.trace().kinds_for("huge");
  EXPECT_EQ(kinds, (std::vector<TraceKind>{TraceKind::kRequestReceived,
                                           TraceKind::kRejected}));
}

TEST(TraceSequence, ResizeAndTeardownAppend) {
  TraceBed bed;
  ASSERT_TRUE(bed.create("svc"));
  bed.hup.agent().service_resizing(
      ServiceResizingRequest{{"asp", "key"}, "svc", 2},
      [](auto reply, sim::SimTime) { must(std::move(reply)); });
  bed.hup.engine().run();
  must(bed.hup.agent().service_teardown(
      ServiceTeardownRequest{{"asp", "key"}, "svc"}));
  const auto kinds = bed.hup.trace().kinds_for("svc");
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[kinds.size() - 2], TraceKind::kResized);
  EXPECT_EQ(kinds.back(), TraceKind::kTornDown);
}

TEST(TraceSequence, HealthTransitionTraced) {
  TraceBed bed;
  ASSERT_TRUE(bed.create("svc"));
  const auto* record = bed.hup.master().find_service("svc");
  bed.hup.find_daemon(record->nodes[0].host_name)
      ->find_node(record->nodes[0].node_name)
      ->uml()
      .crash();
  bed.hup.health_monitor().probe_once();
  const auto events = bed.hup.trace().for_subject("svc");
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, TraceKind::kHealthChanged);
  EXPECT_EQ(events.back().detail, "unhealthy");
}

TEST(TraceSequence, MultiNodeCreationTracesEveryNode) {
  TraceBed bed;
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "wide";
  request.image_location = bed.loc;
  request.requirement = {3, m};
  bed.hup.agent().service_creation(request, [](auto reply, sim::SimTime) {
    must(std::move(reply));
  });
  bed.hup.engine().run();
  int boots = 0;
  for (const auto& event : bed.hup.trace().for_subject("wide")) {
    if (event.kind == TraceKind::kNodeBooted) ++boots;
  }
  EXPECT_EQ(boots, 2);  // seattle 2M node + tacoma 1M node
}

// ---------- The log echo ----------

/// Captures the global logger at `level` for one scope, then restores the
/// default stderr sink and the previous level.
class LogCapture {
 public:
  explicit LogCapture(util::LogLevel level)
      : saved_level_(util::global_logger().level()) {
    util::global_logger().set_sink(util::capture_sink(records));
    util::global_logger().set_level(level);
  }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;
  ~LogCapture() {
    util::global_logger().set_level(saved_level_);
    util::global_logger().set_sink(util::stderr_sink());
  }

  std::vector<util::LogRecord> records;

 private:
  util::LogLevel saved_level_;
};

TEST(TraceEcho, EveryRecordReachesTheLogInOrderAtInfo) {
  LogCapture capture(util::LogLevel::kInfo);
  TraceBed bed;
  ASSERT_TRUE(bed.create("svc"));
  const auto& events = bed.hup.trace().events();
  ASSERT_FALSE(events.empty());
  // request-received is recorded without being published; it echoes too.
  EXPECT_EQ(events.front().kind, TraceKind::kRequestReceived);
  std::size_t matched = 0;
  for (const util::LogRecord& record : capture.records) {
    if (matched < events.size() && record.message == events[matched].render()) {
      EXPECT_EQ(record.component, events[matched].actor);
      EXPECT_EQ(record.level, util::LogLevel::kInfo);
      ++matched;
    }
  }
  EXPECT_EQ(matched, events.size());
}

TEST(TraceEcho, NothingReachesTheLogWhenItIsOff) {
  LogCapture capture(util::LogLevel::kOff);
  TraceBed bed;
  ASSERT_TRUE(bed.create("svc"));
  EXPECT_FALSE(bed.hup.trace().events().empty());
  EXPECT_TRUE(capture.records.empty());
}

TEST(TraceEcho, HealthFlipArrivesAtWarn) {
  LogCapture capture(util::LogLevel::kWarn);
  TraceBed bed;
  ASSERT_TRUE(bed.create("svc"));
  EXPECT_TRUE(capture.records.empty());  // creation narrates at info
  const auto* record = bed.hup.master().find_service("svc");
  bed.hup.find_daemon(record->nodes[0].host_name)
      ->find_node(record->nodes[0].node_name)
      ->uml()
      .crash();
  bed.hup.health_monitor().probe_once();
  const ControlPlaneEvent& flip = bed.hup.trace().events().back();
  ASSERT_EQ(flip.kind, TraceKind::kHealthChanged);
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].level, util::LogLevel::kWarn);
  EXPECT_EQ(capture.records[0].component, "monitor");
  EXPECT_EQ(capture.records[0].message, flip.render());
}

}  // namespace
}  // namespace soda::core
