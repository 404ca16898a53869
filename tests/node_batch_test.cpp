// Races against a node batch — the one way creation, resize growth and
// recovery add nodes to a service (core/priming). Each test lets a
// teardown, a same-name re-create or a host declared down land while a
// batch primes, on the paper's two-host testbed with Figure 2's unit,
// driven through the Agent. The oracle is the chaos InvariantChecker (its
// sweep and its final checks, billing conservation included) plus a check
// that no daemon keeps a node or a slice that no live placement accounts
// for.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "chaos/invariants.hpp"
#include "core/hup.hpp"
#include "image/image.hpp"
#include "util/log.hpp"

namespace soda::core {
namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

// With 1.5x inflation, seattle (2.6 GHz) fits exactly 2 units and tacoma
// (1.8 GHz) exactly 1.
host::MachineConfig fig2_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

struct Bed {
  Hup::PaperTestbed tb;
  Hup& hup;
  chaos::InvariantChecker checker;  // destroyed before the Hup
  image::ImageLocation web;
  ApiResult<ServiceCreationReply> created =
      ApiError{ApiErrorCode::kInternal, "creation never replied"};
  ApiResult<ServiceResizingReply> resized =
      ApiError{ApiErrorCode::kInternal, "resize never replied"};

  Bed() : tb(make()), hup(*tb.hup), checker(hup) {
    hup.agent().register_asp("asp", "key");
    web = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  }

  static Hup::PaperTestbed make() {
    util::global_logger().set_level(util::LogLevel::kOff);
    return Hup::paper_testbed();
  }

  /// Starts a creation of <n, fig2_unit()>; the reply lands in `created`.
  void create(const std::string& name, int n) {
    ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = web;
    request.requirement = {n, fig2_unit()};
    hup.agent().service_creation(
        request, [this](ApiResult<ServiceCreationReply> reply, sim::SimTime) {
          created = std::move(reply);
        });
  }

  /// Starts a resize; the reply lands in `resized`.
  void resize(const std::string& name, int n_new) {
    hup.agent().service_resizing(
        ServiceResizingRequest{{"asp", "key"}, name, n_new},
        [this](ApiResult<ServiceResizingReply> reply, sim::SimTime) {
          resized = std::move(reply);
        });
  }

  Result<void, ApiError> teardown(const std::string& name) {
    return hup.agent().service_teardown(
        ServiceTeardownRequest{{"asp", "key"}, name});
  }

  /// Crashes `host` and has the Master notice at once.
  void declare_down(const std::string& host) {
    hup.crash_host(host);
    hup.master().poll_liveness_once();
  }

  void run_for(sim::SimTime span) {
    hup.engine().run_until(hup.engine().now() + span);
  }

  /// Advances the clock in 10 ms steps until `ready` holds (false if it
  /// never does within a simulated minute).
  bool advance_until(const std::function<bool()>& ready) {
    for (int step = 0; step < 6000 && !ready(); ++step) {
      run_for(sim::SimTime::milliseconds(10));
    }
    return ready();
  }

  [[nodiscard]] const ServiceRecord* service(const char* name = "web") {
    return hup.master().find_service(name);
  }

  [[nodiscard]] SodaDaemon& daemon(const std::string& host) {
    return *hup.find_daemon(host);
  }

  /// The oracle: no invariant violation over the whole run and at its end,
  /// and every node and slice a daemon holds backs a placement of a live
  /// service (a node's slice is all a placement reserves on its host).
  void expect_clean() {
    checker.sweep();
    checker.final_checks();
    for (const chaos::Violation& v : checker.violations()) {
      ADD_FAILURE() << v.at_s << "s " << v.invariant << ": " << v.detail;
    }
    for (const SodaDaemon* d : hup.master().daemons()) {
      std::size_t placed = 0;
      hup.master().services().for_each(
          [&](const std::string&, const ServiceRecord& record) {
            for (const Placement& placement : record.placements) {
              if (placement.daemon != d) continue;
              ++placed;
              EXPECT_NE(d->find_node(placement.node_name), nullptr)
                  << placement.node_name << " has no node on "
                  << d->host_name();
            }
          });
      EXPECT_EQ(d->node_count(), placed) << d->host_name();
      EXPECT_EQ(d->host().slices().size(), placed) << d->host_name();
    }
  }
};

TEST(NodeBatch, TeardownMidGrowthRepliesNoSuchService) {
  Bed bed;
  bed.create("web", 1);  // seattle
  bed.hup.engine().run();
  ASSERT_TRUE(bed.created.ok());

  // Seattle grows in place to 2 units; web/1 primes on tacoma.
  bed.resize("web", 3);
  bed.run_for(sim::SimTime::seconds(1));
  ASSERT_EQ(bed.service()->lifecycle.state(), ServiceState::kResizing);
  ASSERT_EQ(bed.service()->nodes.size(), 1u);  // web/1 still priming
  ASSERT_TRUE(bed.teardown("web").ok());

  bed.hup.engine().run();
  ASSERT_FALSE(bed.resized.ok());
  EXPECT_EQ(bed.resized.error().code, ApiErrorCode::kNoSuchService);
  EXPECT_EQ(bed.service(), nullptr);
  EXPECT_EQ(bed.daemon("tacoma").node_count(), 0u);
  EXPECT_TRUE(bed.daemon("tacoma").host().slices().empty());
  bed.expect_clean();
}

// A re-created service has the old one's name but not its batch: the old
// growth batch must neither move the new record's lifecycle nor reply ok.
TEST(NodeBatch, TeardownAndRecreateMidGrowthRepliesNoSuchService) {
  Bed bed;
  bed.create("web", 1);  // seattle
  bed.hup.engine().run();
  ASSERT_TRUE(bed.created.ok());

  bed.resize("web", 3);  // web/1 primes on tacoma
  bed.run_for(sim::SimTime::seconds(1));
  ASSERT_TRUE(bed.teardown("web").ok());
  bed.create("web", 1);  // seattle again: tacoma's slice is still held
  ASSERT_EQ(bed.service()->lifecycle.state(), ServiceState::kPriming);

  bed.hup.engine().run();
  ASSERT_FALSE(bed.resized.ok());
  EXPECT_EQ(bed.resized.error().code, ApiErrorCode::kNoSuchService);
  ASSERT_TRUE(bed.created.ok());
  const ServiceRecord& fresh = *bed.service();
  EXPECT_EQ(fresh.lifecycle.state(), ServiceState::kRunning);
  EXPECT_EQ(fresh.requirement.n, 1);
  ASSERT_EQ(fresh.nodes.size(), 1u);
  EXPECT_EQ(fresh.nodes.front().host_name, "seattle");
  EXPECT_EQ(bed.daemon("tacoma").node_count(), 0u);
  bed.expect_clean();
}

TEST(NodeBatch, TeardownMidRecoveryLeavesNoOrphan) {
  Bed bed;
  bed.create("web", 1);  // seattle
  bed.hup.engine().run();
  ASSERT_TRUE(bed.created.ok());

  bed.declare_down("seattle");  // recovery re-primes web/1 on tacoma
  ASSERT_EQ(bed.service()->lifecycle.state(), ServiceState::kDegraded);
  ASSERT_EQ(bed.service()->placements.size(), 1u);
  ASSERT_EQ(bed.service()->placements.front().daemon, &bed.daemon("tacoma"));
  bed.run_for(sim::SimTime::seconds(1));
  ASSERT_TRUE(bed.service()->nodes.empty());
  ASSERT_TRUE(bed.teardown("web").ok());

  bed.hup.engine().run();
  EXPECT_EQ(bed.daemon("tacoma").node_count(), 0u);
  EXPECT_TRUE(bed.daemon("tacoma").host().slices().empty());
  bed.expect_clean();
}

TEST(NodeBatch, TeardownAndRecreateMidRecoveryKeepsServicesApart) {
  Bed bed;
  bed.create("web", 1);  // seattle
  bed.hup.engine().run();
  ASSERT_TRUE(bed.created.ok());

  const sim::SimTime started = bed.hup.engine().now();
  bed.declare_down("seattle");  // recovery re-primes web/1 on tacoma
  SodaDaemon& tacoma = bed.daemon("tacoma");
  ASSERT_TRUE(bed.advance_until(
      [&] { return tacoma.priming_report("web/1") != nullptr; }));
  // Its image is in; just before the guest finishes booting, the ASP
  // tears the service down and creates it again on the rebooted seattle.
  const sim::SimTime boots_at =
      started + tacoma.priming_report("web/1")->total();
  bed.hup.engine().run_until(boots_at - sim::SimTime::milliseconds(1));
  ASSERT_TRUE(bed.service()->nodes.empty());
  bed.hup.recover_host("seattle");
  bed.hup.master().poll_liveness_once();
  ASSERT_TRUE(bed.teardown("web").ok());
  bed.create("web", 1);
  ASSERT_EQ(bed.service()->lifecycle.state(), ServiceState::kPriming);

  bed.hup.engine().run();
  ASSERT_TRUE(bed.created.ok());
  const ServiceRecord& fresh = *bed.service();
  EXPECT_EQ(fresh.lifecycle.state(), ServiceState::kRunning);
  ASSERT_EQ(fresh.nodes.size(), 1u);
  EXPECT_EQ(fresh.nodes.front().node_name, "web/0");
  EXPECT_EQ(fresh.nodes.front().host_name, "seattle");
  ASSERT_EQ(fresh.placements.size(), 1u);
  EXPECT_EQ(fresh.service_switch->backends().size(), 1u);
  EXPECT_EQ(tacoma.node_count(), 0u);
  EXPECT_TRUE(tacoma.host().slices().empty());
  bed.expect_clean();
}

TEST(NodeBatch, HostDownMidGrowthLeavesServiceDegraded) {
  Bed bed;
  bed.create("web", 1);  // seattle
  bed.hup.engine().run();
  ASSERT_TRUE(bed.created.ok());

  // Seattle grows in place to 2 units, then dies with them while web/1
  // primes on tacoma.
  bed.resize("web", 3);
  bed.run_for(sim::SimTime::seconds(1));
  ASSERT_EQ(bed.service()->lifecycle.state(), ServiceState::kResizing);
  bed.declare_down("seattle");

  bed.hup.engine().run();
  ASSERT_TRUE(bed.resized.ok());
  const ServiceRecord& record = *bed.service();
  EXPECT_EQ(record.lifecycle.state(), ServiceState::kDegraded);
  EXPECT_EQ(record.requirement.n, 3);
  ASSERT_EQ(record.nodes.size(), 1u);
  EXPECT_EQ(record.nodes.front().host_name, "tacoma");
  // The switch left its dead colocation node for the survivor.
  EXPECT_EQ(record.service_switch->listen_address(),
            record.nodes.front().address);
  bed.expect_clean();
}

TEST(NodeBatch, HostDownMidCreationLeavesServiceDegraded) {
  Bed bed;
  bed.create("web", 3);  // web/0 on seattle (2 units), web/1 on tacoma (1)
  ASSERT_TRUE(
      bed.advance_until([&] { return bed.service()->nodes.size() == 1; }));
  const std::string first = bed.service()->nodes.front().host_name;
  bed.declare_down(first);

  bed.hup.engine().run();
  ASSERT_TRUE(bed.created.ok());
  const ServiceRecord& record = *bed.service();
  EXPECT_EQ(record.lifecycle.state(), ServiceState::kDegraded);
  ASSERT_EQ(record.nodes.size(), 1u);
  EXPECT_NE(record.nodes.front().host_name, first);
  bed.expect_clean();
}

}  // namespace
}  // namespace soda::core
