// Tests for the scenario language: strict parsing, execution transcripts,
// and expectation verbs.
#include <gtest/gtest.h>

#include "scenario/scenario.hpp"

namespace soda::core {
namespace {

constexpr const char* kBaseSetup = R"(
# the paper testbed
host seattle 128.10.9.120
host tacoma  128.10.9.140
repo asp-repo
asp bioinfo key-123
publish web content-mb=8
)";

std::string with_base(const std::string& rest) {
  return std::string(kBaseSetup) + rest;
}

// ---------- Parsing ----------

TEST(ScenarioParse, AcceptsCommentsAndBlankLines) {
  const auto scenario = must(Scenario::parse("# hello\n\n  # more\nrepo r\n"));
  ASSERT_EQ(scenario.commands().size(), 1u);
  EXPECT_EQ(scenario.commands()[0].verb, "repo");
  EXPECT_EQ(scenario.commands()[0].line, 4);
}

TEST(ScenarioParse, RejectsUnknownVerbWithLineNumber) {
  const auto result = Scenario::parse("repo r\nfrobnicate x\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("line 2"), std::string::npos);
  EXPECT_NE(result.error().message.find("frobnicate"), std::string::npos);
}

TEST(ScenarioParse, RejectsWrongArity) {
  EXPECT_FALSE(Scenario::parse("host seattle\n").ok());          // too few
  EXPECT_FALSE(Scenario::parse("repo a b\n").ok());              // too many
  EXPECT_FALSE(Scenario::parse("create svc web\n").ok());        // missing n
  EXPECT_TRUE(Scenario::parse("host seattle 10.0.0.1 8\n").ok()); // optional ok
}

// ---------- Execution ----------

TEST(ScenarioRun, FullLifecycle) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=3
expect-services 1
expect-state web-content running
status web-content
resize web-content 2
billing bioinfo
teardown web-content
expect-services 0
)")));
  const auto transcript = must(scenario.run());
  // Transcript mentions the key effects in order.
  std::string joined;
  for (const auto& line : transcript) joined += line + "\n";
  EXPECT_NE(joined.find("host seattle joined"), std::string::npos);
  EXPECT_NE(joined.find("created web-content"), std::string::npos);
  EXPECT_NE(joined.find("resized web-content to n=2"), std::string::npos);
  EXPECT_NE(joined.find("instance-hours"), std::string::npos);
  EXPECT_NE(joined.find("tore down web-content"), std::string::npos);
}

TEST(ScenarioRun, TrafficRunsOpenLoopAndChecksP99) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=2
traffic web-content const:100x1,burst:300x0.5 bytes=2048 seed=7
expect-p99 web-content 5000
)")));
  const auto transcript = must(scenario.run());
  std::string joined;
  for (const auto& line : transcript) joined += line + "\n";
  EXPECT_NE(joined.find("traffic web-content:"), std::string::npos);
  EXPECT_NE(joined.find("scheduled"), std::string::npos);
  EXPECT_NE(joined.find("p99="), std::string::npos);
}

TEST(ScenarioRun, TrafficFailsWithoutServiceOrRun) {
  const auto no_service = must(Scenario::parse(with_base(R"(
traffic ghost const:100x1
)")));
  const auto result = no_service.run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("no running service"),
            std::string::npos);

  const auto no_run = must(Scenario::parse(with_base(R"(
create web-content web n=1
expect-p99 web-content 10
)")));
  EXPECT_FALSE(no_run.run().ok());
}

TEST(ScenarioRun, TrafficRejectsBadSpec) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=1
expect-error traffic web-content warp:9x9
)")));
  EXPECT_TRUE(scenario.run().ok());
}

TEST(ScenarioRun, ExpectP99FailureNamesNumbers) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=1
traffic web-content const:50x1
expect-p99 web-content 0.000001
)")));
  const auto result = scenario.run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("p99"), std::string::npos);
}

TEST(ScenarioRun, ExpectNodesCountsAggregatedNodes) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=3
expect-nodes web-content 1
)")));
  EXPECT_TRUE(scenario.run().ok());
}

TEST(ScenarioRun, FailedExpectationNamesLine) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=1
expect-nodes web-content 7
)")));
  const auto result = scenario.run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("expected 7 node(s)"), std::string::npos);
}

TEST(ScenarioRun, ExpectErrorInvertsFailure) {
  const auto scenario = must(Scenario::parse(with_base(R"(
expect-error create huge web n=99
expect-services 0
)")));
  EXPECT_TRUE(scenario.run().ok());
}

TEST(ScenarioRun, ExpectErrorFailsOnSuccess) {
  const auto scenario = must(Scenario::parse(with_base(R"(
expect-error create fine web n=1
)")));
  const auto result = scenario.run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("expected 'create' to fail"),
            std::string::npos);
}

TEST(ScenarioRun, ExpectErrorRefusesToWrapExpectations) {
  const auto scenario =
      must(Scenario::parse("expect-error expect-services 1\n"));
  EXPECT_FALSE(scenario.run().ok());
}

TEST(ScenarioRun, CreateWithoutPublishFails) {
  const auto scenario = must(Scenario::parse(
      "host seattle 10.0.0.1\nrepo r\nasp a k\ncreate svc web n=1\n"));
  const auto result = scenario.run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("not published"), std::string::npos);
}

TEST(ScenarioRun, PublishWithoutRepoFails) {
  const auto result = must(Scenario::parse("publish web\n")).run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("no repository"), std::string::npos);
}

TEST(ScenarioRun, UnknownImageKindFails) {
  const auto scenario = must(Scenario::parse(
      "host seattle 10.0.0.1\nrepo r\nasp a k\npublish warez\n"));
  EXPECT_FALSE(scenario.run().ok());
}

TEST(ScenarioRun, DuplicateHostSpecsGetUniqueNames) {
  const auto scenario = must(Scenario::parse(
      "host tacoma 10.0.0.1\nhost tacoma 10.0.1.1\nrepo r\nasp a k\n"
      "publish honeypot\ncreate a honeypot n=1\ncreate b honeypot n=1\n"
      "expect-services 2\n"));
  EXPECT_TRUE(scenario.run().ok());
}

/// The run's error for a script that fails; empty when it succeeds.
std::string run_error(const std::string& script) {
  const auto result = must(Scenario::parse(script)).run();
  return result.ok() ? "" : result.error().message;
}

TEST(ScenarioRun, HostPoolOverlappingAnEarlierHostFails) {
  const std::string message =
      run_error("host seattle 10.0.0.0 16\nhost tacoma 10.0.0.5 16\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("overlaps the pool of host seattle"),
            std::string::npos)
      << message;
  // Overlapping several pools names the earliest-registered of them.
  const std::string earliest = run_error(
      "host tacoma 10.0.0.32 16\nhost tacoma 10.0.0.0 16\n"
      "host seattle 10.0.0.8 64\n");
  EXPECT_NE(earliest.find("line 3"), std::string::npos) << earliest;
  EXPECT_NE(earliest.find("overlaps the pool of host tacoma"),
            std::string::npos)
      << earliest;
  EXPECT_EQ(earliest.find("tacoma-1"), std::string::npos) << earliest;
  // Adjacent pools do not overlap, and a refused host takes no name.
  const auto transcript = must(must(Scenario::parse(
      "host seattle 10.0.0.0 16\nhost tacoma 10.0.0.16 16\n"
      "expect-error host seattle 10.0.0.15 1\nhost seattle 10.0.1.0\n"))
                                   .run());
  ASSERT_FALSE(transcript.empty());
  EXPECT_EQ(transcript.back(), "host seattle-2 joined the HUP");
}

TEST(ScenarioRun, HostPoolOfNoAddressesFails) {
  const std::string message = run_error("repo r\nhost seattle 10.0.0.0 0\n");
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("pool size must be >= 1"), std::string::npos)
      << message;
}

TEST(ScenarioRun, HostPoolPastTheLastAddressFails) {
  const std::string message = run_error("host seattle 255.255.255.250 7\n");
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("runs past 255.255.255.255"), std::string::npos)
      << message;
  // A pool that ends exactly on the last address is fine.
  EXPECT_EQ(run_error("host seattle 255.255.255.250 6\n"), "");
}

TEST(ScenarioRun, ConfigVerbsBeforeHosts) {
  const auto scenario = must(Scenario::parse(R"(
mode proxying
placement best-fit
inflate 200
host seattle 128.10.9.120
repo r
asp a k
publish honeypot
create pot honeypot n=1
expect-state pot running
)"));
  EXPECT_TRUE(scenario.run().ok());
}

TEST(ScenarioRun, ConfigAfterHostFails) {
  const auto scenario = must(Scenario::parse(
      "host seattle 10.0.0.1\nmode proxying\n"));
  const auto result = scenario.run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("must precede"), std::string::npos);
}

TEST(ScenarioRun, BadConfigValuesFail) {
  EXPECT_FALSE(must(Scenario::parse("mode tunneling\n")).run().ok());
  EXPECT_FALSE(must(Scenario::parse("placement random\n")).run().ok());
  EXPECT_FALSE(must(Scenario::parse("inflate 50\n")).run().ok());
}

TEST(ScenarioRun, CrashProbeTraceRoundTrip) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=1
crash web-content 0
probe
trace web-content
)")));
  const auto transcript = must(scenario.run());
  std::string joined;
  for (const auto& line : transcript) joined += line + "\n";
  EXPECT_NE(joined.find("crashed guest web-content/0"), std::string::npos);
  EXPECT_NE(joined.find("health probe: 1 transition(s)"), std::string::npos);
  EXPECT_NE(joined.find("health-changed web-content/0: unhealthy"),
            std::string::npos);
  EXPECT_NE(joined.find("service-running web-content"), std::string::npos);
}

TEST(ScenarioParse, FaultVerbArity) {
  EXPECT_FALSE(Scenario::parse("slow-host h\n").ok());       // missing factor
  EXPECT_FALSE(Scenario::parse("lossy-link h\n").ok());      // missing factor
  EXPECT_FALSE(Scenario::parse("restore-host\n").ok());      // missing host
  EXPECT_FALSE(Scenario::parse("advance\n").ok());           // missing seconds
  EXPECT_TRUE(Scenario::parse("switch-policy s p seed=1\n").ok());
  EXPECT_FALSE(Scenario::parse("switch-policy s\n").ok());   // missing policy
}

TEST(ScenarioRun, FaultVerbsDriveHostUplinkAndRecovery) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=1
slow-host seattle 2.5
advance 1
restore-host seattle
lossy-link tacoma-1 0.25
switch-policy web-content random seed=9
crash-host tacoma-1
detect
)")));
  const auto transcript = must(scenario.run());
  std::string joined;
  for (const auto& line : transcript) joined += line + "\n";
  EXPECT_NE(joined.find("host seattle uplink x 2.5 (slow-host)"),
            std::string::npos);
  EXPECT_NE(joined.find("advanced to t="), std::string::npos);
  EXPECT_NE(joined.find("host seattle uplink restored"), std::string::npos);
  EXPECT_NE(joined.find("host tacoma-1 uplink x 0.25 (lossy-link)"),
            std::string::npos);
  EXPECT_NE(joined.find("switch policy of web-content = random"),
            std::string::npos);
  EXPECT_NE(joined.find("host tacoma-1 crashed"), std::string::npos);
  EXPECT_NE(joined.find("detect:"), std::string::npos);
}

TEST(ScenarioRun, FaultVerbsValidateArguments) {
  const auto scenario = must(Scenario::parse(with_base(R"(
expect-error slow-host seattle 0
expect-error lossy-link seattle -1
expect-error slow-host ghost 2
expect-error restore-host ghost
expect-error advance -1
expect-error switch-policy ghost random
create web-content web n=1
expect-error switch-policy web-content warp-drive
expect-error switch-policy web-content random speed=9
)")));
  EXPECT_TRUE(scenario.run().ok());
}

TEST(ScenarioRun, CrashUnknownNodeFails) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=1
crash web-content 7
)")));
  EXPECT_FALSE(scenario.run().ok());
}

TEST(ScenarioRun, PartitionedShopThroughTheDsl) {
  const auto scenario = must(Scenario::parse(with_base(R"(
publish shop
create online-shop shop n=4
expect-nodes online-shop 3
expect-state online-shop running
)")));
  EXPECT_TRUE(scenario.run().ok());
}

TEST(ScenarioRun, StatusShowsRunningVm) {
  const auto scenario = must(Scenario::parse(with_base(R"(
create web-content web n=1
status web-content
)")));
  const auto transcript = must(scenario.run());
  bool found = false;
  for (const auto& line : transcript) {
    if (line.find("vm=running") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace soda::core
