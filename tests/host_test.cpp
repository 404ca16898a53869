// Unit tests for resource vectors, machine configurations <n, M>, and the
// HUP host's slice accounting.
#include <gtest/gtest.h>

#include "host/host.hpp"
#include "host/resources.hpp"
#include "net/address.hpp"
#include "snapshot/format.hpp"

namespace soda::host {
namespace {

ResourceVector rv(double cpu, std::int64_t mem, std::int64_t disk, double bw) {
  return ResourceVector{cpu, mem, disk, bw};
}

// ---------- ResourceVector ----------

TEST(Resources, Arithmetic) {
  const auto a = rv(1000, 512, 2048, 50);
  const auto b = rv(500, 256, 1024, 10);
  EXPECT_EQ(a + b, rv(1500, 768, 3072, 60));
  EXPECT_EQ(a - b, rv(500, 256, 1024, 40));
  auto c = a;
  c += b;
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(Resources, ScaledMultipliesEveryComponent) {
  const auto m = rv(512, 256, 1024, 10).scaled(3);
  EXPECT_EQ(m, rv(1536, 768, 3072, 30));
  EXPECT_EQ(rv(100, 100, 100, 100).scaled(0), rv(0, 0, 0, 0));
}

TEST(Resources, FitsIsComponentWise) {
  const auto cap = rv(1000, 512, 2048, 100);
  EXPECT_TRUE(cap.fits(rv(1000, 512, 2048, 100)));
  EXPECT_TRUE(cap.fits(rv(0, 0, 0, 0)));
  EXPECT_FALSE(cap.fits(rv(1001, 0, 0, 0)));
  EXPECT_FALSE(cap.fits(rv(0, 513, 0, 0)));
  EXPECT_FALSE(cap.fits(rv(0, 0, 2049, 0)));
  EXPECT_FALSE(cap.fits(rv(0, 0, 0, 101)));
}

TEST(Resources, NonNegative) {
  EXPECT_TRUE(rv(0, 0, 0, 0).non_negative());
  EXPECT_FALSE(rv(-1, 0, 0, 0).non_negative());
  EXPECT_FALSE(rv(0, -1, 0, 0).non_negative());
}

TEST(Resources, ToStringReadable) {
  EXPECT_EQ(rv(512, 256, 1024, 10).to_string(),
            "cpu=512MHz mem=256MB disk=1024MB bw=10.0Mbps");
}

// ---------- MachineConfig / ResourceRequirement ----------

TEST(MachineConfig, Table1ExampleValues) {
  const auto m = MachineConfig::table1_example();
  EXPECT_DOUBLE_EQ(m.cpu_mhz, 512);
  EXPECT_EQ(m.memory_mb, 256);
  EXPECT_EQ(m.disk_mb, 1024);
  EXPECT_DOUBLE_EQ(m.bandwidth_mbps, 10);
}

TEST(MachineConfig, TimesScalesUnits) {
  const auto m = MachineConfig::table1_example();
  EXPECT_EQ(m.times(1), m.to_vector());
  EXPECT_EQ(m.times(3), m.to_vector().scaled(3));
}

TEST(Requirement, TotalAndToString) {
  const ResourceRequirement req{3, MachineConfig::table1_example()};
  EXPECT_EQ(req.total(), req.m.times(3));
  EXPECT_EQ(req.to_string(), "<3, cpu=512MHz mem=256MB disk=1024MB bw=10.0Mbps>");
}

// ---------- HostSpec ----------

TEST(HostSpec, PaperTestbedMachines) {
  const auto seattle = HostSpec::seattle();
  EXPECT_DOUBLE_EQ(seattle.cpu_ghz, 2.6);
  EXPECT_EQ(seattle.ram_mb, 2048);
  const auto tacoma = HostSpec::tacoma();
  EXPECT_DOUBLE_EQ(tacoma.cpu_ghz, 1.8);
  EXPECT_EQ(tacoma.ram_mb, 768);
  EXPECT_GT(seattle.disk_mb_s, tacoma.disk_mb_s);
}

TEST(HostSpec, CapacityVector) {
  const auto cap = HostSpec::seattle().capacity();
  EXPECT_DOUBLE_EQ(cap.cpu_mhz, 2600);
  EXPECT_EQ(cap.memory_mb, 2048);
  EXPECT_DOUBLE_EQ(cap.bandwidth_mbps, 100);
}

// ---------- HupHost slices ----------

HupHost make_host() {
  return HupHost(HostSpec::tacoma(), net::NodeId{0},
                 net::IpPool(net::Ipv4Address(10, 0, 0, 1), 8));
}

TEST(HupHost, ReserveReducesAvailability) {
  auto host = make_host();
  const auto before = host.available();
  const auto slice = must(host.reserve("svc", rv(500, 128, 1024, 10)));
  EXPECT_TRUE(slice.valid());
  EXPECT_EQ(host.available(), before - rv(500, 128, 1024, 10));
  EXPECT_EQ(host.reserved(), rv(500, 128, 1024, 10));
  EXPECT_EQ(host.slices().size(), 1u);
}

TEST(HupHost, ReportsEachReservationChangeOnceUntilDrained) {
  auto changes = std::make_shared<HostChanges>();
  auto a = make_host();
  auto b = make_host();
  a.report_changes(changes, 0);
  b.report_changes(changes, 1);
  const auto drain = [&changes] {
    std::vector<std::uint32_t> keys;
    changes->drain([&keys](std::uint32_t key) { keys.push_back(key); });
    return keys;
  };
  using Keys = std::vector<std::uint32_t>;
  EXPECT_EQ(drain(), Keys{});
  const auto slice = must(b.reserve("svc", rv(500, 128, 1024, 10)));
  must(a.reserve("svc", rv(500, 128, 1024, 10)));
  must(b.resize(slice, rv(700, 128, 1024, 10)));
  EXPECT_EQ(drain(), (Keys{1, 0}));  // listing order, b once
  must(b.release(slice));
  EXPECT_EQ(drain(), Keys{1});
  // A refused reservation, resize or release leaves reserved() alone.
  EXPECT_FALSE(a.reserve("svc", rv(5000, 0, 0, 0)).ok());
  EXPECT_FALSE(b.resize(slice, rv(1, 0, 0, 0)).ok());
  EXPECT_FALSE(b.release(slice).ok());
  EXPECT_EQ(drain(), Keys{});
  // A snapshot load replaces reserved() wholesale.
  snapshot::Writer writer;
  writer.walk(a);
  const std::string bytes = writer.finish();
  snapshot::Reader reader(bytes);
  reader.walk(b);
  ASSERT_TRUE(reader.status().ok()) << reader.error();
  EXPECT_EQ(b.reserved(), a.reserved());
  EXPECT_EQ(drain(), Keys{1});
}

TEST(HupHost, OvercommitRejected) {
  auto host = make_host();
  EXPECT_FALSE(host.reserve("svc", rv(5000, 0, 0, 0)).ok());   // > 1800 MHz
  EXPECT_FALSE(host.reserve("svc", rv(0, 10000, 0, 0)).ok());  // > 768 MB
  EXPECT_EQ(host.slices().size(), 0u);
}

TEST(HupHost, SequentialReservationsUntilFull) {
  auto host = make_host();
  must(host.reserve("a", rv(900, 300, 1000, 40)));
  must(host.reserve("b", rv(900, 300, 1000, 40)));
  EXPECT_FALSE(host.reserve("c", rv(900, 300, 1000, 40)).ok());  // CPU gone
}

TEST(HupHost, ReleaseRestoresAvailability) {
  auto host = make_host();
  const auto cap = host.capacity();
  const auto slice = must(host.reserve("svc", rv(500, 128, 1024, 10)));
  must(host.release(slice));
  EXPECT_EQ(host.available(), cap);
  EXPECT_FALSE(host.release(slice).ok());  // double release fails
}

TEST(HupHost, ResizeGrowAndShrink) {
  auto host = make_host();
  const auto slice = must(host.reserve("svc", rv(500, 128, 1024, 10)));
  must(host.resize(slice, rv(1000, 256, 2048, 20)));
  EXPECT_EQ(host.reserved(), rv(1000, 256, 2048, 20));
  must(host.resize(slice, rv(250, 64, 512, 5)));
  EXPECT_EQ(host.reserved(), rv(250, 64, 512, 5));
}

TEST(HupHost, ResizeBeyondCapacityRejected) {
  auto host = make_host();
  const auto slice = must(host.reserve("svc", rv(500, 128, 1024, 10)));
  EXPECT_FALSE(host.resize(slice, rv(5000, 128, 1024, 10)).ok());
  // Original reservation intact after the failed resize.
  EXPECT_EQ(host.reserved(), rv(500, 128, 1024, 10));
}

TEST(HupHost, ResizeAccountsForOwnCurrentSlice) {
  auto host = make_host();  // 1800 MHz total
  const auto slice = must(host.reserve("svc", rv(1500, 128, 1024, 10)));
  // Growing to 1700 fits only because the slice's own 1500 is headroom.
  EXPECT_TRUE(host.resize(slice, rv(1700, 128, 1024, 10)).ok());
}

TEST(HupHost, FindSliceAndMissing) {
  auto host = make_host();
  const auto slice = must(host.reserve("svc-x", rv(100, 64, 100, 1)));
  ASSERT_TRUE(host.find_slice(slice).has_value());
  EXPECT_EQ(host.find_slice(slice)->service_name, "svc-x");
  EXPECT_FALSE(host.find_slice(SliceId{999}).has_value());
  EXPECT_FALSE(host.resize(SliceId{999}, rv(1, 1, 1, 1)).ok());
}

TEST(HupHost, BridgeIsCreatedOnDemandAndStable) {
  auto host = make_host();
  net::Bridge& bridge = host.bridge();
  EXPECT_EQ(&bridge, &host.bridge());
  EXPECT_EQ(bridge.host_name(), "tacoma");
  EXPECT_EQ(bridge.uplink().value, 0u);
}

TEST(HupHost, MultipleServicesTracked) {
  auto host = make_host();
  must(host.reserve("a", rv(100, 64, 100, 1)));
  must(host.reserve("b", rv(100, 64, 100, 1)));
  EXPECT_EQ(host.slices().size(), 2u);
  EXPECT_EQ(host.slices()[0].service_name, "a");
  EXPECT_EQ(host.slices()[1].service_name, "b");
}

}  // namespace
}  // namespace soda::host
