// Versioned world snapshots (DESIGN.md §14): format primitives, per-
// subsystem round trips, and the end-to-end gate — save → load → continue
// must be bit-identical (FNV digest of the snapshot bytes) to an
// uninterrupted run.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/checkpoint.hpp"
#include "core/hup.hpp"
#include "sim/streaming_stats.hpp"
#include "core/switch.hpp"
#include "image/image.hpp"
#include "image/repository.hpp"
#include "snapshot/format.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"

namespace soda {
namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

// --- Format primitives ------------------------------------------------------

TEST(SnapshotFormat, PrimitivesRoundTrip) {
  snapshot::Writer writer;
  writer.begin_section("test");
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.i64(-42);
  writer.f64(3.14159);
  writer.boolean(true);
  writer.str("hello, snapshot");
  writer.time(sim::SimTime::milliseconds(250));
  writer.end_section();
  const std::string bytes = writer.finish();

  snapshot::Reader reader(bytes);
  reader.begin_section("test");
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f64(), 3.14159);
  EXPECT_TRUE(reader.boolean());
  EXPECT_EQ(reader.str(), "hello, snapshot");
  EXPECT_EQ(reader.time(), sim::SimTime::milliseconds(250));
  reader.end_section();
  EXPECT_TRUE(reader.ok()) << reader.error();
}

TEST(SnapshotFormat, SectionNameMismatchFails) {
  snapshot::Writer writer;
  writer.begin_section("alpha");
  writer.u32(1);
  writer.end_section();
  const std::string bytes = writer.finish();

  snapshot::Reader reader(bytes);
  reader.begin_section("beta");
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("alpha"), std::string::npos);
}

TEST(SnapshotFormat, UnderconsumedSectionFails) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.u32(1);
  writer.u32(2);
  writer.end_section();
  const std::string bytes = writer.finish();

  snapshot::Reader reader(bytes);
  reader.begin_section("s");
  reader.u32();  // one of two words
  reader.end_section();
  EXPECT_FALSE(reader.ok());
}

TEST(SnapshotFormat, ChecksumCorruptionDetected) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.u64(7);
  writer.end_section();
  std::string bytes = writer.finish();
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit

  snapshot::Reader reader(bytes);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("checksum"), std::string::npos);
}

TEST(SnapshotFormat, VersionSkewRejected) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.end_section();
  std::string bytes = writer.finish();
  // The version word sits right after the 8-byte magic; recompute the
  // trailing checksum so ONLY the version is wrong.
  bytes[8] = static_cast<char>(snapshot::kFormatVersion + 1);
  const std::string_view payload(bytes.data(), bytes.size() - 8);
  const std::uint64_t sum = snapshot::fnv1a(payload);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  }

  snapshot::Reader reader(bytes);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("version"), std::string::npos);
}

void write_le(std::string& bytes, std::size_t at, std::uint64_t value,
              int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

/// Recomputes the trailing checksum over everything before it.
void reseal(std::string& bytes) {
  write_le(bytes, bytes.size() - 8,
           snapshot::fnv1a(std::string_view(bytes.data(), bytes.size() - 8)),
           8);
}

/// A minimal shared object for the format tests: one section, one string.
struct Blob {
  static constexpr std::string_view kSection = "blob";
  std::string text;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section(kSection);
    ar.str(text);
    ar.end_section();
  }
};

/// Two owners of `first` and one of `second`, saved through ar.shared.
std::string save_owners(const std::shared_ptr<const Blob>& first,
                        const std::shared_ptr<const Blob>& second) {
  snapshot::Writer writer;
  writer.begin_section("owners");
  writer.shared(first);
  writer.shared(first);
  writer.shared(second);
  writer.end_section();
  return writer.finish();
}

struct Owners {
  std::shared_ptr<const Blob> a, b, c;
};

Result<Owners> load_owners(const std::string& bytes) {
  snapshot::Reader reader(bytes);
  Owners owners;
  reader.begin_section("owners");
  reader.shared(owners.a);
  reader.shared(owners.b);
  reader.shared(owners.c);
  reader.end_section();
  if (!reader.ok()) return Error{reader.error()};
  return owners;
}

/// Offset of the `n`th (0-based) occurrence of `section`'s header.
std::size_t nth_section(const std::string& bytes, std::string_view section,
                        int n) {
  std::string header{static_cast<char>(section.size()), '\0'};
  header += section;
  std::size_t at = bytes.find(header);
  for (int i = 0; i < n && at != std::string::npos; ++i) {
    at = bytes.find(header, at + 1);
  }
  EXPECT_NE(at, std::string::npos) << "no section '" << section << "' #" << n;
  return at;
}

TEST(SnapshotFormat, SharedObjectIsWrittenAsItsSectionAndParsedOnce) {
  const auto shared = std::make_shared<const Blob>(Blob{"one tree"});
  const auto other = std::make_shared<const Blob>(Blob{"another"});
  const std::string bytes = save_owners(shared, other);

  // Every owner's bytes are the object's own section, as a walk writes it.
  snapshot::Writer walked;
  walked.begin_section("owners");
  walked.walk(*shared);
  walked.walk(*shared);
  walked.walk(*other);
  walked.end_section();
  EXPECT_EQ(bytes, walked.finish());

  // Equal sections load as one object; a different one as its own.
  const Owners owners = must(load_owners(bytes));
  EXPECT_EQ(owners.a, owners.b);
  EXPECT_NE(owners.a, owners.c);
  EXPECT_EQ(owners.a->text, "one tree");
  EXPECT_EQ(owners.c->text, "another");
}

TEST(SnapshotFormat, SharedSectionsDifferingInOneByteLoadTwoObjects) {
  const auto shared = std::make_shared<const Blob>(Blob{"one tree"});
  std::string bytes = save_owners(shared, shared);
  // The second owner's copy: "one tree" -> "One tree".
  const std::size_t second = nth_section(bytes, Blob::kSection, 1);
  const std::size_t text = second + 2 + Blob::kSection.size() + 8 + 4;
  ASSERT_EQ(bytes[text], 'o');
  bytes[text] = 'O';
  reseal(bytes);

  const Owners owners = must(load_owners(bytes));
  EXPECT_NE(owners.a, owners.b);
  EXPECT_EQ(owners.a, owners.c);  // the third still equals the first
  EXPECT_EQ(owners.a->text, "one tree");
  EXPECT_EQ(owners.b->text, "One tree");
}

TEST(SnapshotFormat, SharedSectionUnderTheWrongNameFails) {
  const auto shared = std::make_shared<const Blob>(Blob{"one tree"});
  std::string bytes = save_owners(shared, shared);
  // Rename the second copy's section: a shared section is framed before
  // it is matched, so the load fails on the name.
  const std::size_t second = nth_section(bytes, Blob::kSection, 1);
  bytes[second + 2] = 'g';
  reseal(bytes);
  const auto loaded = load_owners(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("expected section 'blob'"),
            std::string::npos)
      << loaded.error().message;
}

TEST(SnapshotFormat, TruncationDetected) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.str("some payload to make the snapshot non-trivial");
  writer.end_section();
  const std::string bytes = writer.finish();
  snapshot::Reader reader(std::string_view(bytes).substr(0, bytes.size() / 2));
  EXPECT_FALSE(reader.ok());
}

// --- World round trips ------------------------------------------------------

core::ApiResult<core::ServiceCreationReply> create_service(
    core::Hup& hup, const image::ImageLocation& loc, const std::string& name,
    int n, host::MachineConfig m = {}) {
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = name;
  request.image_location = loc;
  request.requirement = {n, m};
  core::ApiResult<core::ServiceCreationReply> out =
      core::ApiError{core::ApiErrorCode::kInternal, "never fired"};
  hup.agent().service_creation(
      request, [&](auto reply, sim::SimTime) { out = std::move(reply); });
  hup.engine().run();
  return out;
}

/// Restores `bytes` into a bare Hup constructed with the same config as the
/// saved world (hosts, repositories, and clients come from the snapshot —
/// the restore target must be fresh).
std::unique_ptr<core::Hup> restore_world(const std::string& bytes,
                                         core::MasterConfig config = {}) {
  auto hup = std::make_unique<core::Hup>(config);
  must(hup->load_snapshot(bytes));
  return hup;
}

TEST(SnapshotWorld, EmptyWorldRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));
}

TEST(SnapshotWorld, RunningServiceRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));

  // The restored service is fully live: nodes found, switch routable,
  // billing ledger intact.
  core::Hup& hup = *restored;
  const core::ServiceRecord* record = hup.master().find_service("web");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lifecycle.state(), core::ServiceState::kRunning);
  ASSERT_FALSE(record->nodes.empty());
  EXPECT_NE(hup.find_daemon(record->nodes[0].host_name), nullptr);
  EXPECT_NE(
      hup.find_daemon(record->nodes[0].host_name)->find_node("web/0"),
      nullptr);
  EXPECT_EQ(hup.agent().billing().entries().size(), 1u);
  EXPECT_TRUE(hup.agent().billing().entries()[0].open());
}

TEST(SnapshotWorld, ContinuationIsBitIdentical) {
  // The gate: run A to t0, snapshot, run A on to t1. Restore B from the
  // snapshot, run B to t1. Digests at t1 must match bit for bit.
  auto make_world = [] {
    auto tb = core::Hup::paper_testbed();
    tb.hup->agent().register_asp("asp", "key");
    return tb;
  };
  auto tb = make_world();
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));
  tb.hup->enable_failure_detection();
  const sim::SimTime t0 = tb.hup->engine().now() + sim::SimTime::seconds(2);
  tb.hup->engine().run_until(t0);

  const auto bytes = must(tb.hup->save_snapshot());

  // Continue the original with a mid-flight host failure + recovery.
  tb.hup->crash_host("tacoma");
  tb.hup->engine().run_until(t0 + sim::SimTime::seconds(3));
  tb.hup->recover_host("tacoma");
  tb.hup->engine().run_until(t0 + sim::SimTime::seconds(8));
  const std::uint64_t original = must(tb.hup->state_digest());

  // Restore and replay the same continuation.
  auto restored = restore_world(bytes);
  restored->crash_host("tacoma");
  restored->engine().run_until(t0 + sim::SimTime::seconds(3));
  restored->recover_host("tacoma");
  restored->engine().run_until(t0 + sim::SimTime::seconds(8));
  EXPECT_EQ(must(restored->state_digest()), original);
}

TEST(SnapshotWorld, DegradedServiceRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));
  tb.hup->enable_failure_detection();
  tb.hup->crash_host("tacoma");
  // Let the detector declare the host dead (recovery may be partial — that
  // is the point: a degraded world must checkpoint too).
  const sim::SimTime t0 = tb.hup->engine().now() + sim::SimTime::seconds(3);
  tb.hup->engine().run_until(t0);
  ASSERT_TRUE(tb.hup->master().host_down("tacoma"));

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));
  EXPECT_TRUE(restored->master().host_down("tacoma"));

  // Both worlds continue identically through the host's return.
  tb.hup->recover_host("tacoma");
  restored->recover_host("tacoma");
  tb.hup->engine().run_until(t0 + sim::SimTime::seconds(5));
  restored->engine().run_until(t0 + sim::SimTime::seconds(5));
  EXPECT_EQ(must(restored->state_digest()), must(tb.hup->state_digest()));
}

TEST(SnapshotWorld, WarmImageCacheRoundTrip) {
  core::MasterConfig config;
  config.distribution.enabled = true;
  auto tb = core::Hup::paper_testbed(config);
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(8 * kMiB)));
  Status warmed = Error{"never fired"};
  tb.hup->master().warm_hosts(loc, {"seattle", "tacoma"},
                              [&](Status s, sim::SimTime) { warmed = s; });
  tb.hup->engine().run();
  must(warmed);

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes, config);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));

  // The warmed cache survives: creating the service on the restored world
  // must hit the chunk caches, not the origin.
  must(create_service(*restored, loc, "web", 2));
  const auto& dist = restored->find_daemon("seattle")->distributor();
  EXPECT_GT(dist.chunks_from_cache(), 0u);
}

TEST(SnapshotWorld, MismatchedConfigRejected) {
  auto tb = core::Hup::paper_testbed();
  const auto bytes = must(tb.hup->save_snapshot());

  core::MasterConfig other;
  other.slowdown_factor = 2.0;
  core::Hup fresh(other);
  const Status status = fresh.load_snapshot(bytes);
  ASSERT_FALSE(status);
  EXPECT_NE(status.error().message.find("config mismatch"), std::string::npos);
}

TEST(SnapshotWorld, NonQuiescedWorldRefusesToSave) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = loc;
  request.requirement = {1, {}};
  tb.hup->agent().service_creation(request, [](auto, sim::SimTime) {});
  // Mid-priming: downloads and boots are in flight — not checkpointable.
  const Result<std::string> bytes = tb.hup->save_snapshot();
  ASSERT_FALSE(bytes);
  EXPECT_NE(bytes.error().message.find("not quiesced"), std::string::npos);
}

TEST(SnapshotWorld, FileRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  const std::string path = ::testing::TempDir() + "soda_world.snap";
  must(tb.hup->save_snapshot_file(path));
  core::Hup restored;
  must(restored.load_snapshot_file(path));
  EXPECT_EQ(must(restored.state_digest()), must(tb.hup->state_digest()));
}

TEST(SnapshotWorld, MidBatchRoundTrip) {
  // Checkpoint between two creations of a rollout batch: the first service
  // is live, the second not yet requested. Both worlds then run the same
  // second creation and must land bit-identical — a checkpoint mid-rollout
  // is a usable branch point.
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);

  must(create_service(*tb.hup, loc, "api", 1));
  must(create_service(*restored, loc, "api", 1));
  EXPECT_EQ(must(restored->state_digest()), must(tb.hup->state_digest()));
  EXPECT_EQ(restored->agent().billing().entries().size(), 2u);
}

TEST(SnapshotWorld, GoldenCheckpointStillLoads) {
  // Differential regression: a checkpoint written by THIS format version is
  // committed in tests/seeds/. It must keep loading, and its digest must
  // stay pinned — any accidental format or serialization-order change
  // breaks this test before it breaks someone's saved world.
  core::Hup restored;
  const Status loaded = restored.load_snapshot_file(SODA_GOLDEN_SNAPSHOT);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(must(restored.state_digest()), SODA_GOLDEN_DIGEST);

  // The golden world is the paper testbed with one running service; prove
  // it is alive, not just parseable.
  const core::ServiceRecord* record = restored.master().find_service("web");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lifecycle.state(), core::ServiceState::kRunning);
}

TEST(SnapshotWorld, StateDigestIsTheDigestOfTheSavedBytes) {
  // state_digest derives the digest from the checksum instead of hashing
  // the saved bytes again; it must still be exactly their FNV-1a.
  core::Hup restored;
  must(restored.load_snapshot_file(SODA_GOLDEN_SNAPSHOT));
  const std::string bytes = must(restored.save_snapshot());
  EXPECT_EQ(snapshot::fnv1a(bytes), SODA_GOLDEN_DIGEST);
  EXPECT_EQ(must(restored.state_digest()), snapshot::fnv1a(bytes));
  EXPECT_EQ(snapshot::digest(bytes), snapshot::fnv1a(bytes));
}

/// The distinct rootfs trees the nodes of `services` boot.
std::set<const os::RootFs*> distinct_trees(
    core::Hup& hup, const std::vector<std::string>& services) {
  std::set<const os::RootFs*> trees;
  for (const std::string& service : services) {
    const core::ServiceRecord* record = hup.master().find_service(service);
    EXPECT_NE(record, nullptr) << service;
    if (record == nullptr) continue;
    for (const core::NodeDescriptor& node : record->nodes) {
      trees.insert(&hup.find_daemon(node.host_name)
                        ->find_node(node.node_name)
                        ->uml()
                        .rootfs());
    }
  }
  return trees;
}

TEST(SnapshotWorld, SharedTreesStaySharedThroughALoad) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto web = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  const auto pot = must(tb.repo->publish(image::honeypot_image()));
  must(create_service(*tb.hup, web, "web", 2));
  must(create_service(*tb.hup, web, "api", 1));
  must(create_service(*tb.hup, pot, "pot", 1));
  const std::vector<std::string> services = {"web", "api", "pot"};
  ASSERT_EQ(distinct_trees(*tb.hup, services).size(), 2u);

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);
  EXPECT_EQ(distinct_trees(*restored, services).size(), 2u);
  EXPECT_EQ(must(restored->save_snapshot()), bytes);
}

TEST(SnapshotWorld, RootfsSectionsDifferingInOneByteLoadTwoTrees) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto web = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, web, "web", 1));
  must(create_service(*tb.hup, web, "api", 1));
  ASSERT_EQ(distinct_trees(*tb.hup, {"web", "api"}).size(), 1u);
  std::string bytes = must(tb.hup->save_snapshot());

  // The second guest's copy of the tree: first letter of its template name.
  const std::size_t second = nth_section(bytes, os::RootFs::kSection, 1);
  const std::size_t name = second + 2 + os::RootFs::kSection.size() + 8 + 4;
  ASSERT_EQ(bytes[name], 'r');
  bytes[name] = 'R';
  reseal(bytes);

  auto restored = restore_world(bytes);
  const auto trees = distinct_trees(*restored, {"web", "api"});
  ASSERT_EQ(trees.size(), 2u);
  std::set<char> initials;
  for (const os::RootFs* tree : trees) {
    initials.insert(tree->template_name.front());
  }
  EXPECT_EQ(initials, (std::set<char>{'r', 'R'}));
}

// --- Hostile fields ----------------------------------------------------------
//
// Each case corrupts one field a restore relies on (an index, a count, a
// divisor, a due time) in a valid snapshot, re-seals the checksum (as
// VersionSkewRejected does) so only that field is wrong, and requires the
// load to fail with a Status. Without the Reader's checks each would load
// and then crash on first use.

/// Offset of the first payload byte of the first section named `name`.
std::size_t section_payload(const std::string& bytes, std::string_view name) {
  std::string header{static_cast<char>(name.size()), '\0'};
  header += name;
  const std::size_t at = bytes.find(header);
  EXPECT_NE(at, std::string::npos) << "no section '" << name << "'";
  return at + header.size() + 8;  // past the u64 length
}

std::uint64_t read_le(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 bytes[at + static_cast<std::size_t>(i)]))
             << (8 * i);
  }
  return value;
}

/// Overwrites a little-endian field and re-seals the snapshot.
void patch(std::string& bytes, std::size_t at, std::uint64_t value,
           int width) {
  write_le(bytes, at, value, width);
  reseal(bytes);
}

/// The paper testbed with "web" torn down and "api" running, both placed on
/// seattle, so seattle and the service table each hold a live and a free
/// slot.
std::string world_with_free_slots() {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 1));
  must(create_service(*tb.hup, loc, "api", 1));
  must(tb.hup->agent().service_teardown({{"asp", "key"}, "web"}));
  tb.hup->engine().run();
  return must(tb.hup->save_snapshot());
}

void expect_rejected(const std::string& bytes) {
  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("out of range"), std::string::npos)
      << status.error().message;
}

/// The first host's slot count, its last live slot, and the offset of its
/// free list. host: reserved (32 B), slot count, per slot {resources 32 B,
/// service string, u32 generation, u8 live}, then the free list.
struct HostSlots {
  std::uint64_t slots = 0;
  std::uint64_t live_slot = 0;
  std::size_t free_list = 0;
};
HostSlots host_slots(const std::string& bytes) {
  HostSlots out;
  const std::size_t host = section_payload(bytes, "host");
  out.slots = read_le(bytes, host + 32, 8);
  std::size_t at = host + 40;
  for (std::uint64_t i = 0; i < out.slots; ++i) {
    at += 32;
    at += 4 + read_le(bytes, at, 4) + 4;
    if (read_le(bytes, at, 1) != 0) out.live_slot = i;
    at += 1;
  }
  out.free_list = at;
  return out;
}

TEST(SnapshotHostile, HostFreeSlotOutOfRange) {
  std::string bytes = world_with_free_slots();
  const HostSlots host = host_slots(bytes);
  ASSERT_GE(read_le(bytes, host.free_list, 8), 1u);
  patch(bytes, host.free_list + 8, host.slots + 5, 4);
  expect_rejected(bytes);
}

TEST(SnapshotHostile, HostFreeSlotStillLive) {
  std::string bytes = world_with_free_slots();
  const HostSlots host = host_slots(bytes);
  ASSERT_GE(read_le(bytes, host.free_list, 8), 1u);
  patch(bytes, host.free_list + 8, host.live_slot, 4);
  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("live host slot"), std::string::npos)
      << status.error().message;
}

TEST(SnapshotHostile, StatsRingHeadOutOfRange) {
  sim::StreamingStats stats;
  for (int i = 0; i < 20; ++i) {
    stats.record_latency(sim::SimTime::milliseconds(300 * i), 0.01);
  }
  snapshot::Writer writer;
  writer.walk(stats);
  std::string bytes = writer.finish();
  // streaming_stats: ring size, then the head index.
  const std::size_t at = section_payload(bytes, "streaming_stats");
  patch(bytes, at + 8, read_le(bytes, at, 8), 8);

  sim::StreamingStats restored;
  snapshot::Reader reader(bytes);
  reader.walk(restored);
  EXPECT_FALSE(reader.status().ok());
  EXPECT_NE(reader.error().find("out of range"), std::string::npos)
      << reader.error();
}

TEST(SnapshotHostile, ServiceTableFreeSlotOutOfRange) {
  std::string bytes = world_with_free_slots();
  // service_table: slot count, free count, then the free slots.
  const std::size_t table = section_payload(bytes, "service_table");
  ASSERT_GE(read_le(bytes, table + 8, 8), 1u);
  patch(bytes, table + 16, read_le(bytes, table, 8) + 3, 4);
  expect_rejected(bytes);
}

TEST(SnapshotHostile, ServiceSlotOfIdOutOfRange) {
  std::string bytes = world_with_free_slots();
  // slot_of_id_ closes the service_table section: its last u32 is the slot
  // of the newest service id ("api", live).
  const std::size_t table = section_payload(bytes, "service_table");
  const std::uint64_t length = read_le(bytes, table - 8, 8);
  patch(bytes, table + length - 4, read_le(bytes, table, 8) + 7, 4);
  expect_rejected(bytes);
}

/// The paper testbed with failure detection armed and a few ticks run, so
/// the detector wheel holds host ids.
std::string world_with_detector() {
  auto tb = core::Hup::paper_testbed();
  tb.hup->enable_failure_detection();
  tb.hup->engine().run_until(sim::SimTime::seconds(2));
  return must(tb.hup->save_snapshot());
}

TEST(SnapshotHostile, RecoveryWheelHostIdOutOfRange) {
  std::string bytes = world_with_detector();
  // recovery: enabled, running, interval, timeout, host count, deadlines,
  // in-wheel flags, then the buckets (count, each a count of u32 host ids).
  const std::size_t recovery = section_payload(bytes, "recovery");
  const std::uint64_t hosts = read_le(bytes, recovery + 18, 8);
  std::size_t at = recovery + 26 + hosts * 9;
  std::uint64_t buckets = read_le(bytes, at, 8);
  at += 8;
  for (; buckets > 0 && read_le(bytes, at, 8) == 0; --buckets) at += 8;
  ASSERT_GT(buckets, 0u) << "no hung host to corrupt";
  patch(bytes, at + 8, hosts + 4, 4);
  expect_rejected(bytes);
}

TEST(SnapshotHostile, RecoveryWheelWithoutBuckets) {
  std::string bytes = world_with_detector();
  const std::size_t recovery = section_payload(bytes, "recovery");
  const std::uint64_t hosts = read_le(bytes, recovery + 18, 8);
  // Empty the wheel and cut its buckets out, shrinking every enclosing
  // section, so the framing stays valid and only the bucket count is wrong.
  const std::size_t wheel = recovery + 26 + hosts * 9;
  std::size_t end = wheel + 8;
  for (std::uint64_t i = read_le(bytes, wheel, 8); i > 0; --i) {
    end += 8 + 4 * read_le(bytes, end, 8);
  }
  const std::size_t cut = end - (wheel + 8);
  for (const char* section : {"hup", "master", "recovery"}) {
    const std::size_t length_at = section_payload(bytes, section) - 8;
    write_le(bytes, length_at, read_le(bytes, length_at, 8) - cut, 8);
  }
  write_le(bytes, wheel, 0, 8);
  bytes.erase(wheel + 8, cut);
  reseal(bytes);

  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("no buckets"), std::string::npos)
      << status.error().message;
}

TEST(SnapshotHostile, RecoveryHeartbeatIntervalOutOfRange) {
  std::string bytes = world_with_detector();
  const std::size_t recovery = section_payload(bytes, "recovery");
  patch(bytes, recovery + 2, 0, 8);
  expect_rejected(bytes);
}

TEST(SnapshotHostile, TimerDueBeforeRestoredClock) {
  std::string bytes = world_with_detector();
  // timers: count, then per timer {u8 kind, owner string, i64 due time}.
  const std::size_t timers = section_payload(bytes, "timers");
  ASSERT_GE(read_le(bytes, timers, 8), 1u);
  const std::size_t owner = timers + 8 + 1;
  patch(bytes, owner + 4 + read_le(bytes, owner, 4), 0, 8);
  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("before the restored clock"),
            std::string::npos)
      << status.error().message;
}

TEST(SnapshotHostile, RootfsEnablingAnUnknownServiceFails) {
  std::string bytes = world_with_free_slots();
  // rootfs: template name, the filesystem section, then the enabled
  // services (count, strings). Rename the first service: the load seals
  // the tree it parses, and the catalog has no such service.
  const std::size_t rootfs = section_payload(bytes, os::RootFs::kSection);
  const std::size_t fs = rootfs + 4 + read_le(bytes, rootfs, 4);
  const std::size_t fs_length_at = fs + 2 + read_le(bytes, fs, 2);
  const std::size_t services =
      fs_length_at + 8 + read_le(bytes, fs_length_at, 8);
  ASSERT_GE(read_le(bytes, services, 8), 1u);
  const std::size_t first = services + 8 + 4;
  bytes[first] = '?';
  reseal(bytes);
  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("rootfs enables an unknown service"),
            std::string::npos)
      << status.error().message;
}

TEST(SnapshotHostile, ImagePayloadSizeOutOfRange) {
  // A restored image's manifest is built from its payload size, so a load
  // must refuse a size that would make the manifest unbounded.
  image::ImageRepository repo("asp-repo", net::NodeId{1});
  must(repo.publish(
      image::ServiceImageBuilder("img").add_file("/f", 10).build()));
  snapshot::Writer writer;
  writer.walk(repo);
  std::string bytes = writer.finish();
  // filesystem: the root directory (type, size, child count), the child's
  // name "f", then the file's type and its size.
  const std::size_t fs = section_payload(bytes, "filesystem");
  const std::size_t size_at = fs + 1 + 8 + 8 + 4 + 1 + 1;
  ASSERT_EQ(read_le(bytes, size_at, 8), 10u);
  patch(bytes, size_at, std::uint64_t{1} << 62, 8);

  image::ImageRepository restored;
  snapshot::Reader reader(bytes);
  reader.walk(restored);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("image payload size out of range"),
            std::string::npos)
      << reader.error();
}

/// Two hosts under names of one length, "host-a" and "host-b", with "web"
/// on one node, so a patch can repeat or swap the names in place.
std::string world_with_two_hosts() {
  core::Hup hup;
  for (const char* name : {"host-a", "host-b"}) {
    host::HostSpec spec = host::HostSpec::seattle();
    spec.name = name;
    const std::uint8_t first = name[5] == 'a' ? 16 : 32;
    hup.add_host(spec, net::Ipv4Address(10, 0, 0, first), 16);
  }
  image::ImageRepository& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto loc = must(repo.publish(image::web_content_image(4 * kMiB)));
  must(create_service(hup, loc, "web", 1));
  return must(hup.save_snapshot());
}

TEST(SnapshotHostile, RepeatedHostNameFails) {
  // The second host record repeats the first host's name. A restore
  // registers each rebuilt daemon as add_host does, so the Master refuses
  // the repeat instead of keeping a daemon the Hup cannot own.
  std::string bytes = world_with_two_hosts();
  // hup: per host, the spec (its name first), then the host, shaper and
  // daemon sections; the second record follows the first daemon section.
  const std::size_t daemon = section_payload(bytes, "daemon");
  const std::size_t name = daemon + read_le(bytes, daemon - 8, 8) + 4;
  ASSERT_EQ(bytes.substr(name, 6), "host-b");
  bytes.replace(name, 6, "host-a");
  reseal(bytes);
  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().message, "snapshot: duplicate host: host-a");
}

TEST(SnapshotHostile, HostNameTableDisagreeingWithTheHostsFails) {
  // The master's host-name table swaps the two names: loaded, it would
  // send every request about host-a to host-b's daemon.
  std::string bytes = world_with_two_hosts();
  // intern_table: the name count, then each name (u32 length, bytes).
  const std::size_t table = section_payload(bytes, "intern_table");
  ASSERT_EQ(read_le(bytes, table, 8), 2u);
  ASSERT_EQ(bytes.substr(table + 12, 6), "host-a");
  ASSERT_EQ(bytes.substr(table + 22, 6), "host-b");
  bytes.replace(table + 12, 6, "host-b");
  bytes.replace(table + 22, 6, "host-a");
  reseal(bytes);
  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("host name table"), std::string::npos)
      << status.error().message;
}

TEST(SnapshotHostile, RetryPolicyOtherThanTheConstantsFails) {
  // A download makes at least one attempt: a load refuses a saved retry
  // policy other than the downloader's own, here no attempt at all.
  std::string bytes = world_with_two_hosts();
  // downloader: the jitter rng's four words, then the attempt count.
  const std::size_t downloader = section_payload(bytes, "downloader");
  ASSERT_EQ(read_le(bytes, downloader + 32, 8), 4u);
  patch(bytes, downloader + 32, 0, 8);
  core::Hup hup;
  const Status status = hup.load_snapshot(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("retry policy"), std::string::npos)
      << status.error().message;
}

// --- Committed seeds re-save byte for byte ----------------------------------

/// Offset of the first differing byte, for a readable failure message.
std::size_t first_difference(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

std::string read_seed(const std::string& name) {
  return must(snapshot::read_file(std::string(SODA_SEEDS_DIR) + "/" + name));
}

/// Loads every committed snapshot into a fresh restore target and requires
/// the re-save to reproduce the file exactly. Between them the seeds reach
/// every section the format defines:
///   golden_world      paper testbed, one running two-node service
///   monitor_world     as golden, plus a started health monitor
///   proxy_world       proxying address mode: public ports, proxy tables
///   policies_world    round-robin, random and fastest-response switches
///                     with routed requests and response-time samples
///   traffic_engine    one open-loop stream mid-trace (streaming stats,
///                     histograms, closed windows), saved on its own
///   chaos_warmstart   the chaos fuzzer's T0 world inside its checkpoint
TEST(SnapshotSeeds, EveryCommittedSnapshotReSavesByteForByte) {
  const auto expect_same = [](const std::string& resaved,
                              const std::string& bytes) {
    EXPECT_TRUE(resaved == bytes)
        << resaved.size() << " vs " << bytes.size()
        << " bytes, first difference at " << first_difference(resaved, bytes);
  };
  core::MasterConfig proxying;
  proxying.address_mode = core::AddressMode::kProxying;
  const std::pair<const char*, core::MasterConfig> worlds[] = {
      {"golden_world.snap", {}},
      {"monitor_world.snap", {}},
      {"proxy_world.snap", proxying},
      {"policies_world.snap", {}},
  };
  for (const auto& [file, config] : worlds) {
    SCOPED_TRACE(file);
    const std::string bytes = read_seed(file);
    core::Hup hup(config);
    must(hup.load_snapshot(bytes));
    expect_same(must(hup.save_snapshot()), bytes);
  }

  {
    SCOPED_TRACE("chaos_warmstart_t0.ckpt");
    const chaos::ChaosCheckpoint checkpoint = must(chaos::read_chaos_checkpoint(
        std::string(SODA_SEEDS_DIR) + "/chaos_warmstart_t0.ckpt"));
    core::MasterConfig config;
    config.placement = checkpoint.base.placement;
    core::Hup hup(config);
    must(hup.load_snapshot(checkpoint.world));
    expect_same(must(hup.save_snapshot()), checkpoint.world);
  }

  {
    SCOPED_TRACE("traffic_engine.snap");
    // The restore target registers the saved stream set over a bare client;
    // the stats geometry must match the one the seed was saved with.
    sim::Engine engine;
    net::FlowNetwork network{engine};
    const net::NodeId sw = network.add_node("switch");
    const net::NodeId client = network.add_node("client");
    core::ServiceSwitch service_switch{"web", net::Ipv4Address(10, 0, 0, 1),
                                       8080};
    workload::SiegeClient siege(engine, network, client, &service_switch, sw,
                                workload::SiegeConfig{});
    workload::TrafficEngineConfig config;
    config.stats.window = sim::SimTime::milliseconds(250);
    config.stats.ring_windows = 3;
    config.stats.hist_lo = 1e-4;
    config.stats.hist_hi = 10;
    config.stats.sub_buckets = 8;
    workload::TrafficEngine traffic(engine, config);
    traffic.add_stream("web", siege,
                       workload::TrafficTrace().constant(120, 2.0));

    const std::string bytes = read_seed("traffic_engine.snap");
    snapshot::Reader reader(bytes);
    traffic.serialize(reader);
    ASSERT_TRUE(reader.ok()) << reader.error();
    snapshot::Writer writer;
    traffic.serialize(writer);
    expect_same(writer.finish(), bytes);
  }
}

}  // namespace
}  // namespace soda
