// Unit tests for service images, the repository, and the HTTP downloader.
#include <gtest/gtest.h>

#include <string>

#include "image/downloader.hpp"
#include "image/image.hpp"
#include "image/repository.hpp"
#include "net/flow_network.hpp"
#include "sim/engine.hpp"

namespace soda::image {
namespace {

// ---------- ServiceImage / builder ----------

TEST(ImageBuilder, AssemblesImage) {
  ServiceImage img = ServiceImageBuilder("svc")
                         .version("2.1")
                         .entry_command("svcd")
                         .listen_port(9090)
                         .requires_service("httpd")
                         .rootfs(os::RootFsTemplate::kLfs40)
                         .app_start_cost(0.5)
                         .app_memory(64)
                         .add_file("/srv/bin/svcd", 1000)
                         .build();
  EXPECT_EQ(img.name, "svc");
  EXPECT_EQ(img.version, "2.1");
  EXPECT_EQ(img.entry_command, "svcd");
  EXPECT_EQ(img.listen_port, 9090);
  EXPECT_EQ(img.required_services, std::vector<std::string>{"httpd"});
  EXPECT_EQ(img.rootfs_template, os::RootFsTemplate::kLfs40);
  EXPECT_EQ(img.payload_bytes(), 1000);
}

TEST(ImageBuilder, DatasetSplitsAcrossFiles) {
  ServiceImage img = ServiceImageBuilder("d")
                         .add_dataset("/srv/data", 8, 1000)
                         .build();
  EXPECT_EQ(img.payload_bytes(), 8000);
  EXPECT_TRUE(img.payload.exists("/srv/data/file0"));
  EXPECT_TRUE(img.payload.exists("/srv/data/file7"));
}

TEST(Image, PackagedBytesAddsRpmOverhead) {
  ServiceImage img = ServiceImageBuilder("x").add_file("/f", 1'000'000).build();
  EXPECT_GT(img.packaged_bytes(), 1'000'000);
  EXPECT_LT(img.packaged_bytes(), 1'100'000);
}

TEST(Image, CannedImagesMatchPaperRoles) {
  const auto web = web_content_image(32 * 1024 * 1024);
  EXPECT_EQ(web.rootfs_template, os::RootFsTemplate::kBase10);
  EXPECT_EQ(web.entry_command, "httpd_19_5");
  EXPECT_GT(web.payload_bytes(), 32 * 1024 * 1024);

  const auto pot = honeypot_image();
  EXPECT_EQ(pot.rootfs_template, os::RootFsTemplate::kTomsrtbt);
  EXPECT_EQ(pot.entry_command, "ghttpd-1.4");

  EXPECT_EQ(genome_matching_image().rootfs_template, os::RootFsTemplate::kLfs40);
  EXPECT_EQ(full_server_image().rootfs_template, os::RootFsTemplate::kRh72Server);
}

// ---------- Repository ----------

TEST(Repository, PublishLookupWithdraw) {
  ImageRepository repo("asp-repo", net::NodeId{1});
  const auto loc = must(repo.publish(honeypot_image()));
  EXPECT_EQ(loc.repository, "asp-repo");
  EXPECT_EQ(loc.path, "/images/honeypot-1.0.rpm");
  EXPECT_EQ(loc.url(), "http://asp-repo/images/honeypot-1.0.rpm");
  EXPECT_TRUE(repo.lookup(loc.path).ok());
  EXPECT_EQ(repo.image_count(), 1u);
  EXPECT_TRUE(repo.withdraw("honeypot"));
  EXPECT_FALSE(repo.withdraw("honeypot"));
  EXPECT_FALSE(repo.lookup(loc.path).ok());
}

TEST(Repository, DuplicatePublishFails) {
  ImageRepository repo("r", net::NodeId{1});
  must(repo.publish(honeypot_image()));
  EXPECT_FALSE(repo.publish(honeypot_image()).ok());
}

TEST(Repository, ServeAnswersWithStatusReasonAndImage) {
  ImageRepository repo("r", net::NodeId{1});
  const auto loc = must(repo.publish(honeypot_image()));
  const ImageRepository::Reply ok = repo.serve(loc.path);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.reason, "OK");
  // The published image itself, with the manifest publishing built.
  EXPECT_EQ(ok.image, must(repo.lookup(loc.path)));
  EXPECT_EQ(ok.image->manifest.total_bytes, honeypot_image().packaged_bytes());
  EXPECT_FALSE(ok.image->manifest.chunks.empty());

  const ImageRepository::Reply missing = repo.serve("/images/ghost.rpm");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.reason, "Not Found");
  EXPECT_EQ(missing.image, nullptr);
}

TEST(Repository, ServeConsumesAnInjectedFailureBeforeTheLookup) {
  ImageRepository repo("r", net::NodeId{1});
  const auto loc = must(repo.publish(honeypot_image()));
  repo.fail_next_requests(2);
  // A missing path still answers 503 while a failure is pending.
  const ImageRepository::Reply ghost = repo.serve("/images/ghost.rpm");
  EXPECT_EQ(ghost.status, 503);
  EXPECT_EQ(ghost.reason, "Service Unavailable");
  EXPECT_EQ(ghost.image, nullptr);
  EXPECT_EQ(repo.serve(loc.path).status, 503);
  EXPECT_EQ(repo.failing_requests(), 0);
  EXPECT_EQ(repo.serve(loc.path).status, 200);
}

// ---------- Downloader ----------

struct DownloadLan {
  sim::Engine engine;
  net::FlowNetwork network{engine};
  net::NodeId sw, repo_node, host_node;
  RepositoryDirectory directory;
  DownloadLan() {
    sw = network.add_node("switch");
    repo_node = network.add_node("repo");
    host_node = network.add_node("host");
    network.add_duplex_link(repo_node, sw, 100, sim::SimTime::zero());
    network.add_duplex_link(host_node, sw, 100, sim::SimTime::zero());
  }
  /// A downloader on the host that resolves repositories through
  /// `directory`.
  HttpDownloader downloader() {
    HttpDownloader downloader(engine, network, host_node);
    downloader.set_directory(&directory);
    return downloader;
  }
};

TEST(Downloader, DeliversThePublishedImage) {
  DownloadLan lan;
  ImageRepository repo("r", lan.repo_node);
  lan.directory.add(&repo);
  const auto loc = must(repo.publish(honeypot_image()));
  HttpDownloader downloader = lan.downloader();
  bool got = false;
  downloader.download(loc, [&](Result<ImagePtr> image, sim::SimTime) {
    ASSERT_TRUE(image.ok());
    EXPECT_EQ(image.value()->name, "honeypot");
    // The repository's own image, not a copy of it.
    EXPECT_EQ(image.value(), must(repo.lookup(loc.path)));
    got = true;
  });
  lan.engine.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(downloader.downloads_completed(), 1u);
  EXPECT_EQ(downloader.downloads_failed(), 0u);
  EXPECT_EQ(downloader.bytes_downloaded(), honeypot_image().packaged_bytes());
}

TEST(Downloader, MissingImageFailsAfterRoundTrip) {
  DownloadLan lan;
  ImageRepository repo("r", lan.repo_node);
  lan.directory.add(&repo);
  HttpDownloader downloader = lan.downloader();
  bool failed = false;
  downloader.download(ImageLocation{"r", "/images/ghost.rpm"},
                      [&](Result<ImagePtr> image, sim::SimTime) {
                        ASSERT_FALSE(image.ok());
                        EXPECT_EQ(image.error().message, "HTTP 404 Not Found");
                        failed = true;
                      });
  lan.engine.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(downloader.downloads_failed(), 1u);
}

TEST(Downloader, ImageWithdrawnMidTransferFailsAtCompletion) {
  // The request succeeds and the body starts flowing; the ASP withdraws the
  // image before the last byte arrives. The body still lands, but the
  // completion-time lookup finds nothing and the caller gets the repository's
  // 404 text, not a pointer to an unpublished image.
  DownloadLan lan;
  ImageRepository repo("r", lan.repo_node);
  lan.directory.add(&repo);
  const auto loc = must(repo.publish(
      ServiceImageBuilder("img").add_file("/f", 40 * 1024 * 1024).build()));
  HttpDownloader downloader = lan.downloader();
  std::string error;
  downloader.download(loc, [&](Result<ImagePtr> image, sim::SimTime) {
    ASSERT_FALSE(image.ok());
    error = image.error().message;
  });
  // 40 MiB at 100 Mbps takes ~3.4 s; withdraw a second in.
  lan.engine.schedule_after(sim::SimTime::seconds(1),
                            [&] { EXPECT_TRUE(repo.withdraw("img")); });
  lan.engine.run();
  EXPECT_EQ(error,
            "image withdrawn during transfer: 404: no image at " + loc.path);
  EXPECT_EQ(downloader.downloads_completed(), 1u);
  EXPECT_EQ(downloader.downloads_failed(), 0u);
}

TEST(Downloader, TransferTimeScalesWithImageSize) {
  // The paper's §4.3 measurement: download time grows linearly with size.
  auto time_for = [](std::int64_t dataset_bytes) {
    DownloadLan lan;
    ImageRepository repo("r", lan.repo_node);
    lan.directory.add(&repo);
    const auto loc = must(repo.publish(
        ServiceImageBuilder("img").add_file("/f", dataset_bytes).build()));
    HttpDownloader downloader = lan.downloader();
    double at = -1;
    downloader.download(loc, [&](Result<ImagePtr> image, sim::SimTime t) {
      ASSERT_TRUE(image.ok());
      at = t.to_seconds();
    });
    lan.engine.run();
    return at;
  };
  const double t40 = time_for(40 * 1024 * 1024);
  const double t80 = time_for(80 * 1024 * 1024);
  EXPECT_NEAR(t80 / t40, 2.0, 0.05);
  // Absolute sanity: 40 MB at 100 Mbps ~ 3.4 s.
  EXPECT_NEAR(t40, 40.0 * 1024 * 1024 / (100e6 / 8), 0.2);
}

TEST(Downloader, SecondDownloadSkipsHandshake) {
  DownloadLan lan;
  ImageRepository repo("r", lan.repo_node);
  lan.directory.add(&repo);
  const auto loc = must(repo.publish(
      ServiceImageBuilder("tiny").add_file("/f", 10).build()));
  HttpDownloader downloader = lan.downloader();
  double first = -1, second = -1;
  downloader.download(loc, [&](Result<ImagePtr> r, sim::SimTime t) {
    ASSERT_TRUE(r.ok());
    first = t.to_seconds();
    // Capture t by value: the outer callback frame is gone when the inner
    // download completes.
    downloader.download(loc, [&, t](Result<ImagePtr> r2, sim::SimTime t2) {
      ASSERT_TRUE(r2.ok());
      second = t2.to_seconds() - t.to_seconds();
    });
  });
  lan.engine.run();
  ASSERT_GT(first, 0);
  ASSERT_GT(second, 0);
  EXPECT_LT(second, first);  // keep-alive: no handshake bytes the second time
}

TEST(Downloader, DownloadWithoutADirectoryViolatesTheContract) {
  // The location names the repository; only a directory can resolve it.
  DownloadLan lan;
  ImageRepository repo("r", lan.repo_node);
  const auto loc = must(repo.publish(honeypot_image()));
  HttpDownloader downloader(lan.engine, lan.network, lan.host_node);
  EXPECT_DEATH(downloader.download(loc, [](Result<ImagePtr>, sim::SimTime) {}),
               "precondition");
}

}  // namespace
}  // namespace soda::image
