// Reproduces the §4.3 measurement: "the downloading time grows linearly
// with the size of the service image" on the 100 Mbps LAN. Images of
// increasing size are fetched by the SODA Daemon's HTTP/1.1 downloader over
// the simulated departmental network.
#include <cstdio>

#include "image/downloader.hpp"
#include "image/image.hpp"
#include "image/repository.hpp"
#include "net/flow_network.hpp"
#include "sim/engine.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace soda;

int main() {
  std::printf("== Active service image downloading: time vs image size "
              "(100 Mbps LAN) ==\n\n");
  constexpr std::int64_t kMiB = 1024 * 1024;
  const std::int64_t sizes[] = {15 * kMiB, 29 * kMiB, 60 * kMiB,
                                120 * kMiB, 253 * kMiB, 400 * kMiB};

  util::AsciiTable table({"Image size", "Download time", "Goodput (Mbps)",
                          "time / size (s/100MB)"});
  table.set_alignment({util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});

  double first_ratio = 0;
  double worst_nonlinearity = 0;
  for (const auto size : sizes) {
    sim::Engine engine;
    net::FlowNetwork network(engine);
    const auto lan = network.add_node("lan-switch");
    const auto repo_node = network.add_node("asp-repo");
    const auto host = network.add_node("seattle");
    network.add_duplex_link(repo_node, lan, 100, sim::SimTime::microseconds(100));
    network.add_duplex_link(host, lan, 100, sim::SimTime::microseconds(100));

    image::ImageRepository repo("asp-repo", repo_node);
    const auto loc = must(repo.publish(
        image::ServiceImageBuilder("img").add_file("/payload", size).build()));
    image::RepositoryDirectory directory;
    directory.add(&repo);
    image::HttpDownloader downloader(engine, network, host);
    downloader.set_directory(&directory);
    double seconds = -1;
    downloader.download(loc,
                        [&](Result<image::ImagePtr> image, sim::SimTime t) {
                          must(std::move(image));
                          seconds = t.to_seconds();
                        });
    engine.run();

    const double mbps = static_cast<double>(size) * 8 / 1e6 / seconds;
    const double ratio = seconds / (static_cast<double>(size) / (100 * kMiB));
    if (first_ratio == 0) first_ratio = ratio;
    worst_nonlinearity =
        std::max(worst_nonlinearity, std::abs(ratio - first_ratio) / first_ratio);
    char t_cell[16], g_cell[16], r_cell[16];
    std::snprintf(t_cell, sizeof t_cell, "%.2f s", seconds);
    std::snprintf(g_cell, sizeof g_cell, "%.1f", mbps);
    std::snprintf(r_cell, sizeof r_cell, "%.2f", ratio);
    table.add_row({util::format_bytes(size), t_cell, g_cell, r_cell});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("linearity: time/size constant to within %.1f%% across a 26x "
              "size range — the paper's\n\"grows linearly\" observation.\n",
              worst_nonlinearity * 100);
  return 0;
}
