// fleet-churn: the control-plane workload. A fleet of mixed seattle/tacoma
// hosts admits a few thousand services serially (closed loop: each
// creation's priming runs to completion before the next request), then
// resizes some up and some down, tears a slice down and re-creates it, and
// finally saves the quiesced world, loads it into a fresh Hup and compares
// state digests. Failure detection is off and no traffic flows, so
// placement, priming, image distribution, rootfs customization and
// snapshot carry the cost; engine dispatch and the data plane do not.
//
// One round is the whole fixed, seeded amount of work on a freshly built
// world. Rounds repeat until the run's time is spent; every round must
// reproduce the first round's outcome digest bit for bit.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/agent.hpp"
#include "core/hup.hpp"
#include "image/image.hpp"
#include "sim/random.hpp"
#include "snapshot/format.hpp"

namespace perfbench {
namespace {

using namespace soda;

/// The seven image builders of image/image.hpp. Services pick one
/// uniformly, so each image's chunks and customized rootfs template are
/// shared by about a seventh of the fleet's services.
constexpr int kImages = 7;
image::ServiceImage build_image(int index) {
  switch (index) {
    case 0: return image::web_content_image(4 * 1024 * 1024);
    case 1: return image::honeypot_image();
    case 2: return image::genome_matching_image();
    case 3: return image::full_server_image();
    case 4: return image::comp_image();
    case 5: return image::log_image();
    default: return image::online_shop_image();
  }
}

struct ServiceInput {
  std::string name;
  int image = 0;
  int n = 1;
  host::MachineConfig m;
};

enum class ChurnKind { kResizeUp, kResizeDown, kTeardown, kRecreate };

struct ChurnOp {
  ChurnKind kind;
  std::size_t service;  // index into Inputs::services
  int n = 0;            // resize target
};

/// Everything drawn from the seed; the simulator sees only these requests.
struct Inputs {
  std::vector<bool> big_host;  // seattle (true) or tacoma
  std::vector<ServiceInput> services;
  std::vector<ChurnOp> churn;
};

Inputs draw_inputs(std::uint64_t seed, bool small) {
  sim::Rng rng(seed ^ 0xF1EE7C4u);
  Inputs in;
  const int hosts = small ? 240 : 2500;
  const int services = small ? 160 : 2500;
  in.big_host.resize(static_cast<std::size_t>(hosts));
  for (auto&& big : in.big_host) big = rng.uniform() < 0.4;
  for (int s = 0; s < services; ++s) {
    ServiceInput svc;
    svc.name = "svc-" + std::to_string(s);
    svc.image = static_cast<int>(rng.uniform_int(0, kImages - 1));
    // M near Table 1's unit (512 MHz / 256 MB / 1 GB / 10 Mbps).
    svc.m.cpu_mhz = 256.0 + 64.0 * static_cast<double>(rng.uniform_int(0, 4));
    svc.m.memory_mb = 192 + 64 * rng.uniform_int(0, 2);
    svc.m.disk_mb = 512;
    svc.m.bandwidth_mbps = 5;
    // The partitioned online shop needs n = 4, its component units, and
    // the smallest M: its frontend alone takes two of them.
    svc.n = svc.image == 6 ? 4 : static_cast<int>(rng.uniform_int(1, 3));
    if (svc.image == 6) svc.m.cpu_mhz = 256;
    in.services.push_back(std::move(svc));
  }
  // Churn: a tenth of the replicated services grow by one node, a tenth of
  // those with n >= 2 shrink by one, then a tenth are torn down and
  // re-created. Resizes and teardowns release what admission reserved.
  std::vector<std::size_t> order(in.services.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i - 1)))]);
  }
  const std::size_t slice = order.size() / 10;
  std::size_t cursor = 0;
  std::vector<std::size_t> torn;
  for (std::size_t k = 0; k < 3 * slice && cursor < order.size(); ++cursor) {
    const std::size_t s = order[cursor];
    const ServiceInput& svc = in.services[s];
    if (k < slice) {
      if (svc.image == 6) continue;
      in.churn.push_back({ChurnKind::kResizeUp, s, svc.n + 1});
    } else if (k < 2 * slice) {
      if (svc.image == 6 || svc.n < 2) continue;
      in.churn.push_back({ChurnKind::kResizeDown, s, svc.n - 1});
    } else {
      in.churn.push_back({ChurnKind::kTeardown, s, 0});
      torn.push_back(s);
    }
    ++k;
  }
  for (const std::size_t s : torn) in.churn.push_back({ChurnKind::kRecreate, s, 0});
  return in;
}

/// One built world: the Hup plus where each image was published.
struct World {
  std::unique_ptr<core::Hup> hup;
  std::vector<image::ImageLocation> images;
};

/// Worst-fit placement and chunked image distribution (per-host chunk
/// caches, coalescing, peer-to-peer fetches), so services that share an
/// image share its chunks.
core::MasterConfig master_config() {
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  config.distribution.enabled = true;
  return config;
}

World build_world(const Inputs& in) {
  World w;
  w.hup = std::make_unique<core::Hup>(master_config());
  for (std::size_t i = 0; i < in.big_host.size(); ++i) {
    host::HostSpec spec =
        in.big_host[i] ? host::HostSpec::seattle() : host::HostSpec::tacoma();
    spec.name = "host-" + std::to_string(i);
    w.hup->add_host(spec,
                    net::Ipv4Address(10, static_cast<std::uint8_t>(i / 250),
                                     static_cast<std::uint8_t>(i % 250), 0),
                    16);
  }
  image::ImageRepository& repo = w.hup->add_repository("asp-repo");
  for (int i = 0; i < kImages; ++i) {
    w.images.push_back(must(repo.publish(build_image(i))));
  }
  w.hup->agent().register_asp("asp", "key");
  return w;
}

/// Admissions between two speed-probe samples (churn samples twice as
/// often, its operations being fewer).
constexpr std::size_t kProbeEvery = 500;

struct LayerTotals {
  std::uint64_t events = 0;
  double run_s = 0;
  std::size_t pending_peak = 0;
  std::size_t flows_peak = 0;
};

/// Engine::run with the sim-layer span and counters around it.
std::uint64_t drain(core::Hup& hup, Tracer& tracer, std::uint64_t id,
                    LayerTotals& layers) {
  layers.pending_peak = std::max(layers.pending_peak, hup.engine().pending());
  layers.flows_peak =
      std::max(layers.flows_peak, hup.network().active_flows());
  const auto start = Clock::now();
  std::uint64_t events = 0;
  {
    Span span(tracer, "sim.run", id);
    events = hup.engine().run();
  }
  layers.run_s += seconds_since(start);
  layers.events += events;
  return events;
}

struct Round {
  double slowdown = 1;  // SpeedProbe::slowdown() over the round
  double setup_s = 0;
  double ramp_s = 0;
  double churn_s = 0;
  double save_ms = 0;
  double load_ms = 0;
  double digest_ms = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint64_t ramp_allocs = 0;
  Samples admission_ms, admit_call_us, prime_drain_ms, resize_ms,
      teardown_ms;
  LayerTotals layers;
  std::vector<Metric> counters;  // per-layer counter values, traced only
};

Round run_round(const Inputs& in, const Options& options, Tracer& tracer,
                Result& result) {
  Round r;
  SpeedProbe probe;
  probe.sample();
  const auto setup_start = Clock::now();
  World w;
  {
    Span span(tracer, "setup.world", 0);
    w = build_world(in);
  }
  r.setup_s = seconds_since(setup_start);
  core::Hup& hup = *w.hup;
  Digest digest;

  const core::Credentials creds{"asp", "key"};
  auto create = [&](std::size_t s, std::uint64_t id) {
    const ServiceInput& svc = in.services[s];
    core::ServiceCreationRequest request;
    request.credentials = creds;
    request.service_name = svc.name;
    request.image_location = w.images[static_cast<std::size_t>(svc.image)];
    request.requirement = {svc.n, svc.m};
    bool ok = false;
    const auto call_start = Clock::now();
    {
      Span span(tracer, "core.service_creation", id);
      hup.agent().service_creation(
          request, [&](core::ApiResult<core::ServiceCreationReply> reply,
                       sim::SimTime) {
            if (!reply.ok()) return;
            ok = true;
            for (const core::NodeDescriptor& node : reply.value().nodes) {
              digest.add(node.node_name);
              digest.add(node.host_name);
              digest.add(node.address.value());
            }
          });
    }
    const double call_s = seconds_since(call_start);
    const auto drain_start = Clock::now();
    drain(hup, tracer, id, r.layers);
    r.admit_call_us.add(call_s * 1e6);
    r.prime_drain_ms.add(seconds_since(drain_start) * 1e3);
    ++r.attempted;
    if (!ok) ++r.failed;
    digest.add(ok ? 1 : 0);
  };

  // ---- Ramp: serial admissions, each primed to kRunning. ----
  const std::uint64_t allocs_before = allocation_count();
  const auto ramp_start = Clock::now();
  double probe_s = probe.spent_s();
  for (std::size_t s = 0; s < in.services.size(); ++s) {
    if (s % kProbeEvery == kProbeEvery - 1) probe.sample();
    const auto op_start = Clock::now();
    {
      Span span(tracer, "admission", s);
      create(s, s);
    }
    r.admission_ms.add(seconds_since(op_start) * 1e3);
  }
  r.ramp_s = seconds_since(ramp_start) - (probe.spent_s() - probe_s);
  r.ramp_allocs = allocation_count() - allocs_before;

  // ---- Churn: resize up/down, teardown, re-create. ----
  const auto churn_start = Clock::now();
  probe_s = probe.spent_s();
  for (std::size_t k = 0; k < in.churn.size(); ++k) {
    if (k % (kProbeEvery / 2) == kProbeEvery / 2 - 1) probe.sample();
    const ChurnOp& op = in.churn[k];
    const std::uint64_t id = in.services.size() + k;
    const ServiceInput& svc = in.services[op.service];
    const auto op_start = Clock::now();
    Span span(tracer, "churn", id);
    if (op.kind == ChurnKind::kResizeUp || op.kind == ChurnKind::kResizeDown) {
      core::ServiceResizingRequest request{creds, svc.name, op.n};
      bool ok = false;
      {
        Span call(tracer, "core.service_resizing", id);
        hup.agent().service_resizing(
            request, [&](core::ApiResult<core::ServiceResizingReply> reply,
                         sim::SimTime) {
              if (!reply.ok()) return;
              ok = true;
              for (const core::NodeDescriptor& node : reply.value().nodes) {
                digest.add(node.node_name);
                digest.add(node.host_name);
              }
            });
      }
      drain(hup, tracer, id, r.layers);
      ++r.attempted;
      if (!ok) ++r.failed;
      digest.add(ok ? 1 : 0);
      r.resize_ms.add(seconds_since(op_start) * 1e3);
    } else if (op.kind == ChurnKind::kTeardown) {
      bool ok = false;
      {
        Span call(tracer, "core.service_teardown", id);
        ok = hup.agent()
                 .service_teardown(core::ServiceTeardownRequest{creds, svc.name})
                 .ok();
      }
      drain(hup, tracer, id, r.layers);
      ++r.attempted;
      if (!ok) ++r.failed;
      digest.add(ok ? 1 : 0);
      r.teardown_ms.add(seconds_since(op_start) * 1e3);
    } else {
      create(op.service, id);
    }
  }
  r.churn_s = seconds_since(churn_start) - (probe.spent_s() - probe_s);
  probe.sample();

  // ---- Snapshot: save the quiesced world, load it into a fresh Hup. ----
  std::string bytes;
  {
    const auto start = Clock::now();
    Span span(tracer, "snapshot.save", 0);
    auto saved = hup.save_snapshot();
    r.save_ms = seconds_since(start) * 1e3;
    result.check(saved.ok(), "save_snapshot of the churned world failed");
    if (saved.ok()) bytes = std::move(saved).value();
  }
  r.snapshot_bytes = bytes.size();
  std::uint64_t saved_digest = 0;
  {
    const auto start = Clock::now();
    Span span(tracer, "snapshot.state_digest", 0);
    auto d = hup.state_digest();
    r.digest_ms = seconds_since(start) * 1e3;
    if (d.ok()) saved_digest = d.value();
  }
  result.check(saved_digest == soda::snapshot::fnv1a(bytes),
               "state_digest disagrees with the saved snapshot bytes");
  if (options.corrupt_snapshot && bytes.size() > 64) {
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  }
  {
    core::Hup loaded(master_config());
    const auto start = Clock::now();
    Status status;
    {
      Span span(tracer, "snapshot.load", 0);
      status = loaded.load_snapshot(bytes);
    }
    r.load_ms = seconds_since(start) * 1e3;
    result.check(status.ok(), "load_snapshot rejected the saved world" +
                                  (status.ok() ? std::string()
                                               : ": " + status.error().message));
    if (status.ok()) {
      auto loaded_digest = loaded.state_digest();
      result.check(loaded_digest.ok() && loaded_digest.value() == saved_digest,
                   "loaded world's state_digest differs from the saved one");
    }
  }
  digest.add(saved_digest);

  // Output checks on the control plane's own counters.
  const core::MetricsRegistry& metrics = hup.master().metrics();
  const auto counter = [&](const char* name) {
    return static_cast<std::uint64_t>(metrics.value(name));
  };
  std::uint64_t creations = 0;
  for (const ChurnOp& op : in.churn) {
    if (op.kind == ChurnKind::kRecreate) ++creations;
  }
  creations += in.services.size();
  result.check(counter("admissions") + counter("rejections") == creations,
               "admissions + rejections != creation attempts");
  r.digest = digest.hash;
  r.slowdown = probe.slowdown();

  if (options.traced) {
    auto add = [&](const char* name, double value, const char* unit) {
      r.counters.push_back(Metric{name, value, unit});
    };
    for (const char* name : {"admissions", "rejections", "primings",
                             "priming_failures", "boots", "resizes",
                             "teardowns"}) {
      add((std::string("core.") + name).c_str(),
          static_cast<double>(counter(name)), "count");
    }
    add("core.trace_events",
        static_cast<double>(hup.trace().size() + hup.trace().dropped()),
        "count");
    double from_origin = 0, from_peers = 0, from_cache = 0;
    double chunks_cache = 0, chunks_total = 0, failed_downloads = 0;
    for (core::SodaDaemon* daemon : hup.master().daemons()) {
      image::ImageDistributor& d = daemon->distributor();
      from_origin += static_cast<double>(d.bytes_from_origin());
      from_peers += static_cast<double>(d.bytes_from_peers());
      from_cache += static_cast<double>(d.bytes_from_cache());
      chunks_cache += static_cast<double>(d.chunks_from_cache());
      chunks_total += static_cast<double>(d.chunks_from_cache() +
                                          d.chunks_from_peers() +
                                          d.chunks_from_origin());
      failed_downloads +=
          static_cast<double>(d.downloader().downloads_failed());
    }
    add("image.bytes_from_origin", from_origin, "B");
    add("image.bytes_from_peers", from_peers, "B");
    add("image.bytes_from_cache", from_cache, "B");
    add("image.chunk_hit_ratio",
        chunks_total > 0 ? chunks_cache / chunks_total : 0, "ratio");
    add("image.downloads_failed", failed_downloads, "count");
    add("net.bytes_delivered",
        static_cast<double>(hup.network().bytes_delivered()), "B");
  }
  return r;
}

}  // namespace

Result run_fleet_churn(const Options& options, Tracer& tracer) {
  Result result;
  const Inputs in = draw_inputs(options.seed, options.small);
  const auto start = Clock::now();
  std::vector<Round> rounds;
  // At least two rounds, so every run also checks round-to-round
  // determinism; more while the run's time lasts.
  while (rounds.size() < 2 ||
         (!options.small && seconds_since(start) < options.seconds)) {
    rounds.push_back(run_round(in, options, tracer, result));
    const Round& r = rounds.back();
    result.check(r.digest == rounds.front().digest,
                 "round " + std::to_string(rounds.size() - 1) +
                     " outcome digest differs from round 0");
    result.attempted += r.attempted;
    result.failed += r.failed;
  }
  result.digest = rounds.front().digest;

  // Round 0 warms the process (allocator arenas, rootfs template caches)
  // and is checked but not timed; set-up is timed in every round. Every
  // wall time is divided by the round's machine slowdown.
  Samples setup, admissions_per_s, churn_per_s, save_ms, load_ms, digest_ms;
  Samples admit_call_us, prime_drain_ms, resize_ms, teardown_ms;
  Samples slowdown, raw_admissions_per_s, round_p50_ms, round_p99_ms;
  LayerTotals layers;
  std::uint64_t ramp_allocs = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    const double k = r.slowdown;
    setup.add(r.setup_s / k);
    slowdown.add(k);
    if (i == 0) continue;
    raw_admissions_per_s.add(static_cast<double>(in.services.size()) / r.ramp_s);
    admissions_per_s.add(static_cast<double>(in.services.size()) * k / r.ramp_s);
    churn_per_s.add(static_cast<double>(in.churn.size()) * k / r.churn_s);
    save_ms.add(r.save_ms / k);
    load_ms.add(r.load_ms / k);
    digest_ms.add(r.digest_ms / k);
    round_p50_ms.add(r.admission_ms.median() / k);
    round_p99_ms.add(r.admission_ms.percentile(0.99) / k);
    admit_call_us.append(r.admit_call_us, k);
    prime_drain_ms.append(r.prime_drain_ms, k);
    resize_ms.append(r.resize_ms, k);
    teardown_ms.append(r.teardown_ms, k);
    layers.events += r.layers.events;
    layers.run_s += r.layers.run_s / k;
    layers.pending_peak = std::max(layers.pending_peak, r.layers.pending_peak);
    layers.flows_peak = std::max(layers.flows_peak, r.layers.flows_peak);
    ramp_allocs += r.ramp_allocs;
  }
  const std::size_t timed = rounds.size() - 1;

  std::printf("fleet-churn: %zu hosts, %zu services, %zu churn ops, "
              "%zu timed round(s) of %zu admissions\n",
              in.big_host.size(), in.services.size(), in.churn.size(), timed,
              in.services.size());
  std::printf("  machine slowdown %.3f (median), unadjusted admissions_per_s "
              "%.1f 1/s\n",
              slowdown.median(), steady_rate(raw_admissions_per_s));
  result.metric("machine_slowdown", slowdown.median(), "ratio");
  result.metric("setup_s", setup.median(), "s");
  result.metric("ops_per_s", steady_rate(admissions_per_s), "1/s");
  result.metric("alt_ops_per_s", steady_rate(churn_per_s), "1/s");
  result.metric("op_p50_ms", steady_time(round_p50_ms), "ms");
  result.metric("op_p99_ms", steady_time(round_p99_ms), "ms");
  result.metric("admissions_per_s", steady_rate(admissions_per_s), "1/s");
  result.metric("admission_p50_ms", steady_time(round_p50_ms), "ms");
  result.metric("admission_p99_ms", steady_time(round_p99_ms), "ms");
  result.metric("churn_ops_per_s", steady_rate(churn_per_s), "1/s");
  result.metric("snapshot_save_ms", steady_time(save_ms), "ms");
  result.metric("snapshot_load_ms", steady_time(load_ms), "ms");
  if (!options.traced) return result;

  result.metric("sim.events", static_cast<double>(layers.events), "count");
  result.metric("sim.run_s", layers.run_s, "s");
  result.metric("sim.ns_per_event",
                layers.events ? layers.run_s * 1e9 /
                                    static_cast<double>(layers.events)
                              : 0,
                "ns");
  result.metric("sim.pending_peak", static_cast<double>(layers.pending_peak),
                "count");
  result.metric("net.active_flows_peak",
                static_cast<double>(layers.flows_peak), "count");
  result.metric("core.admit_call_us.p50", admit_call_us.median(), "us");
  result.metric("core.admit_call_us.p99", admit_call_us.percentile(0.99),
                "us");
  result.metric("core.prime_drain_ms.p50", prime_drain_ms.median(), "ms");
  result.metric("core.prime_drain_ms.p99", prime_drain_ms.percentile(0.99),
                "ms");
  result.metric("core.allocs_per_admission",
                static_cast<double>(ramp_allocs) /
                    static_cast<double>(timed * in.services.size()),
                "count");
  result.metric("core.resize_ms", resize_ms.median(), "ms");
  result.metric("core.teardown_ms", teardown_ms.median(), "ms");
  for (const Metric& m : rounds.front().counters) result.metrics.push_back(m);
  result.metric("snapshot.bytes",
                static_cast<double>(rounds.front().snapshot_bytes), "B");
  result.metric("snapshot.save_ms", steady_time(save_ms), "ms");
  result.metric("snapshot.load_ms", steady_time(load_ms), "ms");
  result.metric("snapshot.digest_ms", digest_ms.median(), "ms");
  return result;
}

}  // namespace perfbench
