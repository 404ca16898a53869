// perfbench: the end-to-end benchmark of the SODA simulator. One binary
// per build flavour — `perfbench` (untraced, end-to-end numbers) and
// `perfbench_traced` (spans, counters and the counting allocator, per-layer
// numbers) — each running one workload per invocation:
//
//   perfbench --workload fleet-churn|tenant-traffic|chaos-sweep
//             --seed N --seconds S [--small] [--corrupt-snapshot]
//             [--spans PATH]
//
// Human-readable lines first; the last line is one JSON object with the
// outcome (correct, attempted, failed, digest) and every metric measured.
// perfbench/run.py builds the binaries and turns that line into the
// benchmark's result record.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/log.hpp"

namespace perfbench {

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench

namespace {

/// Peak resident set of this process in MB (VmHWM), 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void print_json_string(const std::string& text) {
  std::putchar('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c == '\n' ? ' ' : c);
  }
  std::putchar('"');
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet-churn|tenant-traffic|"
               "chaos-sweep --seed N --seconds S [--small] "
               "[--corrupt-snapshot] [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  soda::util::global_logger().set_level(soda::util::LogLevel::kOff);

  Options options;
#ifdef PERFBENCH_TRACED
  options.traced = true;
#endif
  std::string workload;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--corrupt-snapshot") {
      options.corrupt_snapshot = true;
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0)) return usage();

  Tracer tracer(options.traced);
  Result result;
  if (workload == "fleet-churn") {
    result = run_fleet_churn(options, tracer);
  } else if (workload == "tenant-traffic") {
    result = run_tenant_traffic(options, tracer);
  } else if (workload == "chaos-sweep") {
    result = run_chaos_sweep(options, tracer);
  } else {
    return usage();
  }
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("failed_frac",
                result.attempted == 0
                    ? 0.0
                    : static_cast<double>(result.failed) /
                          static_cast<double>(result.attempted),
                "ratio");
  if (options.traced && !spans_path.empty() && !tracer.write(spans_path)) {
    result.check(false, "cannot write spans to " + spans_path);
  }

  std::printf("workload %s seed %llu: %s\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              result.correct ? "outputs correct" : "OUTPUT CHECK FAILED");
  for (const std::string& error : result.errors) {
    std::printf("  check failed: %s\n", error.c_str());
  }
  std::printf("  attempted %llu, failed %llu, outcome digest %016llx\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.digest));
  for (const Metric& m : result.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::printf("{\"workload\":");
  print_json_string(workload);
  std::printf(",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"digest\":\"%016llx\",\"errors\":[",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.digest));
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i) std::putchar(',');
    print_json_string(result.errors[i]);
  }
  std::printf("],\"metrics\":{");
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i) std::putchar(',');
    print_json_string(m.name);
    std::printf(":{\"value\":%.17g,\"unit\":", m.value);
    print_json_string(m.unit);
    std::putchar('}');
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
