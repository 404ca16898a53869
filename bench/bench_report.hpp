// Shared emitter for BENCH_sim_core.json: every bench binary records named
// entries (items/sec, wall time, allocation counts, ...) and rewrites the
// file, merging with entries written by the other binaries. The format is
// deliberately line-oriented — one entry per line, keyed by name — so the
// merge is a line-keyed rewrite and the file diffs cleanly between PRs.
//
//   {
//     "benchmark": "soda-sim-core",
//     "entries": {
//       "event_queue_schedule_pop_n4096": {"items_per_sec": 1.19e7, ...},
//       ...
//     }
//   }
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace soda::bench {

/// Accumulates metric rows and rewrites the report file on write().
/// `benchmark` names the suite in the file header; benches writing to their
/// own file (e.g. BENCH_recovery.json) pass both.
class BenchReport {
 public:
  explicit BenchReport(std::string path = "BENCH_sim_core.json",
                       std::string benchmark = "soda-sim-core")
      : path_(std::move(path)), benchmark_(std::move(benchmark)) {}

  /// Records (or overwrites) one named entry. Fields render in the order
  /// given; values use %.6g so the file stays readable.
  void record(const std::string& name,
              std::vector<std::pair<std::string, double>> fields) {
    std::string body = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      char value[40];
      std::snprintf(value, sizeof value, "%.6g", fields[i].second);
      if (i) body += ", ";
      body += "\"" + fields[i].first + "\": " + value;
    }
    body += "}";
    entries_[name] = body;
  }

  /// Merges with any existing report on disk (ours win on name collision)
  /// and rewrites the file. Returns false if the file cannot be written.
  bool write() {
    merge_existing();
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (!out) return false;
    std::fprintf(out, "{\n  \"benchmark\": \"%s\",\n  \"entries\": {\n",
                 benchmark_.c_str());
    std::size_t i = 0;
    for (const auto& [name, body] : entries_) {
      std::fprintf(out, "    \"%s\": %s%s\n", name.c_str(), body.c_str(),
                   ++i < entries_.size() ? "," : "");
    }
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
    return true;
  }

 private:
  /// Reads entries recorded by earlier bench runs. Only lines matching the
  /// exact shape this class writes are recognized; anything else is ignored.
  void merge_existing() {
    std::FILE* in = std::fopen(path_.c_str(), "r");
    if (!in) return;
    char line[1024];
    while (std::fgets(line, sizeof line, in)) {
      std::string text(line);
      const auto name_start = text.find("    \"");
      if (name_start != 0) continue;
      const auto name_end = text.find("\": {");
      if (name_end == std::string::npos) continue;
      const std::string name = text.substr(5, name_end - 5);
      const auto body_end = text.rfind('}');
      if (body_end == std::string::npos || body_end < name_end) continue;
      // The entry body runs from the '{' (3 chars past the closing quote of
      // the name) through the final '}' on the line.
      const std::string body =
          text.substr(name_end + 3, body_end - (name_end + 3) + 1);
      entries_.emplace(name, body);  // emplace: fresh records win
    }
    std::fclose(in);
  }

  std::string path_;
  std::string benchmark_;
  std::map<std::string, std::string> entries_;
};

/// The machine's hardware threads (at least 1): the `cores` field of the
/// serial-vs-parallel entries.
inline std::size_t machine_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// (serial_s / parallel_s) / min(replicas, cores): the share of the ideal
/// speedup a serial-vs-parallel pair reached on this machine.
inline double parallel_efficiency(double serial_s, double parallel_s,
                                  std::size_t replicas) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(replicas, machine_cores()));
  return serial_s / parallel_s / static_cast<double>(workers);
}

}  // namespace soda::bench
