// The seed failure detector, preserved as a benchmark baseline the same way
// bench/seed_switch.hpp preserves the seed request path. Before the
// fleet-scale refactor (DESIGN.md §11) the detector kept
// std::map<std::string, SimTime> heartbeats and a std::set<std::string> of
// down hosts, and scanned every host's entry on every check.
//
// SeedDetector reproduces exactly that cost model so fig_fleet can measure
// the deadline-bucketed detector against it head-to-head. Not used by the
// library.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace soda::bench {

/// The seed failure detector: a name-keyed heartbeat map and an
/// O(all-hosts) scan per check.
class SeedDetector {
 public:
  explicit SeedDetector(sim::SimTime timeout) : timeout_(timeout) {}

  void arm(const std::vector<std::string>& hosts, sim::SimTime now) {
    for (const auto& h : hosts) last_heartbeat_[h] = now;
  }

  void on_heartbeat(const std::string& host, sim::SimTime now) {
    last_heartbeat_[host] = now;
  }

  [[nodiscard]] std::size_t check_once(sim::SimTime now) {
    std::size_t newly_dead = 0;
    for (const auto& [host, last] : last_heartbeat_) {
      if (down_hosts_.count(host) > 0) continue;
      if (now - last >= timeout_) {
        down_hosts_.insert(host);
        ++newly_dead;
      }
    }
    return newly_dead;
  }

 private:
  sim::SimTime timeout_;
  std::map<std::string, sim::SimTime> last_heartbeat_;
  std::set<std::string> down_hosts_;
};

}  // namespace soda::bench
