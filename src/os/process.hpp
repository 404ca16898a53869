// Guest process table. Fault/attack isolation in SODA is about *which
// process table* a compromise lands in: ghttpd's exploited root shell lives
// in the guest's table, so killing the guest kills the attack without
// touching the host or sibling guests (paper §2.1, Figure 3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/result.hpp"

namespace soda::os {

enum class ProcessState { kRunning, kSleeping, kZombie };

/// Formats a state as ps's single-letter code (R/S/Z).
char process_state_code(ProcessState state) noexcept;

/// One entry in a guest's process table.
struct Process {
  std::int32_t pid = 0;
  std::string uid = "root";
  ProcessState state = ProcessState::kRunning;
  std::string command;
  sim::SimTime started_at;
};

/// A per-guest process table with fork/kill semantics and a `ps -ef`-style
/// rendering. PIDs are allocated sequentially from 1 (init).
class ProcessTable {
 public:
  /// Spawns a process; returns its pid.
  std::int32_t spawn(std::string command, std::string uid, sim::SimTime now,
                     ProcessState state = ProcessState::kRunning);

  /// Kills a process. Fails when the pid does not exist.
  Status kill(std::int32_t pid);

  /// Kills every process (guest crash / tear-down). Returns how many died.
  std::size_t kill_all();

  /// Marks a process zombie (crashed but not reaped) — what the honeypot's
  /// victim daemon becomes after the buffer-overflow attack.
  Status mark_zombie(std::int32_t pid);

  [[nodiscard]] std::optional<Process> find(std::int32_t pid) const;
  /// First live process whose command contains `needle`.
  [[nodiscard]] std::optional<Process> find_by_command(std::string_view needle) const;
  [[nodiscard]] std::size_t count() const noexcept { return processes_.size(); }
  [[nodiscard]] const std::vector<Process>& processes() const noexcept {
    return processes_;
  }

  /// Renders the table like the paper's Figure 3 screenshot:
  ///   PID Uid   Stat Command
  ///     1 root  S    init
  [[nodiscard]] std::string ps_ef() const;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("processes");
    ar.seq(processes_, [&ar](auto& process) {
      ar.i64(process.pid);
      ar.str(process.uid);
      ar.u8(process.state, ProcessState::kZombie);
      ar.str(process.command);
      ar.time(process.started_at);
    });
    ar.i64(next_pid_);
    ar.end_section();
  }

 private:
  std::vector<Process> processes_;
  std::int32_t next_pid_ = 1;
};

/// Spawns the kernel threads a 2.4-series UML shows at boot ([keventd],
/// [kswapd], [bdflush], [kupdated]) plus init; returns init's pid.
std::int32_t spawn_boot_processes(ProcessTable& table, sim::SimTime now);

}  // namespace soda::os
