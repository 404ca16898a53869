// User-Mode Linux guest model. A UML runs in the unmodified user space of
// the host OS (paper §4.2): it has its own root filesystem, its own process
// table and root user, a memory cap fixed at start, and a tracing thread
// that intercepts every guest system call. Faults and compromises stay
// inside the guest — crashing a UML empties *its* process table only.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "host/host.hpp"
#include "os/process.hpp"
#include "os/rootfs.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"
#include "vm/syscall.hpp"

namespace soda::vm {

enum class VmState { kStopped, kBooting, kRunning, kCrashed };

std::string_view vm_state_name(VmState state) noexcept;

/// Breakdown of a UML boot, produced by plan_boot.
struct BootReport {
  sim::SimTime mount_time;     // rootfs mount (RAM disk or local disk)
  sim::SimTime kernel_time;    // guest kernel initialization
  sim::SimTime services_time;  // init scripts of the enabled system services
  bool used_ram_disk = false;
  std::size_t services_started = 0;

  [[nodiscard]] sim::SimTime total() const noexcept {
    return mount_time + kernel_time + services_time;
  }
};

/// One UML instance. Owns the guest process table and boots a root
/// filesystem it shares with every guest of the same tree: nothing writes
/// a guest's rootfs after priming.
class UserModeLinux {
 public:
  /// `rootfs` is a sealed tree (os::share_rootfs or os::RootFsTable);
  /// `memory_mb` is the UML memory-usage limit passed at start (the only
  /// resource cap the original UML supports natively).
  UserModeLinux(std::shared_ptr<const os::RootFs> rootfs,
                std::int64_t memory_mb);

  /// Computes the boot-time breakdown on `host` hardware without changing
  /// state (used by the daemon to schedule the boot completion event).
  [[nodiscard]] BootReport plan_boot(const host::HostSpec& host) const;

  /// Transitions kStopped -> kBooting.
  Status begin_boot(sim::SimTime now);

  /// Transitions kBooting -> kRunning: spawns kernel threads, init, a getty,
  /// and one daemon process per enabled system service.
  Status finish_boot(sim::SimTime now);

  /// Kills every guest process and marks the VM crashed (fault/attack
  /// outcome — confined to this guest).
  void crash();

  /// Stops the VM cleanly (tear-down).
  void shutdown();

  /// Spawns a guest process; fails unless running. All processes of a
  /// virtual service node bear the service uid.
  Result<std::int32_t> spawn_process(std::string command, std::string uid,
                                     sim::SimTime now);

  /// Guest memory allocation against the UML cap.
  Status allocate_memory(std::int64_t mb);
  void free_memory(std::int64_t mb);

  /// Wall time of one guest system call on `cpu_ghz` hardware — always the
  /// traced path; that is what makes it a UML.
  [[nodiscard]] sim::SimTime syscall_time(Syscall call, double cpu_ghz) const;

  [[nodiscard]] VmState state() const noexcept { return state_; }
  [[nodiscard]] const os::RootFs& rootfs() const noexcept { return *rootfs_; }
  [[nodiscard]] os::ProcessTable& processes() noexcept { return processes_; }
  [[nodiscard]] const os::ProcessTable& processes() const noexcept {
    return processes_;
  }
  [[nodiscard]] std::int64_t memory_cap_mb() const noexcept { return memory_cap_mb_; }
  [[nodiscard]] std::int64_t memory_used_mb() const noexcept { return memory_used_mb_; }
  [[nodiscard]] const SyscallCostModel& syscall_model() const noexcept {
    return syscall_model_;
  }

  /// Guest kernel initialization cost (GHz-seconds), shared with tests.
  static constexpr double kKernelBootGhzS = 1.0;
  /// Baseline guest memory used by the kernel itself.
  static constexpr std::int64_t kKernelMemoryMb = 16;

  /// A blank guest for a snapshot restore to fill through serialize().
  UserModeLinux() = default;

  /// Snapshot walk: the memory cap and the rootfs the guest boots (its tree
  /// verbatim; guests sharing a tree save the same bytes, and a load shares
  /// one tree among them again), then VM state, memory accounting, and the
  /// guest process table.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.i64(memory_cap_mb_);
    ar.check(memory_cap_mb_ > kKernelMemoryMb, "uml memory cap out of range");
    ar.shared(rootfs_);
    ar.begin_section("uml");
    ar.expect("uml memory cap mismatch").i64(memory_cap_mb_);
    ar.i64(memory_used_mb_);
    ar.u8(state_, VmState::kCrashed);
    ar.walk(processes_);
    ar.end_section();
  }

 private:
  std::shared_ptr<const os::RootFs> rootfs_;
  std::int64_t memory_cap_mb_ = 0;
  std::int64_t memory_used_mb_ = 0;
  VmState state_ = VmState::kStopped;
  os::ProcessTable processes_;
  SyscallCostModel syscall_model_;
};

}  // namespace soda::vm
