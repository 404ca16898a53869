#include "vm/uml.hpp"

#include "util/contract.hpp"

namespace soda::vm {

std::string_view vm_state_name(VmState state) noexcept {
  switch (state) {
    case VmState::kStopped:  return "stopped";
    case VmState::kBooting:  return "booting";
    case VmState::kRunning:  return "running";
    case VmState::kCrashed:  return "crashed";
  }
  return "unknown";
}

UserModeLinux::UserModeLinux(std::shared_ptr<const os::RootFs> rootfs,
                             std::int64_t memory_mb)
    : rootfs_(std::move(rootfs)), memory_cap_mb_(memory_mb) {
  SODA_EXPECTS(rootfs_ != nullptr);
  SODA_EXPECTS(memory_mb > kKernelMemoryMb);
}

BootReport UserModeLinux::plan_boot(const host::HostSpec& host) const {
  const os::RootFs::BootInputs& boot = rootfs_->boot;
  BootReport report;
  report.used_ram_disk =
      os::fits_ram_disk(boot.image_bytes, host.ram_mb, memory_cap_mb_);
  const double rate_mb_s =
      report.used_ram_disk ? host.ramdisk_mb_s : host.disk_mb_s;
  report.mount_time = sim::SimTime::seconds(
      static_cast<double>(boot.image_bytes) / (rate_mb_s * 1024 * 1024));
  report.kernel_time = sim::SimTime::seconds(kKernelBootGhzS / host.cpu_ghz);
  report.services_time =
      sim::SimTime::seconds(boot.start_cost_ghz_s / host.cpu_ghz);
  report.services_started = boot.start_order.size();
  return report;
}

Status UserModeLinux::begin_boot(sim::SimTime) {
  if (state_ != VmState::kStopped) {
    return Error{std::string("cannot boot a ") + std::string(vm_state_name(state_)) +
                 " VM"};
  }
  state_ = VmState::kBooting;
  return {};
}

Status UserModeLinux::finish_boot(sim::SimTime now) {
  if (state_ != VmState::kBooting) {
    return Error{std::string("finish_boot on a ") +
                 std::string(vm_state_name(state_)) + " VM"};
  }
  memory_used_mb_ = kKernelMemoryMb;
  os::spawn_boot_processes(processes_, now);
  for (const auto& svc : rootfs_->boot.start_order) {
    processes_.spawn(svc, "root", now, os::ProcessState::kSleeping);
  }
  processes_.spawn("/sbin/getty 38400 tty0", "root", now,
                   os::ProcessState::kSleeping);
  state_ = VmState::kRunning;
  return {};
}

void UserModeLinux::crash() {
  processes_.kill_all();
  memory_used_mb_ = 0;
  state_ = VmState::kCrashed;
}

void UserModeLinux::shutdown() {
  processes_.kill_all();
  memory_used_mb_ = 0;
  state_ = VmState::kStopped;
}

Result<std::int32_t> UserModeLinux::spawn_process(std::string command,
                                                  std::string uid,
                                                  sim::SimTime now) {
  if (state_ != VmState::kRunning) {
    return Error{std::string("cannot spawn in a ") +
                 std::string(vm_state_name(state_)) + " VM"};
  }
  return processes_.spawn(std::move(command), std::move(uid), now);
}

Status UserModeLinux::allocate_memory(std::int64_t mb) {
  SODA_EXPECTS(mb >= 0);
  if (state_ != VmState::kRunning) {
    return Error{"VM not running"};
  }
  if (memory_used_mb_ + mb > memory_cap_mb_) {
    // The UML memory limit is a hard cap set at start (paper §4.2).
    return Error{"guest memory limit exceeded: " +
                 std::to_string(memory_used_mb_ + mb) + " > " +
                 std::to_string(memory_cap_mb_) + " MB"};
  }
  memory_used_mb_ += mb;
  return {};
}

void UserModeLinux::free_memory(std::int64_t mb) {
  SODA_EXPECTS(mb >= 0 && mb <= memory_used_mb_);
  memory_used_mb_ -= mb;
}

sim::SimTime UserModeLinux::syscall_time(Syscall call, double cpu_ghz) const {
  return syscall_model_.cost(call, ExecMode::kUmlTraced, cpu_ghz);
}

}  // namespace soda::vm
