// Unit tests for the UML model: syscall cost model (Table 4), boot planning
// (Table 2 mechanics), lifecycle, memory cap, and crash confinement.
#include <gtest/gtest.h>

#include "host/host.hpp"
#include "os/rootfs.hpp"
#include "vm/syscall.hpp"
#include "vm/uml.hpp"

namespace soda::vm {
namespace {

const sim::SimTime kNow = sim::SimTime::seconds(1);

// ---------- Syscall cost model ----------

TEST(Syscalls, NativeCyclesMatchTable4HostColumn) {
  SyscallCostModel model;
  EXPECT_EQ(model.cycles(Syscall::kDup2, ExecMode::kHostNative), 1208u);
  EXPECT_EQ(model.cycles(Syscall::kGetpid, ExecMode::kHostNative), 1064u);
  EXPECT_EQ(model.cycles(Syscall::kGeteuid, ExecMode::kHostNative), 1084u);
  EXPECT_EQ(model.cycles(Syscall::kMmap, ExecMode::kHostNative), 1208u);
  EXPECT_EQ(model.cycles(Syscall::kMmapMunmap, ExecMode::kHostNative), 1200u);
  EXPECT_EQ(model.cycles(Syscall::kGettimeofday, ExecMode::kHostNative), 1368u);
}

TEST(Syscalls, TracedCyclesLandNearTable4UmlColumn) {
  // Paper UML column: dup2 27276, getpid 26648, geteuid 26904, mmap 27864,
  // mmap_munmap 27044, gettimeofday 37004. The model must land within 5%.
  SyscallCostModel model;
  const struct { Syscall call; double paper; } rows[] = {
      {Syscall::kDup2, 27276},        {Syscall::kGetpid, 26648},
      {Syscall::kGeteuid, 26904},     {Syscall::kMmap, 27864},
      {Syscall::kMmapMunmap, 27044},  {Syscall::kGettimeofday, 37004},
  };
  for (const auto& row : rows) {
    const auto traced =
        static_cast<double>(model.cycles(row.call, ExecMode::kUmlTraced));
    EXPECT_NEAR(traced, row.paper, row.paper * 0.05) << syscall_name(row.call);
  }
}

TEST(Syscalls, SlowdownIsTensNotUnits) {
  SyscallCostModel model;
  for (Syscall call : {Syscall::kDup2, Syscall::kGetpid, Syscall::kGeteuid,
                       Syscall::kMmap, Syscall::kMmapMunmap}) {
    EXPECT_GT(model.slowdown(call), 15.0) << syscall_name(call);
    EXPECT_LT(model.slowdown(call), 30.0) << syscall_name(call);
  }
}

TEST(Syscalls, CostScalesInverselyWithClock) {
  SyscallCostModel model;
  const auto fast = model.cost(Syscall::kGetpid, ExecMode::kUmlTraced, 2.6);
  const auto slow = model.cost(Syscall::kGetpid, ExecMode::kUmlTraced, 1.8);
  // SimTime truncates to whole nanoseconds, so allow quantization error.
  EXPECT_NEAR(slow.to_seconds() / fast.to_seconds(), 2.6 / 1.8, 1e-3);
}

TEST(Syscalls, NamesMatchPaperSpelling) {
  EXPECT_EQ(syscall_name(Syscall::kMmapMunmap), "mmap_munmap");
  EXPECT_EQ(syscall_name(Syscall::kGettimeofday), "gettimeofday");
}

// ---------- Request cost (Figure 6's mechanism) ----------

TEST(RequestCost, AppLevelSlowdownFarBelowSyscallLevel) {
  SyscallCostModel model;
  const auto cost = static_request_cost(model, 64 * 1024);
  EXPECT_GT(cost.slowdown(), 1.2);
  EXPECT_LT(cost.slowdown(), 5.0);  // vs ~22x at syscall level
}

TEST(RequestCost, SlowdownRoughlyFlatAcrossSizes) {
  SyscallCostModel model;
  const double small = static_request_cost(model, 4 * 1024).slowdown();
  const double large = static_request_cost(model, 1024 * 1024).slowdown();
  EXPECT_NEAR(small, large, 0.8);
}

TEST(RequestCost, MonotoneInResponseSize) {
  SyscallCostModel model;
  const auto a = static_request_cost(model, 10 * 1024);
  const auto b = static_request_cost(model, 500 * 1024);
  EXPECT_LT(a.total_cycles(ExecMode::kHostNative),
            b.total_cycles(ExecMode::kHostNative));
  EXPECT_LT(a.syscall_count, b.syscall_count);
}

TEST(RequestCost, ZeroByteResponseStillCosts) {
  SyscallCostModel model;
  const auto cost = static_request_cost(model, 0);
  EXPECT_GT(cost.syscall_count, 0u);
  EXPECT_GT(cost.total_cycles(ExecMode::kHostNative), 0u);
}

TEST(RequestCost, DynamicContentSlowsDownMoreThanStatic) {
  // CGI requests fork/exec per hit — UML's weakest path; their in-VM factor
  // must clearly exceed the static service's.
  SyscallCostModel model;
  const double static_factor = static_request_cost(model, 16 * 1024).slowdown();
  const double dynamic_factor = dynamic_request_cost(model, 16 * 1024).slowdown();
  EXPECT_GT(dynamic_factor, 2 * static_factor);
}

TEST(RequestCost, DynamicCostDominatedByForkExec) {
  SyscallCostModel model;
  const auto cost = dynamic_request_cost(model, 4 * 1024);
  const auto fork_exec = model.cycles(Syscall::kFork, ExecMode::kUmlTraced) +
                         model.cycles(Syscall::kExecve, ExecMode::kUmlTraced);
  EXPECT_GT(fork_exec, cost.syscall_cycles_traced / 2);
  EXPECT_GT(cost.syscall_count, 10u);
}

TEST(RequestCost, ScriptCyclesPriceNatively) {
  // Interpreter cycles are user-mode: they add equally to both paths.
  SyscallCostModel model;
  const auto light = dynamic_request_cost(model, 1024, 100'000);
  const auto heavy = dynamic_request_cost(model, 1024, 10'000'000);
  EXPECT_EQ(heavy.syscall_cycles_traced, light.syscall_cycles_traced);
  EXPECT_LT(heavy.slowdown(), light.slowdown());  // user cycles dilute the factor
}

TEST(Syscalls, ForkExecNamesAndOrdering) {
  SyscallCostModel model;
  EXPECT_EQ(syscall_name(Syscall::kFork), "fork");
  EXPECT_EQ(syscall_name(Syscall::kExecve), "execve");
  EXPECT_GT(model.cycles(Syscall::kExecve, ExecMode::kUmlTraced),
            model.cycles(Syscall::kFork, ExecMode::kUmlTraced));
  EXPECT_GT(model.slowdown(Syscall::kFork), 50.0);  // tt-mode fork is brutal
}

// ---------- UML lifecycle ----------

UserModeLinux make_vm(os::RootFsTemplate t = os::RootFsTemplate::kBase10,
                      std::int64_t mem = 256) {
  return UserModeLinux(must(os::share_rootfs(os::build_rootfs(t))), mem);
}

TEST(Uml, BootLifecycle) {
  auto vm = make_vm();
  EXPECT_EQ(vm.state(), VmState::kStopped);
  must(vm.begin_boot(kNow));
  EXPECT_EQ(vm.state(), VmState::kBooting);
  must(vm.finish_boot(kNow));
  EXPECT_EQ(vm.state(), VmState::kRunning);
  EXPECT_GE(vm.processes().count(), 6u);  // kernel threads + init + services
}

TEST(Uml, IllegalTransitionsRejected) {
  auto vm = make_vm();
  EXPECT_FALSE(vm.finish_boot(kNow).ok());  // not booting
  must(vm.begin_boot(kNow));
  EXPECT_FALSE(vm.begin_boot(kNow).ok());   // already booting
}

TEST(Uml, SpawnRequiresRunning) {
  auto vm = make_vm();
  EXPECT_FALSE(vm.spawn_process("x", "root", kNow).ok());
  must(vm.begin_boot(kNow));
  must(vm.finish_boot(kNow));
  EXPECT_TRUE(vm.spawn_process("httpd_19_5", "svc-web", kNow).ok());
  EXPECT_TRUE(vm.processes().find_by_command("httpd_19_5").has_value());
}

TEST(Uml, CrashEmptiesOnlyThisGuest) {
  auto web = make_vm();
  auto honeypot = make_vm(os::RootFsTemplate::kTomsrtbt, 128);
  for (auto* vm : {&web, &honeypot}) {
    must(vm->begin_boot(kNow));
    must(vm->finish_boot(kNow));
  }
  honeypot.crash();
  EXPECT_EQ(honeypot.state(), VmState::kCrashed);
  EXPECT_EQ(honeypot.processes().count(), 0u);
  EXPECT_EQ(web.state(), VmState::kRunning);
  EXPECT_GE(web.processes().count(), 6u);
}

TEST(Uml, MemoryCapEnforced) {
  auto vm = make_vm(os::RootFsTemplate::kBase10, 64);
  must(vm.begin_boot(kNow));
  must(vm.finish_boot(kNow));
  EXPECT_EQ(vm.memory_used_mb(), UserModeLinux::kKernelMemoryMb);
  must(vm.allocate_memory(40));
  EXPECT_FALSE(vm.allocate_memory(20).ok());  // 16 + 40 + 20 > 64
  vm.free_memory(40);
  EXPECT_TRUE(vm.allocate_memory(20).ok());
}

TEST(Uml, SyscallTimeUsesTracedPath) {
  auto vm = make_vm();
  SyscallCostModel model;
  EXPECT_EQ(vm.syscall_time(Syscall::kGetpid, 2.0),
            model.cost(Syscall::kGetpid, ExecMode::kUmlTraced, 2.0));
}

// ---------- Boot planning (Table 2 mechanics) ----------

TEST(BootPlan, FullServerBootsFarSlowerThanTailoredBase) {
  const auto seattle = host::HostSpec::seattle();
  auto base = make_vm(os::RootFsTemplate::kBase10);
  auto full = make_vm(os::RootFsTemplate::kRh72Server);
  const auto base_plan = base.plan_boot(seattle);
  const auto full_plan = full.plan_boot(seattle);
  EXPECT_GT(full_plan.total().to_seconds(), 4 * base_plan.total().to_seconds());
  EXPECT_GT(full_plan.services_started, 4 * base_plan.services_started);
}

TEST(BootPlan, SlowerHostBootsSlower) {
  auto vm = make_vm(os::RootFsTemplate::kBase10);
  const auto on_seattle = vm.plan_boot(host::HostSpec::seattle());
  const auto on_tacoma = vm.plan_boot(host::HostSpec::tacoma());
  EXPECT_GT(on_tacoma.total(), on_seattle.total());
}

TEST(BootPlan, RamDiskDependsOnHostMemory) {
  auto lfs = make_vm(os::RootFsTemplate::kLfs40, 256);
  EXPECT_TRUE(lfs.plan_boot(host::HostSpec::seattle()).used_ram_disk);
  EXPECT_FALSE(lfs.plan_boot(host::HostSpec::tacoma()).used_ram_disk);
}

TEST(BootPlan, DiskMountDominatesBigImageOnSmallHost) {
  // The Table 2 anomaly: S_III (400 MB, few services) boots fast on seattle
  // but 4x slower on tacoma because it falls off the RAM disk.
  auto lfs = make_vm(os::RootFsTemplate::kLfs40, 256);
  const auto seattle_plan = lfs.plan_boot(host::HostSpec::seattle());
  const auto tacoma_plan = lfs.plan_boot(host::HostSpec::tacoma());
  EXPECT_GT(tacoma_plan.total().to_seconds(),
            2.5 * seattle_plan.total().to_seconds());
  EXPECT_GT(tacoma_plan.mount_time, tacoma_plan.services_time);
}

TEST(BootPlan, TotalIsSumOfParts) {
  auto vm = make_vm();
  const auto plan = vm.plan_boot(host::HostSpec::seattle());
  EXPECT_EQ(plan.total(), plan.mount_time + plan.kernel_time + plan.services_time);
  EXPECT_GT(plan.total(), sim::SimTime::zero());
}

TEST(Uml, StateNames) {
  EXPECT_EQ(vm_state_name(VmState::kStopped), "stopped");
  EXPECT_EQ(vm_state_name(VmState::kCrashed), "crashed");
}

}  // namespace
}  // namespace soda::vm
