// The Master's service store, restructured for fleet scale (DESIGN.md §11):
// heavy ServiceRecords live in a slot-based deque (stable addresses, slots
// recycled through a free list) instead of std::map nodes; an InternTable
// assigns each service name a dense ServiceId for O(1) id-indexed access;
// and a transparent `std::map<std::string, slot, std::less<>>` keeps two
// things the seed relied on — heterogeneous string_view lookup with no
// temporary std::string, and name-ordered iteration, which the recovery
// path's trace output is pinned to byte-for-byte.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/daemon.hpp"
#include "core/ids.hpp"
#include "core/placement.hpp"
#include "core/service.hpp"
#include "core/switch.hpp"
#include "host/resources.hpp"
#include "image/image.hpp"
#include "snapshot/format.hpp"

namespace soda::core {

/// Everything the Master tracks per service. Priming-relevant config is
/// snapshotted here at admission; the image's repository is deliberately
/// NOT cached — every priming path re-resolves it by name through the
/// repository directory, so an unregistered repository fails cleanly.
struct ServiceRecord {
  std::string service_name;
  /// Dense id interned at admission; a re-created name keeps its id.
  ServiceId id;
  std::string asp_id;
  host::ResourceRequirement requirement;
  image::ImageLocation image_location;
  int listen_port = 0;
  bool customize_rootfs = true;
  AddressMode address_mode = AddressMode::kBridging;
  std::vector<NodeDescriptor> nodes;
  std::vector<Placement> placements;
  std::vector<image::ServiceComponent> components;  // empty when replicated
  std::unique_ptr<ServiceSwitch> service_switch;
  ServiceLifecycle lifecycle{""};
  int next_ordinal = 0;  // node-name counter, never reused after teardown
  /// Tells a re-created name from the record it replaced, so a node batch
  /// still priming for the old record never joins the new one. Not
  /// checkpointed: batches never outlive a quiesced world.
  std::uint64_t incarnation = 0;
};

class ServiceTable {
 public:
  ServiceTable() = default;
  ServiceTable(const ServiceTable&) = delete;
  ServiceTable& operator=(const ServiceTable&) = delete;

  /// Creates the slot for `name` (which must not be present) and interns
  /// its ServiceId. The returned record is blank except for service_name,
  /// id and a fresh incarnation; its address is stable until erase().
  ServiceRecord& create(std::string name) {
    const ServiceId id{ids_.intern(name)};
    if (id.index() >= slot_of_id_.size()) {
      slot_of_id_.resize(id.index() + 1, kInvalidInternId);
    }
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    ServiceRecord& record = slots_[slot];
    record.service_name = name;
    record.id = id;
    record.incarnation = ++created_;
    slot_of_id_[id.index()] = slot;
    by_name_.emplace(std::move(name), slot);
    return record;
  }

  /// Releases `name`'s slot (record contents destroyed now, slot recycled).
  /// False when the name is unknown.
  bool erase(std::string_view name) {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return false;
    const std::uint32_t slot = it->second;
    slot_of_id_[slots_[slot].id.index()] = kInvalidInternId;
    slots_[slot] = ServiceRecord{};  // drop switch, nodes, placements now
    free_slots_.push_back(slot);
    by_name_.erase(it);
    return true;
  }

  [[nodiscard]] ServiceRecord* find(std::string_view name) noexcept {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &slots_[it->second];
  }
  [[nodiscard]] const ServiceRecord* find(std::string_view name) const noexcept {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &slots_[it->second];
  }

  /// O(1) dense lookup; nullptr when the id's service was torn down.
  [[nodiscard]] ServiceRecord* find(ServiceId id) noexcept {
    if (!id.valid() || id.index() >= slot_of_id_.size()) return nullptr;
    const std::uint32_t slot = slot_of_id_[id.index()];
    return slot == kInvalidInternId ? nullptr : &slots_[slot];
  }

  /// The dense id ever assigned to `name` (valid even after teardown — ids
  /// outlive records), or an invalid id for names never admitted.
  [[nodiscard]] ServiceId id_of(std::string_view name) const noexcept {
    return ServiceId{ids_.find(name)};
  }

  [[nodiscard]] bool contains(std::string_view name) const noexcept {
    return by_name_.find(name) != by_name_.end();
  }
  [[nodiscard]] std::size_t size() const noexcept { return by_name_.size(); }

  /// Visits every live record in service-name order (the seed's std::map
  /// iteration order — the recovery trace pin depends on it).
  template <typename F>
  void for_each(F&& f) {
    for (const auto& [name, slot] : by_name_) f(name, slots_[slot]);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [name, slot] : by_name_) f(name, slots_[slot]);
  }

  /// Resolves a daemon by host name when placements are relinked on restore.
  using DaemonResolver = std::function<SodaDaemon*(std::string_view host_name)>;

  /// Snapshot walk over every slot (live records in full — switch and
  /// policy state included), the free list, and the intern table,
  /// preserving slot and id assignments exactly so recycled-slot/id
  /// behaviour replays identically. `resolve` relinks placements on load.
  template <class Ar>
  void serialize(Ar& ar, const DaemonResolver& resolve) {
    ar.begin_section("service_table");
    std::size_t slots = slots_.size();
    ar.count(slots);
    if constexpr (Ar::kLoading) {
      slots_.clear();
      by_name_.clear();
    }
    ar.seq(free_slots_, [&](auto& slot) {
      ar.u32(slot, snapshot::Below{slots});
    });
    // A slot is live unless the free list names it; each slot's live byte
    // must agree.
    std::vector<std::uint8_t> live(slots, 1);
    for (const std::uint32_t slot : free_slots_) {
      ar.check(live[slot] != 0, "service slot freed twice");
      live[slot] = 0;
    }
    for (std::size_t slot = 0; slot < slots && ar.ok(); ++slot) {
      if constexpr (Ar::kLoading) slots_.emplace_back();
      ar.expect("service slot liveness disagrees with the free list")
          .u8(live[slot]);
      if (!live[slot]) continue;
      serialize_record(ar, slots_[slot], resolve);
      if constexpr (Ar::kLoading) {
        by_name_.emplace(slots_[slot].service_name,
                         static_cast<std::uint32_t>(slot));
      }
    }
    ar.walk(ids_);
    ar.seq(slot_of_id_, [&](auto& slot) {
      ar.u32(slot);
      ar.check(slot == kInvalidInternId || slot < slots,
               "service slot out of range");
    });
    if constexpr (Ar::kLoading) {
      for (const auto& [name, slot] : by_name_) {
        ar.check(slots_[slot].id.index() < slot_of_id_.size(),
                 "service id out of range");
      }
    }
    ar.end_section();
  }

 private:
  template <class Ar>
  static void serialize_record(Ar& ar, ServiceRecord& r,
                               const DaemonResolver& resolve) {
    ar.begin_section("service");
    ar.str(r.service_name);
    ar.u32(r.id.value);
    ar.str(r.asp_id);
    ar.walk(r.requirement);
    ar.str(r.image_location.repository);
    ar.str(r.image_location.path);
    ar.i64(r.listen_port);
    ar.boolean(r.customize_rootfs);
    ar.u8(r.address_mode, AddressMode::kProxying);
    ar.seq(r.nodes, [&ar](auto& node) {
      ar.str(node.node_name);
      ar.str(node.host_name);
      ar.walk(node.address);
      ar.i64(node.port);
      ar.i64(node.capacity_units);
      ar.str(node.component);
    });
    // Placements reference daemons by host name; the resolver relinks them.
    ar.seq(r.placements, [&](auto& placement) {
      std::string host;
      if constexpr (!Ar::kLoading) host = placement.daemon->host_name();
      ar.str(host);
      if constexpr (Ar::kLoading) {
        placement.daemon = resolve(host);
        ar.check(placement.daemon != nullptr,
                 "placement references unknown host '" + host + "'");
      }
      ar.str(placement.node_name);
      ar.i64(placement.units);
      ar.str(placement.component);
    });
    ar.seq(r.components, [&ar](auto& component) { ar.walk(component); });
    bool switched = r.service_switch != nullptr;
    ar.boolean(switched);
    if constexpr (Ar::kLoading) {
      // Placeholder listen endpoint — the switch's own section overwrites it
      // (the ctor just requires a positive port).
      if (switched) {
        r.service_switch = std::make_unique<ServiceSwitch>(
            r.service_name, net::Ipv4Address{0}, 1);
      }
    }
    if (switched) ar.walk(*r.service_switch);
    if constexpr (Ar::kLoading) r.lifecycle = ServiceLifecycle{r.service_name};
    ar.walk(r.lifecycle);
    ar.i64(r.next_ordinal);
    ar.end_section();
  }

  std::deque<ServiceRecord> slots_;  // stable addresses across growth
  std::vector<std::uint32_t> free_slots_;
  std::map<std::string, std::uint32_t, std::less<>> by_name_;
  InternTable ids_;
  std::vector<std::uint32_t> slot_of_id_;  // ServiceId.index() -> slot
  std::uint64_t created_ = 0;              // last incarnation handed out
};

}  // namespace soda::core
