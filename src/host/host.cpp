#include "host/host.hpp"

#include "snapshot/format.hpp"
#include "util/contract.hpp"

namespace soda::host {
namespace {

// SliceId layout: high 32 bits hold slot+1 (so value 0 stays the invalid
// sentinel and legacy small literals like SliceId{999} decode to no slot),
// low 32 bits hold the slot's generation at reservation time.
constexpr std::uint64_t pack_slice(std::size_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
}

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

}  // namespace

ResourceVector HostSpec::capacity() const {
  return ResourceVector{cpu_ghz * 1000.0, ram_mb, disk_gb * 1024, nic_mbps};
}

HostSpec HostSpec::seattle() {
  HostSpec spec;
  spec.name = "seattle";
  spec.cpu_ghz = 2.6;   // Intel Xeon
  spec.ram_mb = 2048;
  spec.disk_gb = 73;    // server-class SCSI
  spec.nic_mbps = 100;
  spec.disk_mb_s = 55;
  spec.ramdisk_mb_s = 200;
  return spec;
}

HostSpec HostSpec::tacoma() {
  HostSpec spec;
  spec.name = "tacoma";
  spec.cpu_ghz = 1.8;   // Intel Pentium 4
  spec.ram_mb = 768;
  spec.disk_gb = 40;    // desktop IDE
  spec.nic_mbps = 100;
  spec.disk_mb_s = 25;
  spec.ramdisk_mb_s = 120;
  return spec;
}

HupHost::HupHost(HostSpec spec, net::NodeId lan_node, net::IpPool ip_pool)
    : spec_(std::move(spec)),
      lan_node_(lan_node),
      ip_pool_(std::move(ip_pool)),
      capacity_(spec_.capacity()) {}

std::size_t HupHost::slot_of(SliceId id) const noexcept {
  const std::uint64_t raw_slot = id.value >> 32;
  if (raw_slot == 0) return kNoSlot;
  const std::size_t slot = static_cast<std::size_t>(raw_slot - 1);
  const auto gen = static_cast<std::uint32_t>(id.value & 0xffffffffULL);
  if (slot >= slice_live_.size() || slice_live_[slot] == 0 ||
      slice_generations_[slot] != gen) {
    return kNoSlot;
  }
  return slot;
}

Result<SliceId> HupHost::reserve(const std::string& service_name,
                                 const ResourceVector& resources) {
  SODA_EXPECTS(resources.non_negative());
  if (!available().fits(resources)) {
    return Error{"host " + name() + " cannot fit " + resources.to_string() +
                 " (available: " + available().to_string() + ")"};
  }
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slice_resources_[slot] = resources;
    slice_services_[slot] = service_name;
    slice_live_[slot] = 1;
  } else {
    slot = slice_live_.size();
    slice_resources_.push_back(resources);
    slice_services_.push_back(service_name);
    slice_generations_.push_back(1);
    slice_live_.push_back(1);
  }
  reserved_ += resources;
  ++live_count_;
  return SliceId{pack_slice(slot, slice_generations_[slot])};
}

Status HupHost::release(SliceId id) {
  const std::size_t slot = slot_of(id);
  if (slot == kNoSlot) {
    return Error{"host " + name() + ": no such slice " +
                 std::to_string(id.value)};
  }
  reserved_ -= slice_resources_[slot];
  --live_count_;
  slice_live_[slot] = 0;
  ++slice_generations_[slot];  // invalidate outstanding handles to this slot
  slice_services_[slot].clear();
  slice_resources_[slot] = ResourceVector{};
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  return {};
}

Status HupHost::resize(SliceId id, const ResourceVector& resources) {
  SODA_EXPECTS(resources.non_negative());
  const std::size_t slot = slot_of(id);
  if (slot == kNoSlot) {
    return Error{"host " + name() + ": no such slice " +
                 std::to_string(id.value)};
  }
  // What would be available if this slice were released.
  const ResourceVector headroom = available() + slice_resources_[slot];
  if (!headroom.fits(resources)) {
    return Error{"host " + name() + " cannot resize slice to " +
                 resources.to_string() + " (headroom: " + headroom.to_string() +
                 ")"};
  }
  reserved_ += resources - slice_resources_[slot];
  slice_resources_[slot] = resources;
  return {};
}

std::optional<Slice> HupHost::find_slice(SliceId id) const {
  const std::size_t slot = slot_of(id);
  if (slot == kNoSlot) return std::nullopt;
  return Slice{id, slice_services_[slot], slice_resources_[slot]};
}

std::vector<Slice> HupHost::slices() const {
  std::vector<Slice> out;
  out.reserve(live_count_);
  for (std::size_t slot = 0; slot < slice_live_.size(); ++slot) {
    if (slice_live_[slot] == 0) continue;
    out.push_back(Slice{SliceId{pack_slice(slot, slice_generations_[slot])},
                        slice_services_[slot], slice_resources_[slot]});
  }
  return out;
}

net::Bridge& HupHost::bridge() {
  if (!bridge_) bridge_ = std::make_unique<net::Bridge>(name(), lan_node_);
  return *bridge_;
}

void HupHost::set_public_address(net::Ipv4Address address) {
  SODA_EXPECTS(proxy_ == nullptr);  // must precede first proxy() use
  public_address_ = address;
}

net::Ipv4Address HupHost::public_address() const {
  return public_address_ ? *public_address_ : ip_pool_.first().offset(100);
}

net::ProxyTable& HupHost::proxy() {
  if (!proxy_) {
    proxy_ = std::make_unique<net::ProxyTable>(name(), public_address());
  }
  return *proxy_;
}

template <class Ar>
void HupHost::serialize(Ar& ar) {
  ar.begin_section("host");
  ar.walk(reserved_);
  // Slot arrays travel interleaved, one record per slot.
  std::size_t slots = slice_live_.size();
  ar.count(slots);
  if constexpr (Ar::kLoading) {
    slice_resources_.clear();
    slice_services_.clear();
    slice_generations_.clear();
    slice_live_.clear();
  }
  for (std::size_t slot = 0; slot < slots && ar.ok(); ++slot) {
    if constexpr (Ar::kLoading) {
      slice_resources_.emplace_back();
      slice_services_.emplace_back();
      slice_generations_.emplace_back();
      slice_live_.emplace_back();
    }
    ar.walk(slice_resources_[slot]);
    ar.str(slice_services_[slot]);
    ar.u32(slice_generations_[slot]);
    ar.u8(slice_live_[slot]);
  }
  ar.seq(free_slots_, [&](auto& slot) {
    ar.u32(slot, snapshot::Below{slice_live_.size()});
    ar.check(!ar.ok() || slice_live_[slot] == 0, "live host slot listed free");
  });
  ar.u64(live_count_);
  ar.walk(ip_pool_);
  bool bridged = bridge_ != nullptr;
  ar.boolean(bridged);
  if constexpr (Ar::kLoading) {
    bridge_ =
        bridged ? std::make_unique<net::Bridge>(name(), lan_node_) : nullptr;
  }
  if (bridged) ar.walk(*bridge_);
  bool has_public = public_address_.has_value();
  ar.boolean(has_public);
  if constexpr (Ar::kLoading) {
    public_address_.reset();
    if (has_public) public_address_.emplace();
  }
  if (has_public) ar.walk(*public_address_);
  bool proxied = proxy_ != nullptr;
  ar.boolean(proxied);
  if constexpr (Ar::kLoading) {
    proxy_ = proxied
                 ? std::make_unique<net::ProxyTable>(name(), public_address())
                 : nullptr;
  }
  if (proxied) ar.walk(*proxy_);
  ar.end_section();
}
template void HupHost::serialize(snapshot::Writer&);
template void HupHost::serialize(snapshot::Reader&);

}  // namespace soda::host
