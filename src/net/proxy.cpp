#include "net/proxy.hpp"

#include <algorithm>

#include "snapshot/format.hpp"
#include "util/contract.hpp"

namespace soda::net {

ProxyTable::ProxyTable(std::string host_name, Ipv4Address public_address,
                       int first_port, int port_count)
    : host_name_(std::move(host_name)),
      public_(public_address),
      first_port_(first_port),
      port_count_(port_count),
      next_port_(first_port),
      slots_(static_cast<std::size_t>(port_count)) {
  SODA_EXPECTS(first_port > 0 && first_port + port_count <= 65536);
  SODA_EXPECTS(port_count >= 1);
}

ProxyTable::Entry* ProxyTable::slot(int public_port) noexcept {
  if (public_port < first_port_ || public_port >= first_port_ + port_count_) {
    return nullptr;
  }
  return &slots_[static_cast<std::size_t>(public_port - first_port_)];
}

const ProxyTable::Entry* ProxyTable::slot(int public_port) const noexcept {
  if (public_port < first_port_ || public_port >= first_port_ + port_count_) {
    return nullptr;
  }
  return &slots_[static_cast<std::size_t>(public_port - first_port_)];
}

void ProxyTable::erase(Entry& entry) noexcept {
  entry = Entry{};
  --entries_;
}

Result<int> ProxyTable::forward(ProxyTarget target) {
  // Scan from the cursor for a free port; wrap once.
  for (int probe = 0; probe < port_count_; ++probe) {
    const int port = first_port_ + (next_port_ - first_port_ + probe) % port_count_;
    Entry& entry = slots_[static_cast<std::size_t>(port - first_port_)];
    if (!entry.in_use) {
      entry = Entry{target, 0, true, false};
      ++entries_;
      next_port_ = port + 1;
      if (next_port_ >= first_port_ + port_count_) next_port_ = first_port_;
      return port;
    }
  }
  return Error{"proxy@" + host_name_ + ": public port range exhausted"};
}

Status ProxyTable::forward_on(int public_port, ProxyTarget target) {
  Entry* entry = slot(public_port);
  if (!entry) {
    return Error{"proxy@" + host_name_ + ": port " + std::to_string(public_port) +
                 " outside managed range"};
  }
  if (entry->in_use) {
    return Error{"proxy@" + host_name_ + ": port " + std::to_string(public_port) +
                 " already forwarded"};
  }
  *entry = Entry{target, 0, true, false};
  ++entries_;
  return {};
}

bool ProxyTable::remove(int public_port) {
  Entry* entry = slot(public_port);
  if (!entry || !entry->in_use) return false;
  erase(*entry);
  return true;
}

bool ProxyTable::begin_drain(int public_port) {
  Entry* entry = slot(public_port);
  if (!entry || !entry->in_use) return false;
  if (entry->active == 0) {
    erase(*entry);
  } else {
    entry->draining = true;
  }
  return true;
}

void ProxyTable::connection_closed(int public_port) {
  Entry* entry = slot(public_port);
  if (!entry || !entry->in_use) return;
  SODA_EXPECTS(entry->active > 0);
  --entry->active;
  if (entry->draining && entry->active == 0) erase(*entry);
}

std::optional<ProxyTarget> ProxyTable::forward_lookup(int public_port) {
  Entry* entry = slot(public_port);
  if (!entry || !entry->in_use || entry->draining) {
    ++missed_;
    return std::nullopt;
  }
  ++forwarded_;
  ++entry->active;
  return entry->target;
}

std::optional<ProxyTarget> ProxyTable::peek(int public_port) const {
  const Entry* entry = slot(public_port);
  if (!entry || !entry->in_use) return std::nullopt;
  return entry->target;
}

bool ProxyTable::draining(int public_port) const {
  const Entry* entry = slot(public_port);
  return entry != nullptr && entry->in_use && entry->draining;
}

template <class Ar>
void ProxyTable::serialize(Ar& ar) {
  ar.begin_section("proxy");
  auto&& range = ar.expect("proxy table range mismatch");
  range.u32(public_.value());
  range.i64(first_port_);
  range.i64(port_count_);
  ar.i64(next_port_);
  ar.u64(entries_);
  // Only slots in use travel, each prefixed by its index.
  if constexpr (Ar::kLoading) {
    for (Entry& entry : slots_) entry = Entry{};
  }
  std::size_t in_use = static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(), [](const Entry& e) { return e.in_use; }));
  ar.count(in_use);
  std::size_t slot = 0;
  for (std::size_t i = 0; i < in_use && ar.ok(); ++i, ++slot) {
    if constexpr (!Ar::kLoading) {
      while (!slots_[slot].in_use) ++slot;
    }
    ar.u64(slot, snapshot::Below{slots_.size()});
    if (!ar.ok()) break;
    Entry& entry = slots_[slot];
    entry.in_use = true;
    ar.walk(entry.target.private_address);
    ar.i64(entry.target.private_port);
    ar.u64(entry.active);
    ar.boolean(entry.draining);
  }
  ar.u64(forwarded_);
  ar.u64(missed_);
  ar.end_section();
}
template void ProxyTable::serialize(snapshot::Writer&);
template void ProxyTable::serialize(snapshot::Reader&);

}  // namespace soda::net
