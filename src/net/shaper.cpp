#include "net/shaper.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace soda::net {

TokenBucket::TokenBucket(double rate_bytes_per_sec, double burst_bytes)
    : rate_(rate_bytes_per_sec), burst_(burst_bytes), tokens_(burst_bytes) {
  SODA_EXPECTS(rate_ > 0);
  SODA_EXPECTS(burst_ >= 1);
}

void TokenBucket::refill(sim::SimTime now) const {
  if (now <= last_refill_) return;
  const double dt = (now - last_refill_).to_seconds();
  tokens_ = std::min(burst_, tokens_ + rate_ * dt);
  last_refill_ = now;
}

bool TokenBucket::try_consume(double bytes, sim::SimTime now) {
  SODA_EXPECTS(bytes >= 0);
  SODA_EXPECTS(bytes <= burst_);
  refill(now);
  if (tokens_ + 1e-9 < bytes) return false;
  tokens_ -= bytes;
  return true;
}

sim::SimTime TokenBucket::available_at(double bytes, sim::SimTime now) const {
  SODA_EXPECTS(bytes >= 0);
  SODA_EXPECTS(bytes <= burst_);
  refill(now);
  if (tokens_ >= bytes) return now;
  // Round the wait up to a whole simulated nanosecond so that consuming at
  // the returned instant always succeeds; truncating would promise a time at
  // which the bucket is still up to one tick of refill short.
  const double wait_sec = (bytes - tokens_) / rate_;
  return now + sim::SimTime::nanoseconds(
                   static_cast<std::int64_t>(std::ceil(wait_sec * 1e9)));
}

double TokenBucket::tokens(sim::SimTime now) const {
  refill(now);
  return tokens_;
}

void TrafficShaper::configure(Ipv4Address address, double limit_mbps) {
  SODA_EXPECTS(limit_mbps > 0);
  auto it = entries_.find(address);
  if (it != entries_.end()) {
    it->second.limit_mbps = limit_mbps;
    network_.set_link_capacity(it->second.link, limit_mbps);
    return;
  }
  LinkId link;
  if (!spare_links_.empty()) {
    link = spare_links_.back();
    spare_links_.pop_back();
    network_.set_link_capacity(link, limit_mbps);
  } else {
    link = network_.add_virtual_link(limit_mbps);
  }
  entries_.emplace(address, Entry{link, limit_mbps});
}

bool TrafficShaper::remove(Ipv4Address address) {
  auto it = entries_.find(address);
  if (it == entries_.end()) return false;
  spare_links_.push_back(it->second.link);
  entries_.erase(it);
  return true;
}

std::optional<LinkId> TrafficShaper::link_for(Ipv4Address address) const {
  auto it = entries_.find(address);
  if (it == entries_.end()) return std::nullopt;
  return it->second.link;
}

std::optional<double> TrafficShaper::limit_mbps(Ipv4Address address) const {
  auto it = entries_.find(address);
  if (it == entries_.end()) return std::nullopt;
  return it->second.limit_mbps;
}

}  // namespace soda::net
