#include "net/address.hpp"

#include <cstdio>

#include "util/contract.hpp"
#include "util/strings.hpp"

namespace soda::net {

namespace {

/// Strict dotted-quad component: 1-3 decimal digits, nothing else — no
/// whitespace, no sign, no zero padding. util::parse_int deliberately trims
/// (config files rely on that), so the strictness lives here.
std::optional<std::uint32_t> parse_strict_quad(std::string_view part) noexcept {
  if (part.empty() || part.size() > 3) return std::nullopt;
  if (part.size() > 1 && part.front() == '0') return std::nullopt;
  std::uint32_t quad = 0;
  for (const char c : part) {
    if (c < '0' || c > '9') return std::nullopt;
    quad = quad * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (quad > 255) return std::nullopt;
  return quad;
}

}  // namespace

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) noexcept {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const auto& part : parts) {
    const auto quad = parse_strict_quad(part);
    if (!quad) return std::nullopt;
    value = (value << 8) | *quad;
  }
  return Ipv4Address(value);
}

std::string Ipv4Address::to_string() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (value_ >> 24) & 0xFF,
                (value_ >> 16) & 0xFF, (value_ >> 8) & 0xFF, value_ & 0xFF);
  return buf;
}

IpPool::IpPool(Ipv4Address first, std::size_t count)
    : first_(first), allocated_(count, false) {
  SODA_EXPECTS(count >= 1);
}

Result<Ipv4Address> IpPool::allocate() {
  for (std::size_t i = 0; i < allocated_.size(); ++i) {
    if (!allocated_[i]) {
      allocated_[i] = true;
      ++in_use_;
      return first_.offset(static_cast<std::uint32_t>(i));
    }
  }
  return Error{"IP pool exhausted"};
}

void IpPool::release(Ipv4Address address) {
  SODA_EXPECTS(contains(address));
  const std::size_t idx = address.value() - first_.value();
  SODA_EXPECTS(allocated_[idx]);
  allocated_[idx] = false;
  --in_use_;
}

bool IpPool::contains(Ipv4Address address) const noexcept {
  return address.value() >= first_.value() &&
         address.value() < first_.value() + allocated_.size();
}

bool IpPool::is_allocated(Ipv4Address address) const noexcept {
  if (!contains(address)) return false;
  return allocated_[address.value() - first_.value()];
}

bool IpPool::disjoint(const IpPool& a, const IpPool& b) noexcept {
  const std::uint64_t a_lo = a.first_.value();
  const std::uint64_t a_hi = a_lo + a.allocated_.size();
  const std::uint64_t b_lo = b.first_.value();
  const std::uint64_t b_hi = b_lo + b.allocated_.size();
  return a_hi <= b_lo || b_hi <= a_lo;
}

}  // namespace soda::net
