// IPv4 addressing for virtual service nodes. Each SODA Daemon owns a pool of
// addresses; pools of different HUP hosts must be disjoint (paper §4.3,
// "Dynamic configuration for internetworking").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace soda::net {

/// An IPv4 address as a host-order 32-bit value with dotted-quad formatting.
class Ipv4Address {
 public:
  constexpr Ipv4Address() noexcept : value_(0) {}
  constexpr explicit Ipv4Address(std::uint32_t host_order) noexcept
      : value_(host_order) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d) noexcept
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  /// Parses "128.10.9.125"; rejects malformed or out-of-range quads.
  static std::optional<Ipv4Address> parse(std::string_view text) noexcept;

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }
  [[nodiscard]] std::string to_string() const;

  /// The address numerically `offset` above this one.
  [[nodiscard]] constexpr Ipv4Address offset(std::uint32_t n) const noexcept {
    return Ipv4Address(value_ + n);
  }

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) noexcept = default;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.u32(value_);
  }

 private:
  std::uint32_t value_;
};

/// A contiguous, exclusive range [first, first + count) of addresses owned by
/// one SODA Daemon. Allocation is lowest-free-first so released addresses are
/// reused deterministically.
class IpPool {
 public:
  /// count must be >= 1.
  IpPool(Ipv4Address first, std::size_t count);

  /// Allocates the lowest free address, or an error when exhausted.
  Result<Ipv4Address> allocate();

  /// Returns an address to the pool. It is a contract violation to release an
  /// address outside the pool or one that is not currently allocated.
  void release(Ipv4Address address);

  [[nodiscard]] bool contains(Ipv4Address address) const noexcept;
  [[nodiscard]] bool is_allocated(Ipv4Address address) const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return allocated_.size(); }
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  [[nodiscard]] std::size_t available() const noexcept { return capacity() - in_use_; }
  [[nodiscard]] Ipv4Address first() const noexcept { return first_; }

  /// True when the address ranges of `a` and `b` do not overlap — the
  /// cross-host invariant the SODA Master enforces.
  static bool disjoint(const IpPool& a, const IpPool& b) noexcept;

  /// Snapshot walk over the allocation bitmap. Because allocation is
  /// lowest-free-first, the bitmap fully determines every future allocation,
  /// so a restored pool hands out the same addresses the original would
  /// have. A load needs a pool constructed over the same range.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("ip_pool");
    auto&& range = ar.expect("ip pool range mismatch");
    range.u32(first_.value());
    range.u64(allocated_.size());
    for (std::size_t i = 0; i < allocated_.size(); ++i) {
      ar.boolean(allocated_[i]);
    }
    ar.u64(in_use_);
    ar.end_section();
  }

 private:
  Ipv4Address first_;
  std::vector<bool> allocated_;
  std::size_t in_use_ = 0;
};

}  // namespace soda::net
