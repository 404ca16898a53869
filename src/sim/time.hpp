// Simulated time. SimTime is a strong integer nanosecond type so durations
// and instants cannot be confused with plain integers, and event ordering is
// exact (no floating-point drift across long runs).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace soda::sim {

/// An instant or duration on the simulated clock, in integer nanoseconds.
class SimTime {
 public:
  constexpr SimTime() noexcept : ns_(0) {}
  constexpr explicit SimTime(std::int64_t nanoseconds) noexcept : ns_(nanoseconds) {}

  static constexpr SimTime nanoseconds(std::int64_t n) noexcept { return SimTime(n); }
  static constexpr SimTime microseconds(std::int64_t us) noexcept {
    return SimTime(us * 1'000);
  }
  static constexpr SimTime milliseconds(std::int64_t ms) noexcept {
    return SimTime(ms * 1'000'000);
  }
  static constexpr SimTime seconds(double s) noexcept {
    return SimTime(static_cast<std::int64_t>(s * 1e9));
  }
  static constexpr SimTime zero() noexcept { return SimTime(0); }
  static constexpr SimTime max() noexcept { return SimTime(INT64_MAX); }

  [[nodiscard]] constexpr std::int64_t ns() const noexcept { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const noexcept { return static_cast<double>(ns_) / 1e9; }
  [[nodiscard]] constexpr double to_milliseconds() const noexcept {
    return static_cast<double>(ns_) / 1e6;
  }

  friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept {
    return SimTime(a.ns_ + b.ns_);
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept {
    return SimTime(a.ns_ - b.ns_);
  }
  friend constexpr SimTime operator*(SimTime a, std::int64_t k) noexcept {
    return SimTime(a.ns_ * k);
  }
  friend constexpr SimTime operator*(std::int64_t k, SimTime a) noexcept {
    return SimTime(a.ns_ * k);
  }
  constexpr SimTime& operator+=(SimTime other) noexcept {
    ns_ += other.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime other) noexcept {
    ns_ -= other.ns_;
    return *this;
  }
  friend constexpr auto operator<=>(SimTime, SimTime) noexcept = default;

 private:
  std::int64_t ns_;
};

/// The most simulated seconds an input (a scenario's clock, a chaos horizon,
/// a traffic trace) may name: about 32 years, so instants built from a few
/// such spans stay far inside SimTime's ~292-year range.
inline constexpr std::int64_t kMaxInputSeconds = 1'000'000'000;

/// Formats an instant as "12.345s" for logs.
inline std::string to_string(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6fs", t.to_seconds());
  return buf;
}

}  // namespace soda::sim
