// Resource vectors and the paper's resource-requirement vocabulary: a
// machine configuration M is a tuple of CPU / memory / disk / bandwidth
// (Table 1), and an ASP requests a service as <n, M> — "n machines of
// configuration M" (§3).
#pragma once

#include <cstdint>
#include <string>

#include "util/result.hpp"

namespace soda::host {

/// Amounts of the four resource types SODA allocates. Arithmetic is
/// component-wise; `fits` is the admission test.
struct ResourceVector {
  double cpu_mhz = 0;
  std::int64_t memory_mb = 0;
  std::int64_t disk_mb = 0;
  double bandwidth_mbps = 0;

  friend ResourceVector operator+(const ResourceVector& a, const ResourceVector& b);
  friend ResourceVector operator-(const ResourceVector& a, const ResourceVector& b);
  ResourceVector& operator+=(const ResourceVector& other);
  ResourceVector& operator-=(const ResourceVector& other);
  friend bool operator==(const ResourceVector&, const ResourceVector&) = default;

  /// Component-wise scaling (used for slow-down inflation and n× slices).
  [[nodiscard]] ResourceVector scaled(double factor) const;

  /// True when every component of `need` is <= the corresponding component
  /// of *this (with a small tolerance on the continuous components).
  [[nodiscard]] bool fits(const ResourceVector& need) const noexcept;

  /// True when all components are >= 0.
  [[nodiscard]] bool non_negative() const noexcept;

  /// "cpu=512MHz mem=256MB disk=1024MB bw=10Mbps"
  [[nodiscard]] std::string to_string() const;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.f64(cpu_mhz);
    ar.i64(memory_mb);
    ar.i64(disk_mb);
    ar.f64(bandwidth_mbps);
  }
};

/// The paper's machine configuration M. Semantically identical to a
/// ResourceVector but kept as a distinct type: M is the *unit* of
/// allocation, and a virtual service node's capacity is always an integer
/// multiple of M (§3.2).
struct MachineConfig {
  double cpu_mhz = 512;
  std::int64_t memory_mb = 256;
  std::int64_t disk_mb = 1024;
  double bandwidth_mbps = 10;

  friend bool operator==(const MachineConfig&, const MachineConfig&) = default;

  [[nodiscard]] ResourceVector to_vector() const;
  /// k machine instances worth of resources (k >= 1).
  [[nodiscard]] ResourceVector times(int k) const;

  /// The example configuration from the paper's Table 1.
  static MachineConfig table1_example() { return MachineConfig{}; }

  template <class Ar>
  void serialize(Ar& ar) {
    ar.f64(cpu_mhz);
    ar.i64(memory_mb);
    ar.i64(disk_mb);
    ar.f64(bandwidth_mbps);
  }
};

/// The ASP's resource requirement <n, M>: n machines of configuration M.
struct ResourceRequirement {
  int n = 1;
  MachineConfig m;

  friend bool operator==(const ResourceRequirement&,
                         const ResourceRequirement&) = default;

  [[nodiscard]] ResourceVector total() const { return m.times(n); }
  /// "<3, cpu=512MHz mem=256MB disk=1024MB bw=10Mbps>"
  [[nodiscard]] std::string to_string() const;

  template <class Ar>
  void serialize(Ar& ar) {
    ar.i64(n);
    ar.walk(m);
  }
};

}  // namespace soda::host
