#include "host/resources.hpp"

#include <cstdio>

#include "util/contract.hpp"

namespace soda::host {

namespace {
// Tolerance for continuous components (MHz / Mbps) so repeated
// reserve/release cycles do not accumulate rejection-causing dust.
constexpr double kSlack = 1e-6;
}  // namespace

ResourceVector operator+(const ResourceVector& a, const ResourceVector& b) {
  return ResourceVector{a.cpu_mhz + b.cpu_mhz, a.memory_mb + b.memory_mb,
                        a.disk_mb + b.disk_mb, a.bandwidth_mbps + b.bandwidth_mbps};
}

ResourceVector operator-(const ResourceVector& a, const ResourceVector& b) {
  return ResourceVector{a.cpu_mhz - b.cpu_mhz, a.memory_mb - b.memory_mb,
                        a.disk_mb - b.disk_mb, a.bandwidth_mbps - b.bandwidth_mbps};
}

ResourceVector& ResourceVector::operator+=(const ResourceVector& other) {
  *this = *this + other;
  return *this;
}

ResourceVector& ResourceVector::operator-=(const ResourceVector& other) {
  *this = *this - other;
  return *this;
}

ResourceVector ResourceVector::scaled(double factor) const {
  SODA_EXPECTS(factor >= 0);
  return ResourceVector{cpu_mhz * factor,
                        static_cast<std::int64_t>(static_cast<double>(memory_mb) * factor),
                        static_cast<std::int64_t>(static_cast<double>(disk_mb) * factor),
                        bandwidth_mbps * factor};
}

bool ResourceVector::fits(const ResourceVector& need) const noexcept {
  return need.cpu_mhz <= cpu_mhz + kSlack && need.memory_mb <= memory_mb &&
         need.disk_mb <= disk_mb && need.bandwidth_mbps <= bandwidth_mbps + kSlack;
}

bool ResourceVector::non_negative() const noexcept {
  return cpu_mhz >= -kSlack && memory_mb >= 0 && disk_mb >= 0 &&
         bandwidth_mbps >= -kSlack;
}

std::string ResourceVector::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "cpu=%.0fMHz mem=%lldMB disk=%lldMB bw=%.1fMbps",
                cpu_mhz, static_cast<long long>(memory_mb),
                static_cast<long long>(disk_mb), bandwidth_mbps);
  return buf;
}

ResourceVector MachineConfig::to_vector() const {
  return ResourceVector{cpu_mhz, memory_mb, disk_mb, bandwidth_mbps};
}

ResourceVector MachineConfig::times(int k) const {
  SODA_EXPECTS(k >= 1);
  return to_vector().scaled(static_cast<double>(k));
}

std::string ResourceRequirement::to_string() const {
  // Appended, not prepended: GCC 12 at -O3 warns (-Wrestrict, a false
  // positive) on "<" + std::string.
  std::string text(1, '<');
  text += std::to_string(n);
  text += ", ";
  text += m.to_vector().to_string();
  text += '>';
  return text;
}

}  // namespace soda::host
