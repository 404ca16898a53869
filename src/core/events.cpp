#include "core/events.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "util/log.hpp"

namespace soda::core {

namespace {

/// The standard counters, each fed by one event kind.
constexpr std::pair<TraceKind, std::string_view> kCounters[] = {
    {TraceKind::kAdmitted, "admissions"},
    {TraceKind::kRejected, "rejections"},
    {TraceKind::kPrimingStarted, "primings"},
    {TraceKind::kPrimingFailed, "priming_failures"},
    {TraceKind::kNodeBooted, "boots"},
    {TraceKind::kServiceRunning, "services_started"},
    {TraceKind::kResized, "resizes"},
    {TraceKind::kTornDown, "teardowns"},
    {TraceKind::kHostDown, "failures"},
    {TraceKind::kHostUp, "host_recoveries"},
    {TraceKind::kNodeLost, "placements_lost"},
    {TraceKind::kRecovered, "recoveries"},
};

/// Host-down and health-changed are the facts an operator sees at the
/// default (warn) level; the rest of the protocol narrates at info.
util::LogLevel echo_level(TraceKind kind) noexcept {
  return kind == TraceKind::kHostDown || kind == TraceKind::kHealthChanged
             ? util::LogLevel::kWarn
             : util::LogLevel::kInfo;
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  for (const auto& [kind, name] : kCounters) counters_.emplace(name, 0);
}

double MetricsRegistry::value(const std::string& name) const {
  if (auto it = counters_.find(name); it != counters_.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = gauges_.find(name); it != gauges_.end()) return it->second();
  return 0.0;
}

bool MetricsRegistry::has(const std::string& name) const {
  return counters_.count(name) > 0 || gauges_.count(name) > 0;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, count] : counters_) out.push_back(name);
  for (const auto& [name, read] : gauges_) {
    if (counters_.count(name) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MetricsRegistry::observe(const ControlPlaneEvent& event) {
  for (const auto& [kind, name] : kCounters) {
    if (kind == event.kind) {
      increment(std::string(name));
      return;
    }
  }
}

std::size_t ControlPlaneBus::subscribe(Subscriber subscriber) {
  const std::size_t id = next_id_++;
  subscribers_.emplace_back(id, std::move(subscriber));
  return id;
}

void ControlPlaneBus::unsubscribe(std::size_t id) {
  subscribers_.erase(
      std::remove_if(subscribers_.begin(), subscribers_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      subscribers_.end());
}

void ControlPlaneBus::record(ControlPlaneEvent event) {
  const util::LogLevel level = echo_level(event.kind);
  if (util::Logger& log = util::global_logger(); log.enabled(level)) {
    log.log(level, event.actor, event.render());
  }
  trace_.record(std::move(event));
}

void ControlPlaneBus::publish(sim::SimTime at, TraceKind kind,
                              std::string actor, std::string subject,
                              std::string detail) {
  ++published_;
  ControlPlaneEvent event{at, kind, std::move(actor), std::move(subject),
                          std::move(detail)};
  record(event);
  metrics_.observe(event);
  for (const auto& [id, subscriber] : subscribers_) subscriber(event);
}

}  // namespace soda::core
