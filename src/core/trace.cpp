#include "core/trace.hpp"

#include <cstdio>

#include "util/contract.hpp"

namespace soda::core {

std::string_view trace_kind_name(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kRequestReceived: return "request-received";
    case TraceKind::kAdmitted:        return "admitted";
    case TraceKind::kRejected:        return "rejected";
    case TraceKind::kPrimingStarted:  return "priming-started";
    case TraceKind::kImageDownloaded: return "image-downloaded";
    case TraceKind::kNodeBooted:      return "node-booted";
    case TraceKind::kSwitchCreated:   return "switch-created";
    case TraceKind::kServiceRunning:  return "service-running";
    case TraceKind::kResized:         return "resized";
    case TraceKind::kTornDown:        return "torn-down";
    case TraceKind::kHealthChanged:   return "health-changed";
    case TraceKind::kPrimingFailed:   return "priming-failed";
    case TraceKind::kHostDown:        return "host-down";
    case TraceKind::kHostUp:          return "host-up";
    case TraceKind::kNodeLost:        return "node-lost";
    case TraceKind::kDegraded:        return "degraded";
    case TraceKind::kRecovered:       return "recovered";
  }
  return "unknown";
}

TraceLog::TraceLog(std::size_t capacity) : capacity_(capacity) {
  SODA_EXPECTS(capacity >= 1);
}

std::string ControlPlaneEvent::render() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "t=%.3fs", at.to_seconds());
  std::string out = buf;
  out += " [" + actor + "] ";
  out += trace_kind_name(kind);
  out += " " + subject;
  if (!detail.empty()) out += ": " + detail;
  return out;
}

void TraceLog::record(ControlPlaneEvent event) {
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(event));
}

void TraceLog::clear() {
  events_.clear();
  dropped_ = 0;
}

std::vector<ControlPlaneEvent> TraceLog::for_subject(
    const std::string& subject) const {
  std::vector<ControlPlaneEvent> out;
  for (const auto& event : events_) {
    // A node subject like "web/0" also matches its service "web".
    if (event.subject == subject ||
        (event.subject.size() > subject.size() &&
         event.subject.compare(0, subject.size(), subject) == 0 &&
         event.subject[subject.size()] == '/')) {
      out.push_back(event);
    }
  }
  return out;
}

std::vector<TraceKind> TraceLog::kinds_for(const std::string& subject) const {
  std::vector<TraceKind> out;
  for (const auto& event : for_subject(subject)) out.push_back(event.kind);
  return out;
}

std::string TraceLog::render() const {
  std::string out;
  for (const auto& event : events_) {
    out += event.render();
    out += '\n';
  }
  return out;
}

}  // namespace soda::core
