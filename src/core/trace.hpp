// Structured control-plane tracing. Every SODA entity records typed events
// (admission, priming stages, boot, switch creation, resize, teardown,
// health transitions) through the ControlPlaneBus into a bounded in-memory
// trace. Operators read it as text; tests assert on exact event sequences —
// which freezes the control-plane protocol far more precisely than
// log-string matching.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace soda::core {

enum class TraceKind {
  kRequestReceived,   // agent accepted an API call
  kAdmitted,          // master admitted <n, M>
  kRejected,          // master rejected a request
  kPrimingStarted,    // daemon began priming a node
  kImageDownloaded,   // image arrived at the daemon
  kNodeBooted,        // guest running, app started
  kSwitchCreated,     // switch up with its config file
  kServiceRunning,    // creation complete
  kResized,           // resize applied
  kTornDown,          // service gone
  kHealthChanged,     // monitor flipped a backend
  kPrimingFailed,     // a node's priming pipeline failed
  kHostDown,          // failure detector declared a HUP host dead
  kHostUp,            // a dead host's heartbeats resumed
  kNodeLost,          // a placement died with its host
  kDegraded,          // service running below its admitted capacity
  kRecovered,         // lost capacity re-created on surviving hosts
};

std::string_view trace_kind_name(TraceKind kind) noexcept;

/// The one control-plane record: what the bus publishes, the trace keeps,
/// and the log echoes.
struct ControlPlaneEvent {
  sim::SimTime at;
  TraceKind kind;
  std::string actor;    // "master", "daemon@seattle", "agent", "monitor"
  std::string subject;  // service or node name
  std::string detail;   // free-form specifics

  /// "t=1.234s [daemon@seattle] node-booted web/0: ..." without a newline:
  /// one line of TraceLog::render(), and the message of the log echo.
  [[nodiscard]] std::string render() const;
};

/// Bounded FIFO of control-plane events, owned by the ControlPlaneBus. Not
/// thread-safe (simulation is single-threaded); cheap enough to stay
/// enabled everywhere.
class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 4096);

  /// Appends `event`, dropping the oldest one when full.
  void record(ControlPlaneEvent event);

  [[nodiscard]] const std::deque<ControlPlaneEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  void clear();

  /// Events about `subject` (service or node), in order.
  [[nodiscard]] std::vector<ControlPlaneEvent> for_subject(
      const std::string& subject) const;

  /// The ordered kinds observed for `subject` — what sequence tests check.
  [[nodiscard]] std::vector<TraceKind> kinds_for(const std::string& subject) const;

  /// Every event's render() line, each ending in a newline.
  [[nodiscard]] std::string render() const;

  /// Checkpoints the retained window and the dropped counter; chaos digests
  /// fold trace events, so the ring must restore bit-for-bit.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("trace_log");
    ar.expect("trace log capacity mismatch").u64(capacity_);
    ar.seq(events_, [&ar](auto& event) {
      ar.time(event.at);
      ar.u8(event.kind, TraceKind::kRecovered);
      ar.str(event.actor);
      ar.str(event.subject);
      ar.str(event.detail);
    });
    ar.u64(dropped_);
    ar.end_section();
  }

 private:
  std::size_t capacity_;
  std::deque<ControlPlaneEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace soda::core
