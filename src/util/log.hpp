// Leveled logger for the SODA control plane. Components log through a shared
// Logger so tests can capture and assert on control-plane activity, and so
// benches can silence priming chatter.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace soda::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Returns the fixed-width upper-case name of a level ("DEBUG", "INFO ", ...).
std::string_view log_level_name(LogLevel level) noexcept;

/// A single emitted log record.
struct LogRecord {
  LogLevel level;
  std::string component;  ///< e.g. "master", "daemon@seattle"
  std::string message;
};

/// Thread-safe leveled logger. Records below the threshold are dropped
/// without taking the lock: the level is atomic, and only emission and sink
/// changes serialize. By default records go to stderr; sinks can be
/// replaced (e.g. captured in tests) or disabled entirely.
class Logger {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  Logger();

  /// Sets the minimum level that will be emitted.
  void set_level(LogLevel level);
  [[nodiscard]] LogLevel level() const;

  /// True when a record at `level` would be emitted. Lock-free; hot paths
  /// check this before concatenating a message so a silenced logger costs
  /// no allocations.
  [[nodiscard]] bool enabled(LogLevel level) const;

  /// Replaces all sinks with `sink`. Passing nullptr silences the logger.
  void set_sink(Sink sink);
  /// Adds an additional sink (e.g. a test capture alongside stderr).
  void add_sink(Sink sink);

  void log(LogLevel level, std::string_view component, std::string_view message);

  void debug(std::string_view component, std::string_view message) {
    log(LogLevel::kDebug, component, message);
  }
  void info(std::string_view component, std::string_view message) {
    log(LogLevel::kInfo, component, message);
  }
  void warn(std::string_view component, std::string_view message) {
    log(LogLevel::kWarn, component, message);
  }
  void error(std::string_view component, std::string_view message) {
    log(LogLevel::kError, component, message);
  }

 private:
  std::atomic<LogLevel> level_;
  std::mutex mutex_;  // guards sinks_ and emission
  std::vector<Sink> sinks_;
};

/// Process-wide logger shared by all SODA entities.
Logger& global_logger();

/// Creates a sink that appends records to `out` (used by tests).
Logger::Sink capture_sink(std::vector<LogRecord>& out);

/// Creates the default stderr sink.
Logger::Sink stderr_sink();

}  // namespace soda::util
