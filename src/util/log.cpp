#include "util/log.hpp"

#include <cstdio>

namespace soda::util {

std::string_view log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

Logger::Logger() : level_(LogLevel::kWarn) { sinks_.push_back(stderr_sink()); }

void Logger::set_level(LogLevel level) { level_.store(level); }

LogLevel Logger::level() const { return level_.load(); }

bool Logger::enabled(LogLevel level) const {
  const LogLevel threshold = level_.load();
  return level >= threshold && threshold != LogLevel::kOff;
}

void Logger::set_sink(Sink sink) {
  std::lock_guard lock(mutex_);
  sinks_.clear();
  if (sink) sinks_.push_back(std::move(sink));
}

void Logger::add_sink(Sink sink) {
  std::lock_guard lock(mutex_);
  if (sink) sinks_.push_back(std::move(sink));
}

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view message) {
  if (!enabled(level)) return;
  std::lock_guard lock(mutex_);
  LogRecord record{level, std::string(component), std::string(message)};
  for (const auto& sink : sinks_) sink(record);
}

Logger& global_logger() {
  static Logger logger;
  return logger;
}

Logger::Sink capture_sink(std::vector<LogRecord>& out) {
  return [&out](const LogRecord& record) { out.push_back(record); };
}

Logger::Sink stderr_sink() {
  return [](const LogRecord& record) {
    std::fprintf(stderr, "[%.*s] %s: %s\n",
                 static_cast<int>(log_level_name(record.level).size()),
                 log_level_name(record.level).data(), record.component.c_str(),
                 record.message.c_str());
  };
}

}  // namespace soda::util
