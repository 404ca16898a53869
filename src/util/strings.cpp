#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace soda::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<long long> parse_int(std::string_view text) noexcept {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  long long value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || value < 0) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> parse_double(std::string_view text) noexcept {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  double value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || value < 0 ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::string format_bytes(long long bytes) {
  char buf[64];
  const double mb = 1024.0 * 1024.0;
  if (bytes >= 1024 * 1024 * 1024LL) {
    std::snprintf(buf, sizeof buf, "%.1f GB", static_cast<double>(bytes) / (mb * 1024.0));
  } else if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f MB", static_cast<double>(bytes) / mb);
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%.1f KB", static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%lld B", bytes);
  }
  return buf;
}

std::string format_seconds(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f sec", seconds);
  return buf;
}

}  // namespace soda::util
