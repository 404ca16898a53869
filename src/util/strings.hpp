// Small string helpers shared across parsers (config files, HTTP messages,
// RPM manifests). All functions are pure and allocation is explicit.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace soda::util {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char sep);

/// Splits `text` on runs of ASCII whitespace, dropping empty fields.
std::vector<std::string> split_whitespace(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix) noexcept;

/// ASCII lower-casing (sufficient for HTTP header names).
std::string to_lower(std::string_view text);

/// Parses a non-negative decimal integer; rejects trailing garbage.
std::optional<long long> parse_int(std::string_view text) noexcept;

/// Parses a non-negative, finite decimal number with optional fraction
/// ("inf" and "nan" are refused).
std::optional<double> parse_double(std::string_view text) noexcept;

/// Formats a byte count with binary units ("29.3 MB", "1.0 GB").
std::string format_bytes(long long bytes);

/// Formats seconds with one decimal ("3.0 sec").
std::string format_seconds(double seconds);

}  // namespace soda::util
