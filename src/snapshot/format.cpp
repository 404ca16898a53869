#include "snapshot/format.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "util/contract.hpp"
#include "util/fnv.hpp"

namespace soda::snapshot {

namespace {

constexpr char kMagic[8] = {'S', 'O', 'D', 'A', 'S', 'N', 'A', 'P'};

// Fixed-width fields are little-endian on the wire. On a little-endian
// host that is the in-memory order, so a field is one copy of its bytes.
static_assert(std::endian::native == std::endian::little,
              "the snapshot codec copies fields in host byte order");

/// Writes `v` at `to` in wire order.
template <class T>
void store_le(char* to, T v) noexcept {
  std::memcpy(to, &v, sizeof v);
}

/// Reads the `T` stored in wire order at `from`.
template <class T>
T load_le(const char* from) noexcept {
  T v{};
  std::memcpy(&v, from, sizeof v);
  return v;
}

/// Appends `v` to `out` in wire order.
template <class T>
void append_le(std::string& out, T v) {
  char bytes[sizeof v];
  store_le(bytes, v);
  out.append(bytes, sizeof v);
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  return util::fnv1a(util::kFnvBasisSnapshot, bytes);
}

std::uint64_t digest(std::string_view snapshot) noexcept {
  SODA_EXPECTS(snapshot.size() >= 8);
  const auto checksum =
      load_le<std::uint64_t>(snapshot.data() + snapshot.size() - 8);
  return util::fnv1a_word(checksum, checksum);
}

// --- Writer -----------------------------------------------------------------

Writer::Writer() {
  buffer_.append(kMagic, sizeof kMagic);
  u32(kFormatVersion);
}

void Writer::u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

void Writer::u16(std::uint16_t v) { append_le(buffer_, v); }

void Writer::u32(std::uint32_t v) { append_le(buffer_, v); }

void Writer::u64(std::uint64_t v) { append_le(buffer_, v); }

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buffer_.append(v.data(), v.size());
}

void Writer::repeat(Span span) {
  // Reserve first: the copy reads from the buffer it grows.
  buffer_.reserve(buffer_.size() + span.length);
  buffer_.append(buffer_.data() + span.offset, span.length);
}

void Writer::begin_section(std::string_view name) {
  u16(static_cast<std::uint16_t>(name.size()));
  buffer_.append(name.data(), name.size());
  open_sections_.push_back(buffer_.size());
  u64(0);  // length placeholder, backpatched by end_section
}

void Writer::end_section() {
  SODA_EXPECTS(!open_sections_.empty());
  const std::size_t at = open_sections_.back();
  open_sections_.pop_back();
  const std::uint64_t length = buffer_.size() - (at + 8);
  store_le(buffer_.data() + at, length);
}

std::string Writer::finish() {
  SODA_EXPECTS(open_sections_.empty());
  u64(fnv1a(buffer_));
  return std::move(buffer_);
}

// --- Reader -----------------------------------------------------------------

Reader::Reader(std::string_view bytes) : bytes_(bytes) {
  if (bytes_.size() < sizeof kMagic + 4 + 8) {
    fail("truncated: " + std::to_string(bytes_.size()) + " bytes");
    return;
  }
  if (bytes_.substr(0, sizeof kMagic) != std::string_view(kMagic, sizeof kMagic)) {
    fail("bad magic: not a SODA snapshot");
    return;
  }
  payload_end_ = bytes_.size() - 8;
  const auto stored = load_le<std::uint64_t>(bytes_.data() + payload_end_);
  if (stored != fnv1a(bytes_.substr(0, payload_end_))) {
    fail("checksum mismatch: snapshot is corrupt");
    return;
  }
  cursor_ = sizeof kMagic;
  const std::uint32_t version = u32();
  if (ok() && version != kFormatVersion) {
    fail("format version " + std::to_string(version) + " unsupported (have " +
         std::to_string(kFormatVersion) + "); regenerate the checkpoint");
  }
}

void Reader::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

bool Reader::need(std::size_t n, const char* what) {
  if (!ok()) return false;
  if (payload_end_ - cursor_ < n) {
    fail(std::string("truncated reading ") + what);
    return false;
  }
  if (!open_sections_.empty() && open_sections_.back().second < cursor_ + n) {
    fail("read past end of section '" + open_sections_.back().first + "'");
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!need(1, "u8")) return 0;
  return static_cast<std::uint8_t>(bytes_[cursor_++]);
}

template <class T>
T Reader::fixed(const char* what) {
  if (!need(sizeof(T), what)) return 0;
  const T v = load_le<T>(bytes_.data() + cursor_);
  cursor_ += sizeof(T);
  return v;
}

std::uint16_t Reader::u16() { return fixed<std::uint16_t>("u16"); }

std::uint32_t Reader::u32() { return fixed<std::uint32_t>("u32"); }

std::uint64_t Reader::u64() { return fixed<std::uint64_t>("u64"); }

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t n = u32();
  if (!need(n, "string")) return {};
  std::string v(bytes_.substr(cursor_, n));
  cursor_ += n;
  return v;
}

void Reader::count(std::size_t& n) {
  const std::uint64_t raw = u64();
  if (!ok()) return;
  const std::size_t end =
      open_sections_.empty() ? payload_end_ : open_sections_.back().second;
  if (raw > end - cursor_) {
    fail("count " + std::to_string(raw) + " overruns the " +
         std::to_string(end - cursor_) + " byte(s) left in its section");
    return;
  }
  n = static_cast<std::size_t>(raw);
}

void Reader::begin_section(std::string_view name) {
  const std::uint16_t n = u16();
  if (!need(n, "section name")) return;
  const std::string_view found = bytes_.substr(cursor_, n);
  if (found != name) {
    fail("expected section '" + std::string(name) + "', found '" +
         std::string(found) + "'");
    return;
  }
  cursor_ += n;
  const std::uint64_t length = u64();
  if (!ok()) return;
  if (payload_end_ - cursor_ < length) {
    fail("section '" + std::string(name) + "' overruns the snapshot");
    return;
  }
  open_sections_.emplace_back(std::string(name), cursor_ + length);
}

std::string_view Reader::section_at_cursor(std::string_view name) {
  const std::size_t start = cursor_;
  begin_section(name);
  if (!ok()) return {};
  const std::size_t end = open_sections_.back().second;
  open_sections_.pop_back();
  cursor_ = start;
  return bytes_.substr(start, end - start);
}

void Reader::end_section() {
  if (!ok()) return;
  SODA_EXPECTS(!open_sections_.empty());
  const auto& [name, end] = open_sections_.back();
  if (cursor_ != end) {
    fail("section '" + name + "': " + std::to_string(end - cursor_) +
         " byte(s) left unconsumed");
    return;
  }
  open_sections_.pop_back();
}

// --- Files ------------------------------------------------------------------

Status write_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Error{"cannot open " + tmp + " for writing"};
  const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (wrote != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Error{"short write to " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error{"cannot rename " + tmp + " to " + path};
  }
  return {};
}

Result<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Error{"cannot open " + path};
  std::string bytes;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

}  // namespace soda::snapshot
