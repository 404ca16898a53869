// Versioned binary checkpoint format (DESIGN.md §14). A snapshot is a flat
// byte string: an 8-byte magic, a format-version word, a tree of named
// length-prefixed sections, and a trailing FNV-1a checksum. The section
// framing makes a truncated, reordered, or version-skewed checkpoint fail
// loudly instead of silently misreading.
//
// One walk per type. Every stateful type lists its snapshot fields once, in
// a `template <class Ar> void serialize(Ar& ar)` instantiated for Writer
// (save) and Reader (load). Both classes offer the same field layer:
// `ar.u32(field)` writes the field as a u32 on save and reads it back on
// load, so the wire width is written at the call site and a save/load
// asymmetry cannot be expressed. Load-only work (rebuilding guests and
// bridges) sits in short `if constexpr (Ar::kLoading)` branches around that
// field list; save-only work (the quiesce check) runs before the walk.
//
// Load validation lives in the Reader's field layer: reads narrow with a
// range check, counts are checked against the bytes left in their section
// before anything is allocated, indices and enums carry their bound at the
// call site, `expect` fields must equal the restore target's own config,
// and `check` states the cross-field conditions a walk relies on. A failed
// check records the first error and leaves every later field untouched, so
// a hostile value ends in a Status error instead of a crash on first use.
//
// Immutable objects that several owners share (guests booting one rootfs)
// go through `ar.shared(ptr)`: every owner's bytes are the object's own
// section, exactly as a walk would write them, but the Writer walks each
// object once and copies its bytes for the other owners, and the Reader
// parses each distinct section once and shares the object among the owners
// whose sections have the same bytes.
//
// The byte string doubles as the world's end-state digest: two worlds are
// bit-identical exactly when their snapshots are, so `fnv1a(bytes)` is the
// save→load→continue gate value.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/contract.hpp"
#include "util/result.hpp"

namespace soda::snapshot {

/// Bumped whenever the snapshot layout changes incompatibly. A Reader
/// refuses any other version with a clear error — old checkpoints are
/// regenerated, never guessed at.
inline constexpr std::uint32_t kFormatVersion = 1;

/// FNV-1a 64 over a byte string (the checksum and digest primitive).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// fnv1a(snapshot) of a finished snapshot, in one step. FNV-1a folds bytes
/// in order and the trailing checksum is the FNV-1a of everything before
/// it, so the digest continues from the checksum over its own eight bytes.
/// `snapshot` must come from Writer::finish (the checksum is trusted).
[[nodiscard]] std::uint64_t digest(std::string_view snapshot) noexcept;

/// Exclusive upper bound of an index field: `ar.u32(slot, Below{n})`.
struct Below {
  std::size_t limit;
};

namespace detail {
/// What a count-prefixed sequence is rebuilt from, one element at a time.
template <class C>
struct Element {
  using type = typename C::value_type;
};
template <class K, class V, class Less, class Alloc>
struct Element<std::map<K, V, Less, Alloc>> {
  using type = std::pair<K, V>;
};
}  // namespace detail

/// Serializer. All integers little-endian, doubles bit-cast to u64.
class Writer {
 public:
  static constexpr bool kLoading = false;

  Writer();

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view v);
  void time(sim::SimTime t) { i64(t.ns()); }

  // --- Field layer (save side): a field of any integer or enum type is
  // written at the width the method names; bounds only matter on load.
  template <class T, class... Bound>
  void u8(const T& v, const Bound&...) {
    u8(static_cast<std::uint8_t>(v));
  }
  template <class T, class... Bound>
  void u32(const T& v, const Bound&...) {
    u32(static_cast<std::uint32_t>(v));
  }
  template <class T, class... Bound>
  void u64(const T& v, const Bound&...) {
    u64(static_cast<std::uint64_t>(v));
  }
  template <class T>
  void i64(const T& v) {
    i64(static_cast<std::int64_t>(v));
  }
  /// A nested object's own walk. The Writer only reads fields, so const
  /// objects (map keys, a const world being saved) are walked as well.
  template <class T>
  void walk(const T& object) {
    const_cast<T&>(object).serialize(*this);
  }
  /// A shared immutable object, whose walk writes the one section
  /// `T::kSection`. The first owner walks it; a later owner of the same
  /// object gets a copy of those bytes, which do not depend on where they
  /// sit (section lengths are relative).
  template <class T>
  void shared(const std::shared_ptr<const T>& object) {
    SODA_EXPECTS(object != nullptr);
    if (const auto it = shared_.find(object.get()); it != shared_.end()) {
      repeat(it->second);
      return;
    }
    const std::size_t start = buffer_.size();
    walk(*object);
    shared_.emplace(object.get(), Span{start, buffer_.size() - start});
  }
  /// A sequence length.
  void count(std::size_t n) { u64(n); }
  /// A count-prefixed sequence; `each` walks one element.
  template <class C, class F>
  void seq(const C& items, F&& each) {
    count(items.size());
    for (const auto& item : items) each(item);
  }
  /// Fields that the restore target must already hold: saved as usual.
  Writer& expect(std::string_view) { return *this; }
  /// Load-side validation; nothing to check on save.
  void check(bool, std::string_view) {}
  [[nodiscard]] static constexpr bool ok() noexcept { return true; }

  /// Opens a named, length-prefixed section; sections nest. The length is
  /// backpatched by end_section, so owners need not precompute sizes.
  void begin_section(std::string_view name);
  void end_section();

  /// Appends the checksum and returns the finished snapshot. The Writer is
  /// spent afterwards. All sections must be closed.
  std::string finish();

  [[nodiscard]] std::size_t bytes_written() const noexcept {
    return buffer_.size();
  }

 private:
  struct Span {
    std::size_t offset;
    std::size_t length;
  };
  /// Appends a copy of bytes already written.
  void repeat(Span span);

  std::string buffer_;
  std::vector<std::size_t> open_sections_;  // offsets of length placeholders
  std::unordered_map<const void*, Span> shared_;  // object -> its section
};

/// Deserializer with sticky error state: the first failure (bad magic,
/// version skew, checksum mismatch, truncation, wrong section name) is
/// recorded and every later read returns a default, so call sites read
/// straight-line and check ok() once at the end.
class Reader {
 public:
  static constexpr bool kLoading = true;

  /// Validates magic, version, and checksum up front.
  explicit Reader(std::string_view bytes);

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  sim::SimTime time() { return sim::SimTime(i64()); }

  // --- Field layer (load side): each reads the wire value into the field,
  // unless the Reader has failed, in which case the field is left as is.
  template <class T>
  void u8(T& v) {
    assign(v, u8());
  }
  template <class T>
  void u32(T& v) {
    assign(v, u32());
  }
  template <class T>
  void u64(T& v) {
    assign(v, u64());
  }
  template <class T>
  void i64(T& v) {
    assign(v, i64());
  }
  void f64(double& v) { set(v, f64()); }
  void boolean(bool& v) { set(v, boolean()); }
  void boolean(std::vector<bool>::reference v) {
    const bool b = boolean();
    if (ok()) v = b;
  }
  void str(std::string& v) { set(v, str()); }
  void time(sim::SimTime& v) { set(v, time()); }
  /// An enum stored as u8; values past `last` fail the read.
  template <class E>
    requires std::is_enum_v<E>
  void u8(E& v, E last) {
    const std::uint8_t raw = u8();
    if (!ok()) return;
    if (raw > static_cast<std::underlying_type_t<E>>(last)) {
      fail("enum value " + std::to_string(raw) + " out of range");
      return;
    }
    v = static_cast<E>(raw);
  }
  /// Index fields: values at or past the bound fail the read.
  template <class T>
  void u32(T& v, Below bound) {
    index(v, u32(), bound);
  }
  template <class T>
  void u64(T& v, Below bound) {
    index(v, u64(), bound);
  }
  /// A nested object's own walk.
  template <class T>
  void walk(T& object) {
    object.serialize(*this);
  }
  /// Load side of Writer::shared. A section whose bytes equal an earlier
  /// shared section's, compared in full, is the same object: it is framed
  /// like any section (its name must be `T::kSection` and it must fit),
  /// then skipped, and `object` shares the one parsed first. A section
  /// seen for the first time is parsed into a fresh object. Each shared
  /// type has its own section name, which the bytes include, so a match
  /// is always a `T`.
  template <class T>
  void shared(std::shared_ptr<const T>& object) {
    const std::string_view bytes = section_at_cursor(T::kSection);
    if (!ok()) return;
    if (const auto it = shared_.find(bytes); it != shared_.end()) {
      cursor_ += bytes.size();
      object = std::static_pointer_cast<const T>(it->second);
      return;
    }
    auto fresh = std::make_shared<T>();
    walk(*fresh);
    if (!ok()) return;
    shared_.emplace(bytes, fresh);
    object = std::move(fresh);
  }
  /// A sequence length, checked against the bytes left in the section
  /// (every element takes at least one) before anyone allocates for it.
  void count(std::size_t& n);
  /// A count-prefixed sequence, rebuilt element by element into `items`.
  template <class C, class F>
  void seq(C& items, F&& each) {
    std::size_t n = 0;
    count(n);
    items.clear();
    for (std::size_t i = 0; i < n && ok(); ++i) {
      typename detail::Element<C>::type item{};
      each(item);
      if (ok()) items.insert(items.end(), std::move(item));
    }
  }

  /// Reads fields that must equal the restore target's own value (its
  /// config, a size fixed at construction); a mismatch fails with `what`.
  class Expected {
   public:
    Expected(Reader& reader, std::string_view what)
        : reader_(reader), what_(what) {}
    template <class T>
    void u8(const T& v) {
      same(reader_.u8(), v);
    }
    template <class T>
    void u32(const T& v) {
      same(reader_.u32(), v);
    }
    template <class T>
    void u64(const T& v) {
      same(reader_.u64(), v);
    }
    template <class T>
    void i64(const T& v) {
      same(reader_.i64(), v);
    }
    void f64(double v) { same(reader_.f64(), v); }
    void boolean(bool v) { same(reader_.boolean(), v); }
    void time(sim::SimTime v) { same(reader_.time(), v); }

   private:
    template <class Wire, class T>
    void same(const Wire& got, const T& want) {
      if (reader_.ok() && got != static_cast<Wire>(want)) {
        reader_.fail(std::string(what_));
      }
    }
    Reader& reader_;
    std::string_view what_;
  };
  [[nodiscard]] Expected expect(std::string_view what) { return {*this, what}; }
  /// Fails the load with `what` unless `condition` holds.
  void check(bool condition, std::string_view what) {
    if (ok() && !condition) fail(std::string(what));
  }

  /// Enters the section that must come next; fails when the name differs.
  void begin_section(std::string_view name);
  /// Leaves the innermost section; fails unless exactly consumed.
  void end_section();

  /// True while no read has failed.
  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  /// The first failure, empty while ok().
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// Result-typed view of the final state, for plumbing into Status returns.
  [[nodiscard]] Status status() const {
    if (ok()) return {};
    return Error{"snapshot: " + error_};
  }

  void fail(std::string message);

 private:
  [[nodiscard]] bool need(std::size_t n, const char* what);
  /// The fixed-width little-endian field at the cursor, or 0 past the
  /// section or snapshot (`what` names it in the error).
  template <class T>
  T fixed(const char* what);
  /// The whole section `name` that starts at the cursor, header included,
  /// framed as begin_section frames it; the cursor does not move.
  [[nodiscard]] std::string_view section_at_cursor(std::string_view name);

  template <class T, class Wire>
  void assign(T& field, Wire value) {
    static_assert(!std::is_enum_v<T>, "enum fields name their last value");
    if (!ok()) return;
    if (!std::in_range<T>(value)) {
      fail("value " + std::to_string(value) + " out of range for its field");
      return;
    }
    field = static_cast<T>(value);
  }
  template <class T, class Wire>
  void index(T& field, Wire value, Below bound) {
    if (ok() && value >= bound.limit) {
      fail("index " + std::to_string(value) + " out of range (limit " +
           std::to_string(bound.limit) + ")");
    }
    assign(field, value);
  }
  template <class T, class Wire>
  void set(T& field, Wire&& value) {
    if (ok()) field = std::forward<Wire>(value);
  }

  std::string_view bytes_;
  std::size_t cursor_ = 0;
  std::size_t payload_end_ = 0;  // checksum excluded
  std::vector<std::pair<std::string, std::size_t>> open_sections_;
  std::string error_;
  /// Shared sections parsed so far, keyed by their bytes in the input.
  std::unordered_map<std::string_view, std::shared_ptr<const void>> shared_;
};

/// Writes `bytes` to `path` atomically enough for checkpoint artifacts
/// (temp file + rename).
Status write_file(const std::string& path, std::string_view bytes);

/// Reads a whole checkpoint file.
Result<std::string> read_file(const std::string& path);

}  // namespace soda::snapshot
