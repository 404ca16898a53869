// Fleet-scale identity layer (DESIGN.md §11): every hot control-plane path
// keys its state by dense uint32 handles instead of std::string. An
// InternTable assigns each distinct name a stable, dense id (never reused,
// never rehashed on the hot path) with heterogeneous std::string_view
// lookup, so façade APIs that must keep string signatures resolve names
// without materializing a temporary std::string. HostId / ServiceId /
// NodeId are distinct wrapper types over those handles — a HostId cannot be
// confused with a ServiceId at compile time — and IdBitSet is the dense
// replacement for std::set<std::string> membership tests (down hosts,
// visited sets): one bit per id, O(1) test/set/reset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/fnv.hpp"

namespace soda::core {

/// Sentinel for "name was never interned".
inline constexpr std::uint32_t kInvalidInternId = 0xffffffffU;

namespace detail {

/// Transparent FNV-1a hash so lookups take std::string_view without
/// building a std::string key.
struct StringViewHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view text) const noexcept {
    return static_cast<std::size_t>(
        util::fnv1a(util::kFnvBasisSnapshot, text));
  }
};

struct StringViewEq {
  using is_transparent = void;
  [[nodiscard]] bool operator()(std::string_view a,
                                std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace detail

/// Bidirectional name <-> dense-id table. Ids are assigned in intern order
/// starting at 0 and are never removed, so they index vectors directly.
/// Names live in a deque — element addresses are stable under growth, which
/// lets the index keep string_views into the stored names (one string per
/// name, ever).
class InternTable {
 public:
  InternTable() = default;
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  /// Id for `name`, interning it on first sight.
  std::uint32_t intern(std::string_view name) {
    if (const auto it = index_.find(name); it != index_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    const std::string& stored = names_.emplace_back(name);
    index_.emplace(std::string_view(stored), id);
    return id;
  }

  /// Id for `name` if it was interned before, kInvalidInternId otherwise.
  /// Never allocates.
  [[nodiscard]] std::uint32_t find(std::string_view name) const noexcept {
    const auto it = index_.find(name);
    return it == index_.end() ? kInvalidInternId : it->second;
  }

  [[nodiscard]] bool contains(std::string_view name) const noexcept {
    return find(name) != kInvalidInternId;
  }

  /// The name behind a valid id (reference stable for the table's life).
  [[nodiscard]] const std::string& name(std::uint32_t id) const noexcept {
    return names_[id];
  }

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

  /// The same names under the same ids.
  [[nodiscard]] bool operator==(const InternTable& other) const {
    return names_ == other.names_;
  }

  /// Checkpoints names in intern order — ids are positions, so restoring
  /// the sequence restores every dense id bit-for-bit.
  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("intern_table");
    ar.seq(names_, [&ar](auto& name) { ar.str(name); });
    ar.end_section();
    if constexpr (Ar::kLoading) {
      index_.clear();
      for (std::size_t id = 0; id < names_.size(); ++id) {
        index_.emplace(std::string_view(names_[id]),
                       static_cast<std::uint32_t>(id));
      }
    }
  }

 private:
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint32_t, detail::StringViewHash,
                     detail::StringViewEq>
      index_;
};

/// CRTP-free strong id wrapper: distinct types per entity kind, all sharing
/// the dense-uint32 representation. Default-constructed ids are invalid.
template <typename Tag>
struct DenseId {
  std::uint32_t value = kInvalidInternId;

  constexpr DenseId() = default;
  constexpr explicit DenseId(std::uint32_t v) noexcept : value(v) {}

  [[nodiscard]] constexpr bool valid() const noexcept {
    return value != kInvalidInternId;
  }
  /// The id as a vector index (callers must check valid() first).
  [[nodiscard]] constexpr std::size_t index() const noexcept { return value; }

  friend constexpr auto operator<=>(DenseId, DenseId) noexcept = default;
};

/// One HUP host == one registered daemon. HostIds are assigned in daemon
/// registration order, so "iterate hosts by HostId" is exactly the seed's
/// registration-order iteration.
using HostId = DenseId<struct HostIdTag>;
/// One hosted service. Interned at admission; a name re-created after
/// teardown keeps its id (the intern table never forgets).
using ServiceId = DenseId<struct ServiceIdTag>;
/// One virtual service node ("web/3"). Ordinals are never reused within a
/// record's life, so NodeIds identify node incarnations unambiguously.
using NodeId = DenseId<struct NodeIdTag>;

/// Dense bitset keyed by DenseId: the fleet-scale replacement for
/// std::set<std::string> membership (down hosts, scratch visited sets).
/// Word-addressed storage grows on set(); test() of an id past the end is
/// simply false, so readers never resize.
template <typename Id>
class IdBitSet {
 public:
  void set(Id id) {
    const std::size_t word = id.index() >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = 1ULL << (id.index() & 63);
    if ((words_[word] & bit) == 0) {
      words_[word] |= bit;
      ++count_;
    }
  }

  void reset(Id id) noexcept {
    const std::size_t word = id.index() >> 6;
    if (word >= words_.size()) return;
    const std::uint64_t bit = 1ULL << (id.index() & 63);
    if ((words_[word] & bit) != 0) {
      words_[word] &= ~bit;
      --count_;
    }
  }

  [[nodiscard]] bool test(Id id) const noexcept {
    const std::size_t word = id.index() >> 6;
    return word < words_.size() &&
           (words_[word] & (1ULL << (id.index() & 63))) != 0;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  void clear() noexcept {
    words_.clear();
    count_ = 0;
  }

  template <class Ar>
  void serialize(Ar& ar) {
    ar.begin_section("id_bitset");
    ar.seq(words_, [&ar](auto& word) { ar.u64(word); });
    ar.u64(count_);
    ar.end_section();
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

using HostSet = IdBitSet<HostId>;

/// Human-readable "name#id" tag for logs and test failure messages.
[[nodiscard]] std::string intern_debug_tag(const InternTable& table,
                                           std::uint32_t id);

}  // namespace soda::core
