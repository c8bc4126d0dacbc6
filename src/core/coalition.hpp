// Coalition: an immutable set of players encoded as a 64-bit mask.
//
// Players are indexed 0..n-1 with n <= Coalition::kMaxPlayers. All
// coalitional-game algorithms in fedshare::game operate on this type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fedshare::game {

/// A set of players (value type, cheap to copy).
class Coalition {
 public:
  /// Maximum supported number of players.
  static constexpr int kMaxPlayers = 64;

  /// The empty coalition.
  constexpr Coalition() noexcept = default;

  /// The grand coalition {0, ..., num_players-1}.
  static Coalition grand(int num_players);

  /// The singleton coalition {player}.
  static Coalition single(int player);

  /// A coalition directly from a bitmask.
  static constexpr Coalition from_bits(std::uint64_t bits) noexcept {
    Coalition c;
    c.bits_ = bits;
    return c;
  }

  /// Whether `player` is a member. Throws std::out_of_range on bad index.
  [[nodiscard]] bool contains(int player) const;

  /// This coalition with `player` added / removed (no-op if already so).
  [[nodiscard]] Coalition with(int player) const;
  [[nodiscard]] Coalition without(int player) const;

  /// Number of members.
  [[nodiscard]] int size() const noexcept {
    return __builtin_popcountll(bits_);
  }

  [[nodiscard]] bool empty() const noexcept { return bits_ == 0; }
  [[nodiscard]] std::uint64_t bits() const noexcept { return bits_; }

  /// Set relations and operations.
  [[nodiscard]] bool is_subset_of(Coalition other) const noexcept {
    return (bits_ & ~other.bits_) == 0;
  }
  [[nodiscard]] Coalition united(Coalition other) const noexcept {
    return from_bits(bits_ | other.bits_);
  }
  [[nodiscard]] Coalition intersected(Coalition other) const noexcept {
    return from_bits(bits_ & other.bits_);
  }
  [[nodiscard]] Coalition minus(Coalition other) const noexcept {
    return from_bits(bits_ & ~other.bits_);
  }

  friend bool operator==(Coalition a, Coalition b) noexcept {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Coalition a, Coalition b) noexcept {
    return a.bits_ != b.bits_;
  }

  /// Members in ascending order.
  [[nodiscard]] std::vector<int> members() const;

  /// Renders like "{0,2,5}" ("{}" when empty).
  [[nodiscard]] std::string to_string() const;

 private:
  std::uint64_t bits_ = 0;
};

/// All 2^n coalitions over n players, in mask order (empty first, grand
/// last). Throws std::invalid_argument for n < 0 or n past
/// kMaxTablePlayers (core/limits.hpp); larger n should use sampling.
[[nodiscard]] std::vector<Coalition> all_coalitions(int num_players);

/// Calls `fn(subset)` for every subset of `s`, including the empty set and
/// `s` itself. Visits 2^|s| subsets.
template <typename Fn>
void for_each_subset(Coalition s, Fn&& fn) {
  const std::uint64_t mask = s.bits();
  std::uint64_t sub = 0;
  while (true) {
    fn(Coalition::from_bits(sub));
    if (sub == mask) break;
    sub = (sub - mask) & mask;  // next subset in mask order
  }
}

}  // namespace fedshare::game
