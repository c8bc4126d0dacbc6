// Bounded memo of raw greedy V(S), keyed by what a coalition's members
// are.
//
// ServiceState keys its V(S) table (exec::ValueCache) by slot mask, and
// an event on slot s invalidates every mask that holds s. Under a fixed
// demand, a mask's raw V(S) depends only on the effective configs of its
// members, so the state also files each value it computes here under a
// content key: the slot mask plus, per member, a small id of the
// member's state in its tenure (nominal, or one interned outage draw).
// An event that returns a slot to a state it had before (an outage-end,
// a revisited outage draw) finds the slice here instead of re-tabulating
// it. The key layout and the rules for dropping entries belong to
// ServiceState; this class is the table.
//
// Layout: open addressing with linear probing over a power-of-two array
// of (key, value) slots, grown by doubling up to the byte budget given
// at construction and at most half full, so a lookup probes a short run.
// A key must differ from kEmpty. Not thread-safe: ServiceState uses it
// under its mutex, outside its parallel tabulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace fedshare::serve {

class ValueMemo {
 public:
  /// The one key that cannot be stored (it marks an empty slot).
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// `budget_bytes` bounds the slot array: the table never grows past
  /// the largest power-of-two slot count whose slots fit in it.
  explicit ValueMemo(std::size_t budget_bytes);

  /// The value stored for `key`, if any.
  [[nodiscard]] std::optional<double> find(std::uint64_t key) const;

  /// Stores `value` for `key` (a present key keeps its value: values are
  /// deterministic, so the stored one is the right one). False when the
  /// table is at its budget and full: nothing was stored.
  bool store(std::uint64_t key, double value);

  /// Keeps only the entries whose key satisfies `keep(key)`, in the
  /// table's storage.
  template <typename Keep>
  void retain_if(Keep&& keep) {
    scratch_.clear();
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty && keep(slot.key)) scratch_.push_back(slot);
    }
    if (scratch_.size() != size_) refill_from_scratch();
  }

  /// Drops every entry (the storage is kept).
  void clear();

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    double value = 0.0;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept;
  // Places a key known to be absent; the table has a free slot.
  void place(std::uint64_t key, double value) noexcept;
  // Empties the table and places every slot of scratch_.
  void refill_from_scratch();

  std::size_t max_slots_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;    ///< empty until the first store
  std::vector<Slot> scratch_;  ///< survivors of a retain_if or a growth
};

}  // namespace fedshare::serve
