#include "serve/value_memo.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace fedshare::serve {

namespace {

// The first table a store allocates (4 KiB): a roster's assembly stores
// a few dozen values, and the table doubles as outage states are seen.
constexpr std::size_t kInitialSlots = 256;

// splitmix64's finaliser: every key bit reaches the slot index.
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ValueMemo::ValueMemo(std::size_t budget_bytes)
    : max_slots_(budget_bytes < sizeof(Slot)
                     ? 0
                     : std::bit_floor(budget_bytes / sizeof(Slot))) {}

std::size_t ValueMemo::home(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(mix(key)) & (slots_.size() - 1);
}

std::optional<double> ValueMemo::find(std::uint64_t key) const {
  if (slots_.empty()) return std::nullopt;
  for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
    if (slots_[i].key == key) return slots_[i].value;
    if (slots_[i].key == kEmpty) return std::nullopt;
  }
}

void ValueMemo::place(std::uint64_t key, double value) noexcept {
  std::size_t i = home(key);
  while (slots_[i].key != kEmpty) i = (i + 1) & (slots_.size() - 1);
  slots_[i] = {key, value};
  ++size_;
}

void ValueMemo::refill_from_scratch() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
  for (const Slot& slot : scratch_) place(slot.key, slot.value);
}

bool ValueMemo::store(std::uint64_t key, double value) {
  if (key == kEmpty) {
    throw std::invalid_argument("ValueMemo: the empty key is reserved");
  }
  if (find(key)) return true;
  // At most half full, so every probe run ends at a free slot.
  if (2 * (size_ + 1) > slots_.size()) {
    const std::size_t grown = std::max(kInitialSlots, 2 * slots_.size());
    if (grown > max_slots_) return false;
    scratch_.swap(slots_);
    slots_.assign(grown, Slot{});
    size_ = 0;
    for (const Slot& slot : scratch_) {
      if (slot.key != kEmpty) place(slot.key, slot.value);
    }
  }
  place(key, value);
  return true;
}

void ValueMemo::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

}  // namespace fedshare::serve
