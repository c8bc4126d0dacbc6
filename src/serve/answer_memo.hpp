// Memo of published scheme comparisons, keyed by their exact inputs.
//
// ServiceState::publish_snapshot() runs game::compare_schemes on the
// closed V(S) table and the two proportional weight vectors, with the
// state's fixed LP engine and no budget, so a comparison is a pure
// function of those three vectors. An epoch that returns to an earlier
// game (the end of an outage flap, a repeated outage draw) finds the
// earlier rows here instead of re-solving the nucleolus.
//
// A lookup hashes the bit patterns of the three vectors to find the
// entry, then compares every stored double bitwise before answering, so
// a hash collision is a miss, never a wrong answer. Entries are evicted
// least-recently-used to keep bytes() within the budget given at
// construction. Not thread-safe: ServiceState uses it under its mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/sharing.hpp"

namespace fedshare::serve {

class AnswerMemo {
 public:
  /// The rows of one comparison, as an EpochAnswer carries them.
  struct Answer {
    std::vector<game::SchemeOutcome> outcomes;
    std::vector<game::SkippedScheme> skipped;
  };

  /// `budget_bytes` bounds bytes(); an entry larger than the whole
  /// budget is never stored.
  explicit AnswerMemo(std::size_t budget_bytes);

  /// The answer stored for exactly these inputs (bitwise), now the most
  /// recently used entry; null on a miss. Valid until the next store()
  /// or clear().
  [[nodiscard]] const Answer* find(const std::vector<double>& table,
                                   const std::vector<double>& availability,
                                   const std::vector<double>& consumption);

  /// Stores `answer` for these inputs as the most recently used entry,
  /// replacing an entry with the same hash, then evicts the least
  /// recently used entries until bytes() is within the budget.
  void store(std::vector<double> table, std::vector<double> availability,
             std::vector<double> consumption, Answer answer);

  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }
  /// Bytes the stored inputs and rows hold, entry headers included.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<double> table;
    std::vector<double> availability;
    std::vector<double> consumption;
    Answer answer;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  void erase(Lru::iterator it);

  std::size_t budget_;
  std::size_t bytes_ = 0;
  Lru lru_;  ///< most recently used first
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
};

}  // namespace fedshare::serve
