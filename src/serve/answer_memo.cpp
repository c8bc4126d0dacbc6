#include "serve/answer_memo.hpp"

#include <cstring>
#include <iterator>
#include <utility>

namespace fedshare::serve {

namespace {

// splitmix64's finaliser: every input bit reaches every output bit.
std::uint64_t mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Folds each vector's length and the bit pattern of every double, so
// -0.0 and 0.0 (or two NaN payloads) hash apart, as they compare.
std::uint64_t hash_inputs(const std::vector<double>& table,
                          const std::vector<double>& availability,
                          const std::vector<double>& consumption) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto* v : {&table, &availability, &consumption}) {
    h = mix(h ^ v->size());
    for (const double x : *v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      h = mix(h ^ bits);
    }
  }
  return h;
}

bool same_bits(const std::vector<double>& a,
               const std::vector<double>& b) noexcept {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

AnswerMemo::AnswerMemo(std::size_t budget_bytes) : budget_(budget_bytes) {}

const AnswerMemo::Answer* AnswerMemo::find(
    const std::vector<double>& table, const std::vector<double>& availability,
    const std::vector<double>& consumption) {
  const auto found =
      index_.find(hash_inputs(table, availability, consumption));
  if (found == index_.end()) return nullptr;
  const Lru::iterator it = found->second;
  if (!same_bits(it->table, table) ||
      !same_bits(it->availability, availability) ||
      !same_bits(it->consumption, consumption)) {
    return nullptr;  // a hash collision
  }
  lru_.splice(lru_.begin(), lru_, it);
  return &it->answer;
}

void AnswerMemo::store(std::vector<double> table,
                       std::vector<double> availability,
                       std::vector<double> consumption, Answer answer) {
  Entry entry;
  entry.hash = hash_inputs(table, availability, consumption);
  std::size_t doubles =
      table.size() + availability.size() + consumption.size();
  entry.bytes = sizeof(Entry) +
                answer.outcomes.size() * sizeof(game::SchemeOutcome) +
                answer.skipped.size() * sizeof(game::SkippedScheme);
  for (const auto& o : answer.outcomes) {
    doubles += o.shares.size() + o.payoffs.size();
  }
  for (const auto& s : answer.skipped) {
    entry.bytes += s.scheme.size() + s.reason.size();
  }
  entry.bytes += doubles * sizeof(double);
  if (entry.bytes > budget_) return;

  if (const auto old = index_.find(entry.hash); old != index_.end()) {
    erase(old->second);
  }
  entry.table = std::move(table);
  entry.availability = std::move(availability);
  entry.consumption = std::move(consumption);
  entry.answer = std::move(answer);
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_.emplace(lru_.front().hash, lru_.begin());
  while (bytes_ > budget_) erase(std::prev(lru_.end()));
}

void AnswerMemo::clear() {
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void AnswerMemo::erase(Lru::iterator it) {
  bytes_ -= it->bytes;
  index_.erase(it->hash);
  lru_.erase(it);
}

}  // namespace fedshare::serve
