#include "core/limits.hpp"

#include <stdexcept>

namespace fedshare::limits {

std::string refusal(std::string_view where, std::int64_t n, Limit limit) {
  std::string out(where);
  out += ": n = " + std::to_string(n) + " exceeds ";
  out += limit.name;
  out += " = " + std::to_string(limit.value);
  return out;
}

void require(std::string_view where, std::int64_t n, Limit limit) {
  if (exceeds(n, limit)) throw std::invalid_argument(refusal(where, n, limit));
}

}  // namespace fedshare::limits
