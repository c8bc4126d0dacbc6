// Reference exact allocator: exhaustive search over integer assignments
// for small instances. Enumerates, per experiment, every subset of
// locations (with the empty set standing for "blocked"), pruning subsets
// that violate the diversity threshold or remaining capacity. Kept out
// of the library as the greedy allocator's oracle in tests/test_alloc.cpp
// and tests/test_alloc_property.cpp. The search is capped by
// `max_nodes`; nullopt means the cap was hit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/allocation.hpp"

namespace fedshare::alloc::reference {

/// Exact optimal allocation by exhaustive search.
///
/// Requirements: every class count must be a non-negative integer, the
/// total experiment count must be <= 8, and the pool must have <= 16
/// locations (throws std::invalid_argument otherwise). Returns nullopt
/// if more than `max_nodes` search nodes are needed.
[[nodiscard]] std::optional<AllocationResult> allocate_exact(
    const LocationPool& pool, const std::vector<RequestClass>& classes,
    std::uint64_t max_nodes = std::uint64_t{1} << 24);

}  // namespace fedshare::alloc::reference
