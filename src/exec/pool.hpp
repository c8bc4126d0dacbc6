// Deterministic parallel execution engine.
//
// exec::Pool is a work-stealing thread pool built around one invariant:
// the result of a parallel computation is bit-identical regardless of
// the thread count, including 1. The contract that delivers this:
//
//  * Fixed chunk decomposition. A range [begin, end) is split into
//    chunks of a caller-chosen size; the decomposition depends only on
//    (begin, end, chunk_size), never on the thread count. Threads only
//    decide *who* runs a chunk, never *what* a chunk is.
//  * Chunk-addressed work. A chunk body must derive everything it needs
//    from the ChunkRange alone — outputs go to per-index or per-chunk
//    slots, RNG streams are seeded from chunk_seed(base_seed, index) —
//    so execution order is unobservable.
//  * Ordered reduction. A caller that reduces keeps one partial per
//    chunk and folds them in ascending chunk order after the join,
//    fixing the floating-point summation order independent of
//    scheduling.
//
// Scheduling: each participant (the calling thread plus the workers)
// owns a contiguous span of chunk indices and pops from its front; idle
// participants steal from the back of the most loaded victim. Spans are
// mutex-guarded — chunks are coarse by design, so the lock traffic is
// negligible next to the chunk bodies (coalition-value LPs).
//
// Budget cooperation: parallel_for_budgeted forks one child
// ComputeBudget per chunk from the caller's budget (same absolute
// deadline and tokens, remaining node headroom) and cancels the whole
// job the moment any chunk's budget trips; the children's charges are
// reconciled into the parent at the join so post-join accounting
// matches a serial run.
//
// With threads() == 1 every entry point degenerates to an inline loop
// on the calling thread — no workers, no locks, byte-identical to the
// pre-exec serial code. Nested parallel regions (a chunk body calling
// parallel_for again) also run inline, so callers never deadlock the
// pool by composing parallel algorithms.
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/budget.hpp"

namespace fedshare::exec {

/// One chunk of a fixed decomposition: item indices [begin, end) and the
/// chunk's ordinal `index` within the range (0-based, decomposition
/// order).
struct ChunkRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t index = 0;
};

/// Deterministic per-chunk RNG seed stream: a splitmix64-style mix of
/// (base_seed, chunk_index) with golden-ratio striding, so consecutive
/// chunk indices land in well-separated states. Chunk bodies that draw
/// random numbers must seed from this, never from a shared sequential
/// stream.
[[nodiscard]] std::uint64_t chunk_seed(std::uint64_t base_seed,
                                       std::uint64_t chunk_index) noexcept;

/// Work-stealing thread pool. One job runs at a time; spawn it once and
/// reuse it (workers park on a condition variable between jobs).
class Pool {
 public:
  /// `threads` <= 1 creates a serial pool (no worker threads at all).
  explicit Pool(int threads);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// Runs `body` over the fixed chunk decomposition of [begin, end).
  /// `body` returns false to cancel the job: chunks not yet started are
  /// skipped and parallel_for returns false. Chunks already running
  /// finish normally (cancellation is cooperative at chunk granularity).
  /// Returns true when every chunk ran to completion. Exceptions thrown
  /// by `body` cancel the job and are rethrown on the calling thread.
  /// Reentrant calls (from inside a chunk body) run inline and serially.
  bool parallel_for(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t chunk_size,
                    const std::function<bool(const ChunkRange&)>& body);

 private:
  struct Impl;
  Impl* impl_;
  int threads_;
};

/// --- Global executor ------------------------------------------------
///
/// Library code parallelises through these free functions instead of
/// threading a Pool& through every signature. The thread count defaults
/// to 1 (serial, byte-identical output); it is raised by the CLI's
/// --threads flag or the FEDSHARE_THREADS environment variable (read
/// once, on first use; set_threads() overrides it).

/// Sets the global thread count (clamped to >= 1). Replaces the global
/// pool; must not be called from inside a parallel region.
void set_threads(int n);

/// Current global thread count (resolves FEDSHARE_THREADS on first call).
[[nodiscard]] int threads();

/// parallel_for on the global pool (inline when threads() == 1 or when
/// already inside a parallel region).
bool parallel_for(std::uint64_t begin, std::uint64_t end,
                  std::uint64_t chunk_size,
                  const std::function<bool(const ChunkRange&)>& body);

/// Budget-cooperating parallel_for: each chunk body receives a child of
/// `parent` (fork: same deadline and tokens, remaining node headroom).
/// A chunk whose body returns false — typically because its child
/// budget tripped — cancels the whole job through the job-level
/// cancellation token, so sibling chunks observe the trip at their next
/// charge. After the join the children's used() units are charged into
/// `parent` in one bulk charge, which reproduces the serial node-cap
/// verdict (the parent trips iff the total work exceeded its cap).
/// Returns true iff no chunk cancelled and the reconciliation charge
/// left `parent` within budget.
bool parallel_for_budgeted(
    std::uint64_t begin, std::uint64_t end, std::uint64_t chunk_size,
    const runtime::ComputeBudget& parent,
    const std::function<bool(const ChunkRange&,
                             const runtime::ComputeBudget&)>& body);

}  // namespace fedshare::exec
