#include "exec/pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace fedshare::exec {

namespace {

// Set while the calling thread executes a chunk body (worker or caller
// participation, or an inline serial run). Nested parallel entry points
// check it and degrade to inline loops.
thread_local bool tls_in_parallel = false;

struct ParallelRegionGuard {
  bool saved;
  ParallelRegionGuard() : saved(tls_in_parallel) { tls_in_parallel = true; }
  ~ParallelRegionGuard() { tls_in_parallel = saved; }
};

// Inline serial execution of the fixed decomposition — the reference
// semantics every parallel schedule must reproduce.
bool run_serial(std::uint64_t begin, std::uint64_t end,
                std::uint64_t chunk_size,
                const std::function<bool(const ChunkRange&)>& body) {
  const std::uint64_t chunk = chunk_size == 0 ? 1 : chunk_size;
  std::uint64_t index = 0;
  for (std::uint64_t b = begin; b < end; b += chunk, ++index) {
    const ChunkRange r{b, std::min(end, b + chunk), index};
    ParallelRegionGuard guard;
    if (!body(r)) return false;
  }
  return true;
}

}  // namespace

std::uint64_t chunk_seed(std::uint64_t base_seed,
                         std::uint64_t chunk_index) noexcept {
  // splitmix64 finaliser over a golden-ratio-strided combination, the
  // same idiom the outage sampler uses for per-scenario streams.
  std::uint64_t z = base_seed ^ (chunk_index * 0x9e3779b97f4a7c15ULL +
                                 0x2545f4914f6cdd1dULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Pool::Impl {
  // One participant's contiguous span of chunk indices. The owner pops
  // from the front, thieves pop from the back; both under the span's
  // mutex (chunks are coarse, so contention is negligible).
  struct Span {
    std::mutex m;
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
  };

  struct Job {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t chunk = 1;
    std::uint64_t num_chunks = 0;
    const std::function<bool(const ChunkRange&)>* body = nullptr;
    std::vector<std::unique_ptr<Span>> spans;  // one per participant
    std::atomic<bool> cancelled{false};
    std::atomic<int> active = 0;  // participants still draining work
    std::mutex error_m;
    std::exception_ptr error;
  };

  explicit Impl(int participants) : participants_(participants) {
    workers_.reserve(static_cast<std::size_t>(participants - 1));
    for (int w = 1; w < participants; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(m_);
      shutting_down_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : workers_) t.join();
  }

  bool run(std::uint64_t begin, std::uint64_t end, std::uint64_t chunk_size,
           const std::function<bool(const ChunkRange&)>& body) {
    const std::uint64_t chunk = chunk_size == 0 ? 1 : chunk_size;
    Job job;
    job.begin = begin;
    job.end = end;
    job.chunk = chunk;
    job.num_chunks = (end - begin + chunk - 1) / chunk;
    job.body = &body;
    job.spans.reserve(static_cast<std::size_t>(participants_));
    for (int p = 0; p < participants_; ++p) {
      auto span = std::make_unique<Span>();
      const auto pp = static_cast<std::uint64_t>(p);
      const auto np = static_cast<std::uint64_t>(participants_);
      span->head = job.num_chunks * pp / np;
      span->tail = job.num_chunks * (pp + 1) / np;
      job.spans.push_back(std::move(span));
    }
    job.active.store(participants_, std::memory_order_relaxed);

    {
      std::lock_guard<std::mutex> lk(m_);
      job_ = &job;
      ++job_seq_;
    }
    cv_work_.notify_all();

    participate(job, 0);  // the calling thread is participant 0

    {
      std::unique_lock<std::mutex> lk(m_);
      cv_done_.wait(lk, [&] {
        return job.active.load(std::memory_order_acquire) == 0;
      });
      job_ = nullptr;
    }
    if (job.error) std::rethrow_exception(job.error);
    return !job.cancelled.load(std::memory_order_relaxed);
  }

 private:
  void worker_main(int worker_index) {
    std::uint64_t seen = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_work_.wait(lk,
                      [&] { return shutting_down_ || job_seq_ != seen; });
        if (shutting_down_) return;
        seen = job_seq_;
        job = job_;
      }
      if (job != nullptr) participate(*job, worker_index);
    }
  }

  // Drains chunks — own span first, then stealing — until no work is
  // left or the job is cancelled, then signs off.
  void participate(Job& job, int self) {
    {
      ParallelRegionGuard guard;
      std::uint64_t chunk_index = 0;
      while (!job.cancelled.load(std::memory_order_relaxed) &&
             take(job, self, chunk_index)) {
        const std::uint64_t b = job.begin + chunk_index * job.chunk;
        const ChunkRange r{b, std::min(job.end, b + job.chunk), chunk_index};
        bool keep = false;
        try {
          keep = (*job.body)(r);
        } catch (...) {
          std::lock_guard<std::mutex> lk(job.error_m);
          if (!job.error) job.error = std::current_exception();
        }
        if (!keep) job.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (job.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last participant out: wake the caller. Taking the pool mutex
      // orders this notify against the caller's wait predicate.
      std::lock_guard<std::mutex> lk(m_);
      cv_done_.notify_all();
    }
  }

  // Claims the next chunk index for participant `self`: front of its own
  // span, else the back of the first victim with work left.
  bool take(Job& job, int self, std::uint64_t& chunk_index) {
    {
      Span& mine = *job.spans[static_cast<std::size_t>(self)];
      std::lock_guard<std::mutex> lk(mine.m);
      if (mine.head < mine.tail) {
        chunk_index = mine.head++;
        return true;
      }
    }
    for (int off = 1; off < participants_; ++off) {
      const int victim = (self + off) % participants_;
      Span& theirs = *job.spans[static_cast<std::size_t>(victim)];
      std::lock_guard<std::mutex> lk(theirs.m);
      if (theirs.head < theirs.tail) {
        chunk_index = --theirs.tail;
        return true;
      }
    }
    return false;
  }

  const int participants_;
  std::vector<std::thread> workers_;
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;
  std::uint64_t job_seq_ = 0;
  bool shutting_down_ = false;
};

Pool::Pool(int threads) : threads_(std::max(1, threads)) {
  impl_ = threads_ > 1 ? new Impl(threads_) : nullptr;
}

Pool::~Pool() { delete impl_; }

bool Pool::parallel_for(std::uint64_t begin, std::uint64_t end,
                        std::uint64_t chunk_size,
                        const std::function<bool(const ChunkRange&)>& body) {
  if (end <= begin) return true;
  if (impl_ == nullptr || tls_in_parallel) {
    return run_serial(begin, end, chunk_size, body);
  }
  return impl_->run(begin, end, chunk_size, body);
}

// --- Global executor -------------------------------------------------

namespace {

std::mutex g_executor_m;
int g_threads = 0;  // 0 = not yet resolved
std::unique_ptr<Pool> g_pool;

// FEDSHARE_THREADS env override; invalid or missing values mean serial.
int env_threads() {
  const char* env = std::getenv("FEDSHARE_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* endp = nullptr;
  const long v = std::strtol(env, &endp, 10);
  if (endp == env || *endp != '\0' || v < 1 || v > 1024) return 1;
  return static_cast<int>(v);
}

int threads_locked() {
  if (g_threads == 0) g_threads = env_threads();
  return g_threads;
}

}  // namespace

void set_threads(int n) {
  std::lock_guard<std::mutex> lk(g_executor_m);
  const int clamped = std::max(1, n);
  if (g_threads == clamped && g_pool != nullptr) return;
  g_threads = clamped;
  g_pool.reset();
}

int threads() {
  std::lock_guard<std::mutex> lk(g_executor_m);
  return threads_locked();
}

bool parallel_for(std::uint64_t begin, std::uint64_t end,
                  std::uint64_t chunk_size,
                  const std::function<bool(const ChunkRange&)>& body) {
  if (end <= begin) return true;
  Pool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lk(g_executor_m);
    if (threads_locked() > 1 && !tls_in_parallel) {
      if (g_pool == nullptr) g_pool = std::make_unique<Pool>(g_threads);
      pool = g_pool.get();
    }
  }
  if (pool == nullptr) return run_serial(begin, end, chunk_size, body);
  return pool->parallel_for(begin, end, chunk_size, body);
}

bool parallel_for_budgeted(
    std::uint64_t begin, std::uint64_t end, std::uint64_t chunk_size,
    const runtime::ComputeBudget& parent,
    const std::function<bool(const ChunkRange&,
                             const runtime::ComputeBudget&)>& body) {
  if (end <= begin) return true;
  if (threads() == 1 || tls_in_parallel) {
    // Serial reference path: chunks charge the parent directly, exactly
    // as the pre-exec serial code did.
    return run_serial(begin, end, chunk_size, [&](const ChunkRange& r) {
      return body(r, parent);
    });
  }
  const runtime::CancellationToken job_token =
      runtime::CancellationToken::create();
  std::atomic<std::uint64_t> child_used{0};
  const bool completed =
      parallel_for(begin, end, chunk_size, [&](const ChunkRange& r) {
        const runtime::ComputeBudget child = parent.fork(job_token);
        const bool keep = body(r, child);
        child_used.fetch_add(child.used(), std::memory_order_relaxed);
        if (!keep) job_token.cancel();
        return keep;
      });
  // Reconcile the children's work into the parent so post-join node-cap
  // accounting (and the stop reason) match a serial run's verdict.
  const std::uint64_t used = child_used.load(std::memory_order_relaxed);
  const bool within_budget = used == 0 || parent.charge(used);
  return completed && within_budget;
}

}  // namespace fedshare::exec
