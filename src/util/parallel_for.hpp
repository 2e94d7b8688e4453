// Chunked parallel loop over an index range.
//
// parallel_for(n, fn) invokes fn(i) for every i in [0, n), cut into
// contiguous chunks. The caller enqueues one helper task per pool worker
// (fewer when there are fewer chunks) and then works too: the caller and
// the helpers claim chunk indices from one shared atomic cursor until it
// runs out, and the caller joins every helper before returning. The caller
// never parks while chunks are left, so a loop finishes even when every
// worker is busy elsewhere; a helper that starts after the cursor ran out
// returns at once. If enqueueing a helper throws (pool allocation failure),
// the loop simply runs with fewer participants.
//
// Exceptions thrown by an iteration end that chunk only; every other chunk
// still runs. After the join, the exception of the lowest-numbered failing
// chunk is rethrown, so the error raised is the first one in index order,
// independent of timing and of the worker count.
//
// `grain` is the number of consecutive indices in one chunk: 0 (the
// default) auto-chunks to about count / (4 * workers), which balances
// heterogeneous iteration costs; an explicit grain caps claiming overhead
// for tiny per-item bodies (per-replication postprocessing, per-cell
// reductions) where even 4 chunks per worker would underfill each chunk.
//
// Loops with one index, a 1-worker pool or grain >= count run inline on
// the caller, and so do nested loops: a call from a pool worker or from a
// thread already running chunks of an outer parallel_for must not wait for
// helpers that the parked workers would never run.
//
// `control` (optional) makes the loop cooperatively stoppable: every
// participant checks control->stop_requested() before claiming a chunk,
// and the inline path checks between iterations, so cancellation latency
// is bounded by one chunk per participant. parallel_for itself does not
// throw on a stop (it simply completes early, with all started chunks
// finished and joined); the caller inspects the RunControl to decide
// whether to raise. parallel_map cannot represent a partial result, so it
// throws CancelledError / DeadlineExceededError when a stop left slots
// unfilled.
//
// Determinism contract: fn must derive any randomness from the index i (for
// example via make_stream(seed, i)), never from thread identity; then output
// is independent of the worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/run_control.hpp"
#include "util/thread_pool.hpp"

namespace vmcons {

namespace detail {

/// Set while the thread runs chunks of a dispatched parallel_for, whether it
/// is a pool worker or the caller; a nested call on that thread runs inline.
inline thread_local bool t_in_parallel_for = false;

/// Marks the current thread as a parallel_for participant for its lifetime,
/// restoring the previous mark on exit.
class ParticipantScope {
 public:
  ParticipantScope() noexcept : saved_(t_in_parallel_for) {
    t_in_parallel_for = true;
  }
  ~ParticipantScope() { t_in_parallel_for = saved_; }
  ParticipantScope(const ParticipantScope&) = delete;
  ParticipantScope& operator=(const ParticipantScope&) = delete;

 private:
  bool saved_;
};

}  // namespace detail

template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, ThreadPool& pool = ThreadPool::shared(),
                  std::size_t grain = 0, const RunControl* control = nullptr) {
  if (count == 0) {
    return;
  }
  const std::size_t workers = std::max<std::size_t>(1, pool.size());
  // A nested call must not enqueue helpers and wait for them: with every
  // worker parked in a join, the helpers would never run. Pool workers and
  // callers already running chunks execute the nested loop inline instead.
  if (count == 1 || workers == 1 || grain >= count ||
      ThreadPool::on_worker_thread() || detail::t_in_parallel_for) {
    for (std::size_t i = 0; i < count; ++i) {
      if (control != nullptr && control->stop_requested()) {
        return;
      }
      fn(i);
    }
    return;
  }
  // Auto grain: four chunks per worker balances load for heterogeneous
  // iteration costs.
  const std::size_t auto_chunks = std::min(count, workers * 4);
  const std::size_t chunk_size =
      grain > 0 ? grain : (count + auto_chunks - 1) / auto_chunks;
  const std::size_t chunks = (count + chunk_size - 1) / chunk_size;

  // Every participant claims chunks from one cursor until it runs out or a
  // stop is requested. The lowest failing chunk's exception is kept, which
  // is the error an in-order join of per-chunk futures would raise.
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::size_t error_chunk = chunks;
  std::exception_ptr error;
  const auto run_chunks = [&]() noexcept {
    const detail::ParticipantScope participant;
    for (;;) {
      if (control != nullptr && control->stop_requested()) {
        return;
      }
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) {
        return;
      }
      const std::size_t end = std::min(count, (c + 1) * chunk_size);
      try {
        for (std::size_t i = c * chunk_size; i < end; ++i) {
          fn(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
    }
  };

  // One helper per worker; the caller is the extra participant. A helper
  // that cannot be enqueued (allocation failure) only means fewer
  // participants: the caller's own loop still claims every chunk left.
  std::vector<std::future<void>> helpers;
  try {
    const std::size_t helper_count = std::min(workers, chunks - 1);
    helpers.reserve(helper_count);
    for (std::size_t h = 0; h < helper_count; ++h) {
      helpers.push_back(pool.submit(run_chunks));
    }
  } catch (...) {
  }
  run_chunks();
  // Helpers reference this frame, so all of them are joined before it
  // unwinds; one that starts after the cursor ran out returns at once.
  for (auto& helper : helpers) {
    helper.wait();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

/// Maps fn over [0, n) in parallel, collecting results in index order.
/// Results need not be default-constructible: each slot is materialized by
/// move from fn's return value, then unwrapped in index order. `grain` is
/// forwarded to parallel_for (0 = auto-chunking). A stop requested through
/// `control` throws (a partial map has no honest representation).
template <typename Fn>
auto parallel_map(std::size_t count, Fn&& fn, ThreadPool& pool = ThreadPool::shared(),
                  std::size_t grain = 0, const RunControl* control = nullptr)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  std::vector<std::optional<Result>> slots(count);
  parallel_for(
      count, [&](std::size_t i) { slots[i].emplace(fn(i)); }, pool, grain,
      control);
  std::vector<Result> results;
  results.reserve(count);
  for (auto& slot : slots) {
    if (!slot.has_value()) {
      // Only a stop can leave a hole (chunk errors rethrow above).
      VMCONS_ASSERT(control != nullptr);
      control->raise_if_stopped("parallel_map");
      VMCONS_ASSERT(false);  // stop cleared between the hole and the check
    }
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace vmcons
