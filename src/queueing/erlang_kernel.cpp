#include "queueing/erlang_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "queueing/erlang.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/scratch.hpp"
#include "util/simd.hpp"

namespace vmcons::queueing {
namespace {

// A walk keeps at most kMaxStatePrefix values (16 MB) for one load. Loads
// whose convergence guard, or deepest n, would outrun the cap keep none.
constexpr std::size_t kMaxStatePrefix = std::size_t{1} << 21;

/// The erlang.hpp convergence guard, kept bit-for-bit identical so the
/// kernel throws exactly where the free function does.
std::uint64_t servers_limit(double rho) {
  return static_cast<std::uint64_t>(rho + 50.0 * std::sqrt(rho) + 64.0);
}

/// A staffing answer read off kept values, held to the convergence guard
/// `limit` (servers_limit(rho)): queueing::erlang_b_servers throws rather
/// than return an n past it, however far an eval_many walk grew the values.
std::uint64_t guarded_servers(std::uint64_t servers, std::uint64_t limit) {
  if (servers > limit) {
    throw NumericError("erlang_b_servers failed to converge");
  }
  return servers;
}

/// log E_n(rho) via the inverse recurrence I_n = 1 + (n/rho) I_{n-1}
/// run on log I_n, which stays finite for any (n, rho).
double log_erlang_b_plain(std::uint64_t servers, double rho,
                          std::uint64_t& steps) {
  double log_inverse = 0.0;  // log I_0 = log 1
  for (std::uint64_t k = 1; k <= servers; ++k) {
    const double x = std::log(static_cast<double>(k) / rho) + log_inverse;
    log_inverse =
        x > 0.0 ? x + std::log1p(std::exp(-x)) : std::log1p(std::exp(x));
    ++steps;
  }
  return -log_inverse;
}

/// First index whose (decreasing) value is <= target, or size().
std::size_t descending_lower_bound(const std::vector<double>& values,
                                   double target) {
  const auto it = std::lower_bound(
      values.begin(), values.end(), target,
      [](double blocking, double t) { return blocking > t; });
  return static_cast<std::size_t>(it - values.begin());
}

void validate(std::span<const BlockingQuery> queries) {
  for (const BlockingQuery& query : queries) {
    VMCONS_REQUIRE(query.rho >= 0.0, "offered load must be >= 0");
  }
}

void validate(std::span<const StaffingQuery> queries) {
  for (const StaffingQuery& query : queries) {
    VMCONS_REQUIRE(query.rho >= 0.0, "offered load must be >= 0");
    VMCONS_REQUIRE(
        query.target_blocking > 0.0 && query.target_blocking <= 1.0,
        "target blocking must be in (0, 1]");
  }
}

/// Table slots for `size` keys: a power of two, at least 2n, so an
/// open-addressing table of them is at most half full.
constexpr std::size_t group_slots(std::size_t size) {
  return std::bit_ceil(std::max<std::size_t>(2 * size, 2));
}

/// Home slot of `key` in a table of `slots` (a power of two). Fibonacci
/// hashing: the product's top bits depend on every key bit, so loads that
/// differ only in their low mantissa bits still spread.
std::size_t home_slot(std::uint64_t key, std::size_t slots) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - std::countr_zero(slots)));
}

/// Spans of up to this many queries (solve() on up to three services stages
/// at most 16 per call) group and plan in inline storage: no allocation.
constexpr std::size_t kInlineSpan = 16;

/// LoadGroups' 32-bit words for a span of `size` queries.
constexpr std::size_t group_words(std::size_t size) {
  return 3 * size + 2 + group_slots(size);
}

/// Query positions grouped by the bits of their offered load, in one linear
/// pass: an open-addressing table gives each load a group id in first-seen
/// order, and a counting sort on those ids makes each group's positions
/// contiguous. -0.0 and +0.0 land in separate groups; both are rho == 0.0.
/// Queries of one load share one recursion state, and each answer depends
/// only on its own load's recurrence, so no walk needs the groups, or the
/// positions inside one, in any particular order.
///
/// The table is sized from the span: at most one group per query keeps it
/// at most half full, so it never grows. A span of up to kInlineSpan
/// queries fits in inline storage and allocates nothing.
class LoadGroups {
 public:
  template <typename Query>
  explicit LoadGroups(std::span<const Query> queries)
      : keys_(queries.size()), words_(group_words(queries.size())) {
    const std::size_t size = queries.size();
    const std::size_t slots = group_slots(size);
    words_.resize(group_words(size));
    // positions (n) | group id per query (n) | bounds (n + 2) | slots;
    // keys_[g] is group g's load bits.
    positions_ = words_.data();
    std::uint32_t* const ids = positions_ + size;
    bounds_ = ids + size;
    // A slot holds 1 + its load's group id; 0 marks it empty.
    std::uint32_t* const table = bounds_ + size + 2;
    std::fill_n(bounds_, size + 2 + slots, std::uint32_t{0});

    for (std::uint32_t i = 0; i < size; ++i) {
      const std::uint64_t key = std::bit_cast<std::uint64_t>(queries[i].rho);
      std::size_t slot = home_slot(key, slots);
      while (table[slot] != 0 && keys_[table[slot] - 1] != key) {
        slot = (slot + 1) & (slots - 1);
      }
      if (table[slot] == 0) {
        keys_.push_back(key);
        table[slot] = static_cast<std::uint32_t>(keys_.size());
      }
      ids[i] = table[slot] - 1;
      ++bounds_[ids[i] + 2];
    }
    // Prefix sums leave group g's first position in bounds[g + 1]; the
    // scatter advances it to g's end, which is where g + 1 begins.
    for (std::size_t g = 2; g < keys_.size() + 2; ++g) {
      bounds_[g] += bounds_[g - 1];
    }
    for (std::uint32_t i = 0; i < size; ++i) {
      positions_[bounds_[ids[i] + 1]++] = i;
    }
  }

  LoadGroups(const LoadGroups&) = delete;
  LoadGroups& operator=(const LoadGroups&) = delete;

  std::size_t size() const noexcept { return keys_.size(); }

  /// Load bits of every group, in group order.
  std::span<const std::uint64_t> keys() const noexcept { return keys_; }

  /// Positions of group g; callers may reorder them in place.
  std::span<std::uint32_t> operator[](std::size_t g) noexcept {
    return {positions_ + bounds_[g], positions_ + bounds_[g + 1]};
  }

 private:
  util::Scratch<std::uint64_t, kInlineSpan> keys_;
  util::Scratch<std::uint32_t, group_words(kInlineSpan)> words_;
  std::uint32_t* positions_ = nullptr;
  std::uint32_t* bounds_ = nullptr;
};

// --- Multi-lane recurrence engine ----------------------------------------
//
// The walk groups queries by distinct rho (LoadGroups); each group that
// outruns what the walk already holds becomes one LaneTask — an
// independent continuation of that rho's recurrence. run_lane_tasks
// advances up to kRecurrenceLanes tasks in lockstep: the per-step loop over
// lanes has no loop-carried dependence (each lane is its own chain), so the
// W independent divide chains run at divider throughput instead of the
// ~15-cycle divide latency that serializes the scalar walk.
//
// The inner loop is completely branch- and mask-free on purpose. The
// recurrence has no stopping-dependent state: advancing a lane past its
// stop point just computes E_{n+1}, E_{n+2}, ... — values that are still
// bit-correct members of that rho's prefix. So every lane runs
// unconditionally for a whole block, and stop conditions (count reached,
// target reached, convergence limit) are resolved once per block from the
// staged values, off the hot chain. A retired lane idles at the absorbing
// state blk = 0 (0 / n stays 0, no subnormals, no traps) until refilled
// from the pending tasks; leftover tasks are the scalar tail, a block with
// fewer live lanes. Target-mode lanes grow their block from kLaneFirstBlock
// by doubling, so short staffing walks stop near where they are answered.
//
// Bit-identity: an active lane executes exactly the scalar sequence
// E_n = rho E_{n-1} / (n + rho E_{n-1}) with n counting up by 1 — the same
// operations on the same operands in the same order as the erlang.cpp
// loop — and lanes never mix, so every value a task produces is bit-for-bit
// the value the scalar walk would have produced. Values computed past a
// stop point are simply discarded, never appended.

constexpr std::size_t kLanes = util::simd::kRecurrenceLanes;
// kLaneBlock (erlang_kernel.hpp) bounds the scratch footprint (kLaneBlock *
// kLanes doubles = 16 KB at 8 lanes), the work a lane wastes past its stop
// point, and the overshoot past a staffing walk's convergence limit.

/// One rho's recurrence continuation. Count-driven tasks (eval_many)
/// produce exactly `remaining` values; target-driven tasks
/// (servers_for_many) run until the value drops to `target` (with `limit`
/// as the scalar walk's convergence guard). The lane's index counter lives
/// in a double (exact far below 2^53) so the whole lockstep state shares
/// one vector domain.
struct LaneTask {
  /// Produced values append here; nullptr walks them without keeping any.
  std::vector<double>* keep = nullptr;
  double rho = 1.0;
  double start_value = 1.0;  ///< value the task continues from
  double start_index = 1.0;  ///< absolute index of that value
  double target = -1.0;      ///< stop at first value <= target (-1 = count
                             ///< mode; real blocking values are >= 0)
  std::size_t remaining = 0;  ///< count mode: values left to produce
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  std::size_t block = kLaneFirstBlock;  ///< target mode: next block length
  std::uint64_t grown = 0;  ///< out: values produced
  double last = 1.0;        ///< out: the last value produced
  bool overflowed = false;  ///< out: limit breached before target
};

/// Finish a count-mode task whose value has decayed below DBL_MIN.
///
/// Deep walks (blocking evaluated at an N set by a different, busier
/// resource) walk E_n far past rho, where the value goes subnormal
/// around n ~ 1.76 rho and then *hovers* in the subnormal range until
/// n = 2 rho before underflowing to exact zero (k = 1 rounds back to 1
/// while rho/n > 1/2). Subnormal operands cost a ~100 ns microcode assist
/// per operation — and one hovering lane slows every packed op for the
/// whole lane block — so the lockstep walk hands these tails over here.
///
/// Bit-identity is preserved by exact emulation, not approximation: a
/// subnormal double is an integer count k of 2^-1074 units, the addend
/// rho*E is below half an ulp of n (so n + load == n exactly), and both
/// the multiply's and the divide's round-to-nearest-even land back on the
/// same 2^-1074 grid — integer shifts and divides reproduce them
/// bit-for-bit. Steps outside the emulable regime (product rounds into
/// the normal range, oversized rho) fall back to the plain FP step, which
/// is exact by definition. From the first exact zero on, every later
/// value is zero (rho*0 = 0, 0/n = 0), already supplied by resize().
void finish_subnormal_tail(LaneTask& task, double value, double n_start) {
  double* __restrict__ out = nullptr;
  if (task.keep != nullptr) {
    std::vector<double>& kept = *task.keep;
    const std::size_t old = kept.size();
    kept.resize(old + task.remaining);  // value-initialized: the zero tail
    out = kept.data() + old;
  }

  int rho_exp = 0;
  const double rho_mant = std::frexp(task.rho, &rho_exp);
  // rho = mant53 * 2^(rho_exp - 53) with mant53 in [2^52, 2^53), exact.
  const std::uint64_t mant53 =
      static_cast<std::uint64_t>(std::ldexp(rho_mant, 53));
  const int shift = 53 - rho_exp;
  constexpr std::uint64_t kTopBit = std::uint64_t{1} << 52;

  double n_d = n_start;
  std::uint64_t n_i = static_cast<std::uint64_t>(n_start);
  std::size_t i = 0;
  while (i < task.remaining && value != 0.0) {
    n_d += 1.0;
    ++n_i;
    const std::uint64_t k = std::bit_cast<std::uint64_t>(value);
    bool stepped = false;
    if (k < kTopBit && shift >= 0) {
      // Subnormal value: k units of 2^-1074. The product rho * value in
      // those units is P / 2^shift with P = k * mant53 (<= 105 bits).
      __extension__ using U128 = unsigned __int128;
      const U128 P = static_cast<U128>(k) * mant53;
      U128 j = 0;
      bool exact = false;
      if (shift == 0) {
        j = P;
        exact = true;
      } else if (shift >= 107) {
        j = 0;  // P < 2^106 < 2^(shift-1): rounds to zero
        exact = true;
      } else {
        const U128 half = static_cast<U128>(1) << (shift - 1);
        const U128 frac = P & ((half << 1) - 1);
        j = P >> shift;
        if (frac > half || (frac == half && (j & 1))) {
          ++j;
        }
        exact = true;
      }
      if (exact && j < kTopBit) {
        // Product stayed subnormal, so n + load == n exactly and the
        // divide rounds j / n back onto the 2^-1074 grid.
        std::uint64_t q = static_cast<std::uint64_t>(j) / n_i;
        const std::uint64_t r = static_cast<std::uint64_t>(j) % n_i;
        if (2 * r > n_i || (2 * r == n_i && (q & 1))) {
          ++q;
        }
        value = std::bit_cast<double>(q);
        stepped = true;
      }
    }
    if (!stepped) {
      // Transition band (product rounds into the normal range): one plain
      // FP step, exact by definition. At most ~log2(rho) such steps.
      const double load = task.rho * value;
      value = load / (n_d + load);
    }
    if (out != nullptr) {
      out[i] = value;
    }
    ++i;
  }
  task.grown += task.remaining;
  task.remaining = 0;
  task.last = value;  // exact: once zero, every later value is zero
}

void run_lane_tasks(std::span<LaneTask> tasks) {
  using Lanes = util::simd::Pack<kLanes>;
  Lanes rho = Lanes::broadcast(1.0);
  Lanes blk = Lanes::broadcast(0.0);
  Lanes n = Lanes::broadcast(1.0);
  std::array<LaneTask*, kLanes> slot{};
  std::size_t next = 0;
  std::size_t active = 0;
  alignas(64) std::array<double, kLaneBlock * kLanes> scratch;

  const auto load_lane = [&](std::size_t lane, LaneTask* task) {
    slot[lane] = task;
    rho.v[lane] = task->rho;
    blk.v[lane] = task->start_value;
    n.v[lane] = task->start_index;
    ++active;
  };
  const auto unload_lane = [&](std::size_t lane) {
    // Idle lanes sit in the absorbing state blk = 0: rho*0 = 0 and 0/n = 0,
    // so the dead lane's divides stay fast (no subnormals) and harmless.
    slot[lane] = nullptr;
    rho.v[lane] = 1.0;
    blk.v[lane] = 0.0;
    n.v[lane] = 1.0;
    --active;
  };
  /// Consume the first `count` staged values of `lane`: append them to the
  /// task's kept values, if it keeps them, and remember the last.
  const auto drain = [&](LaneTask& task, std::size_t lane,
                         std::size_t count) {
    const double* const col = scratch.data() + lane * kLaneBlock;
    if (task.keep != nullptr) {
      std::vector<double>& kept = *task.keep;
      const std::size_t old = kept.size();
      kept.resize(old + count);
      std::memcpy(kept.data() + old, col, count * sizeof(double));
    }
    task.last = col[count - 1];
    task.grown += count;
  };

  while (true) {
    for (std::size_t lane = 0; lane < kLanes && next < tasks.size(); ++lane) {
      // Count-mode tasks with nothing left never occupy a lane, and those
      // starting below DBL_MIN are all subnormal hover plus zeros: the
      // integer tail finishes them without stalling a pack.
      while (next < tasks.size() && tasks[next].target < 0.0 &&
             (tasks[next].remaining == 0 ||
              tasks[next].start_value < std::numeric_limits<double>::min())) {
        LaneTask& task = tasks[next++];
        if (task.remaining > 0) {
          finish_subnormal_tail(task, task.start_value, task.start_index);
        }
      }
      if (next < tasks.size() && slot[lane] == nullptr) {
        load_lane(lane, &tasks[next++]);
      }
    }
    if (active == 0) {
      break;
    }
    // A block is as long as its longest-wanting live lane: count-mode lanes
    // want what remains, target-mode lanes their current (doubling) block.
    std::size_t steps = 0;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (const LaneTask* task = slot[lane]; task != nullptr) {
        const std::size_t want =
            task->target < 0.0 ? task->remaining : task->block;
        steps = std::max(steps, std::min(want, kLaneBlock));
      }
    }
    const Lanes one = Lanes::broadcast(1.0);
    for (std::size_t s = 0; s < steps; ++s) {
      n = n + one;
      const Lanes load = rho * blk;
      blk = load / (n + load);
      // Lane-major scatter: lane l's column is contiguous at
      // scratch[l * kLaneBlock ...], so drain is one memcpy per lane
      // instead of a strided gather (one cache line per element).
      for (std::size_t l = 0; l < kLanes; ++l) {
        scratch[l * kLaneBlock + s] = blk.v[l];
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      LaneTask* task = slot[lane];
      if (task == nullptr) {
        continue;
      }
      if (task->target < 0.0) {
        // Count mode: keep exactly the requested values; anything the lane
        // computed past them is discarded (it was valid, just unwanted).
        const std::size_t produced = std::min(task->remaining, steps);
        drain(*task, lane, produced);
        task->remaining -= produced;
        if (task->remaining == 0) {
          unload_lane(lane);
        } else if (blk.v[lane] < std::numeric_limits<double>::min()) {
          // The lane decayed below DBL_MIN: hand the rest to the integer
          // subnormal tail before its microcode assists stall the pack.
          finish_subnormal_tail(*task, blk.v[lane], n.v[lane]);
          unload_lane(lane);
        }
      } else if (scratch[lane * kLaneBlock + (steps - 1)] > task->target) {
        // Target mode, no stop in this block (the column is decreasing, so
        // its last value decides): keep everything and continue — unless
        // the walk has outrun the scalar convergence guard.
        drain(*task, lane, steps);
        task->block = std::min(2 * std::max(task->block, steps), kLaneBlock);
        if (static_cast<std::uint64_t>(n.v[lane]) > task->limit) {
          task->overflowed = true;
          unload_lane(lane);
        }
      } else {
        // Target mode, stop inside this block: keep values up to and
        // including the first one at or below the target — exactly where
        // the scalar walk's per-step test would have halted.
        const double* const col = scratch.data() + lane * kLaneBlock;
        std::size_t stop = 0;
        while (col[stop] > task->target) {
          ++stop;
        }
        const std::size_t produced = stop + 1;
        drain(*task, lane, produced);
        // The scalar walk throws if it reaches limit + 1 still searching;
        // mirror that even when the stop value itself lands past it.
        const double stop_index =
            n.v[lane] - static_cast<double>(steps - produced);
        if (static_cast<std::uint64_t>(stop_index) > task->limit) {
          task->overflowed = true;
        }
        unload_lane(lane);
      }
    }
  }
}

/// A lane task continuing rho's recurrence from E_{index} = value, appending
/// what it produces to `keep` unless that is nullptr.
LaneTask walk_from(double rho, std::uint64_t index, double value,
                   std::vector<double>* keep = nullptr) {
  LaneTask task;
  task.keep = keep;
  task.rho = rho;
  task.start_index = static_cast<double>(index);
  task.start_value = value;
  task.last = value;
  return task;
}

/// Answers the staffing queries at `positions` below target 1.0 by binary
/// search over a load's kept values E_0..E_k, held to the convergence guard
/// `limit`.
void staff_from_values(std::span<const StaffingQuery> queries,
                       std::span<const std::uint32_t> positions,
                       const std::vector<double>& values, std::uint64_t limit,
                       std::span<std::uint64_t> out) {
  for (const std::uint32_t i : positions) {
    const double target = queries[i].target_blocking;
    if (target < 1.0) {
      out[i] = guarded_servers(descending_lower_bound(values, target), limit);
    }
  }
}

/// The load group a lane task answers, and the walk's load it continues.
template <typename Load>
struct TaskOwner {
  std::size_t group = 0;
  Load* load = nullptr;
};

/// The point a task ended at: its start index plus the values it produced.
std::uint64_t end_index(const LaneTask& task) {
  return static_cast<std::uint64_t>(task.start_index) + task.grown;
}

/// The registry counters every walk's tally is reported to, looked up once.
struct ErlangCounters {
  metrics::Counter& evaluations;
  metrics::Counter& cache_hits;
  metrics::Counter& steps;
};

const ErlangCounters& erlang_counters() {
  static const ErlangCounters counters{
      metrics::registry().counter(metrics::names::kErlangEvaluations),
      metrics::registry().counter(metrics::names::kErlangCacheHits),
      metrics::registry().counter(metrics::names::kErlangSteps)};
  return counters;
}

}  // namespace

void ErlangTally::report() const {
  const ErlangCounters& counters = erlang_counters();
  counters.evaluations.add(evaluations);
  counters.cache_hits.add(cache_hits);
  counters.steps.add(steps);
}

// --- ErlangWalk -------------------------------------------------------------
//
// Both entry points plan, run and answer. Planning visits each load group
// once: groups already answerable from kept values are answered on the
// spot; every other group plans one lane task, which appends to the load's
// kept values if it keeps them. After the lane pass each task moves its
// load's resume point, and its group is answered from the task (one point)
// or from the kept values (several points).

std::size_t ErlangWalk::kept_loads() const noexcept {
  std::size_t kept = 0;
  for (const Load& load : loads_) {
    kept += load.values.empty() ? 0 : 1;
  }
  return kept;
}

const ErlangWalk::Load* ErlangWalk::find(std::uint64_t key) const {
  if (loads_.empty()) {
    return nullptr;
  }
  const std::size_t mask = loads_.size() - 1;
  for (std::size_t slot = home_slot(key, loads_.size());;
       slot = (slot + 1) & mask) {
    if (loads_[slot].key == key) {
      return &loads_[slot];
    }
    if (loads_[slot].key == 0) {
      return nullptr;
    }
  }
}

ErlangWalk::Load& ErlangWalk::load_of(std::uint64_t key) {
  const std::size_t mask = loads_.size() - 1;
  std::size_t slot = home_slot(key, loads_.size());
  while (loads_[slot].key != 0 && loads_[slot].key != key) {
    slot = (slot + 1) & mask;
  }
  Load& load = loads_[slot];
  if (load.key == 0) {
    load.key = key;
    ++occupied_;
  }
  return load;
}

void ErlangWalk::reserve_loads(std::span<const std::uint64_t> keys) {
  // Counts every key the table lacks, rho = 0 too: a bound, not a count.
  std::size_t needed = occupied_;
  for (const std::uint64_t key : keys) {
    needed += find(key) == nullptr ? 1 : 0;
  }
  if (2 * needed <= loads_.size()) {
    return;
  }
  std::vector<Load> old =
      std::exchange(loads_, std::vector<Load>(group_slots(needed)));
  occupied_ = 0;
  for (Load& load : old) {
    if (load.key != 0) {
      load_of(load.key) = std::move(load);
    }
  }
}

void ErlangWalk::servers_for_many(std::span<const StaffingQuery> queries,
                                  std::span<std::uint64_t> out) {
  VMCONS_REQUIRE(queries.size() == out.size(),
                 "servers_for_many needs one output slot per query");
  validate(queries);
  LoadGroups by_load(queries);
  reserve_loads(by_load.keys());
  util::Scratch<LaneTask, kInlineSpan> tasks(by_load.size());
  util::Scratch<TaskOwner<Load>, kInlineSpan> owners(by_load.size());
  for (std::size_t g = 0; g < by_load.size(); ++g) {
    const std::span<const std::uint32_t> group = by_load[g];
    const double rho = queries[group.front()].rho;
    if (rho == 0.0) {
      for (const std::uint32_t i : group) {
        out[i] = 0;
      }
      continue;
    }
    tally_.evaluations += group.size();
    // A target of 1.0 is met by E_0 = 1; the rest decide the walk.
    double tightest = 1.0;
    bool several = false;
    for (const std::uint32_t i : group) {
      const double target = queries[i].target_blocking;
      if (target >= 1.0) {
        out[i] = 0;
        ++tally_.cache_hits;
        continue;
      }
      several = several || (tightest < 1.0 && target != tightest);
      tightest = std::min(tightest, target);
    }
    if (tightest >= 1.0) {
      continue;
    }
    const std::uint64_t limit = servers_limit(rho);
    // Room for the walk up to the guard plus one block of lane overshoot.
    const bool keepable = limit + kLaneBlock + 1 < kMaxStatePrefix;
    if (several && !keepable) {
      // Too deep to keep values for: the scalar walk, query by query.
      for (const std::uint32_t i : group) {
        if (queries[i].target_blocking < 1.0) {
          out[i] = erlang_b_servers(rho, queries[i].target_blocking);
          tally_.steps += out[i];
        }
      }
      continue;
    }
    Load& load = load_of(by_load.keys()[g]);
    if ((several || !load.values.empty()) && keepable) {
      std::vector<double>& values = load.values;
      if (values.empty()) {
        values.push_back(1.0);  // E_0: seeded, not a recurrence step
      }
      const double covered = values.back();
      for (const std::uint32_t i : group) {
        const double target = queries[i].target_blocking;
        if (target < 1.0 && covered <= target) {
          ++tally_.cache_hits;
        }
      }
      if (covered > tightest) {
        LaneTask task = walk_from(rho, values.size() - 1, covered, &values);
        task.target = tightest;
        task.limit = limit;
        tasks.push_back(task);
        owners.push_back({g, &load});
        continue;
      }
      staff_from_values(queries, group, values, limit, out);
      continue;
    }
    // One target: E_n is decreasing in n, so a target above the resume
    // value is met only past it, and any other behind or at it.
    LaneTask task = load.value > tightest
                        ? walk_from(rho, load.index, load.value)
                        : walk_from(rho, 0, 1.0);
    task.target = tightest;
    task.limit = limit;
    tasks.push_back(task);
    owners.push_back({g, &load});
  }

  run_lane_tasks(tasks);
  bool overflowed = false;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const LaneTask& task = tasks[t];
    Load& load = *owners[t].load;
    tally_.steps += task.grown;
    overflowed = overflowed || task.overflowed;
    if (end_index(task) > load.index) {
      load.index = end_index(task);
      load.value = task.last;
    }
  }
  if (overflowed) {
    throw NumericError("erlang_b_servers failed to converge");
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const LaneTask& task = tasks[t];
    const std::span<const std::uint32_t> group = by_load[owners[t].group];
    if (task.keep != nullptr) {
      staff_from_values(queries, group, *task.keep, task.limit, out);
      continue;
    }
    for (const std::uint32_t i : group) {
      if (queries[i].target_blocking < 1.0) {
        out[i] = end_index(task);
      }
    }
  }
}

void ErlangWalk::eval_many(std::span<const BlockingQuery> queries,
                           std::span<double> out) {
  VMCONS_REQUIRE(queries.size() == out.size(),
                 "eval_many needs one output slot per query");
  validate(queries);
  LoadGroups by_load(queries);
  reserve_loads(by_load.keys());
  util::Scratch<LaneTask, kInlineSpan> tasks(by_load.size());
  util::Scratch<TaskOwner<Load>, kInlineSpan> owners(by_load.size());
  for (std::size_t g = 0; g < by_load.size(); ++g) {
    const std::span<const std::uint32_t> group = by_load[g];
    const double rho = queries[group.front()].rho;
    if (rho == 0.0) {
      for (const std::uint32_t i : group) {
        out[i] = queries[i].servers == 0 ? 1.0 : 0.0;
      }
      continue;
    }
    tally_.evaluations += group.size();
    // n = 0 is E_0 = 1; the rest decide the walk.
    std::uint64_t deepest = 0;
    bool several = false;
    for (const std::uint32_t i : group) {
      const std::uint64_t servers = queries[i].servers;
      if (servers == 0) {
        out[i] = 1.0;
        ++tally_.cache_hits;
        continue;
      }
      several = several || (deepest != 0 && servers != deepest);
      deepest = std::max(deepest, servers);
    }
    if (deepest == 0) {
      continue;
    }
    const bool keepable = deepest < kMaxStatePrefix;
    if (several && !keepable) {
      // Too deep to keep values for: the scalar walk, query by query.
      for (const std::uint32_t i : group) {
        if (queries[i].servers > 0) {
          out[i] = erlang_b(queries[i].servers, rho);
          tally_.steps += queries[i].servers;
        }
      }
      continue;
    }
    Load& load = load_of(by_load.keys()[g]);
    if ((several || !load.values.empty()) && keepable) {
      std::vector<double>& values = load.values;
      if (values.empty()) {
        values.push_back(1.0);  // E_0: seeded, not a recurrence step
      }
      const std::uint64_t covered = values.size() - 1;
      for (const std::uint32_t i : group) {
        const std::uint64_t servers = queries[i].servers;
        if (servers > 0 && servers <= covered) {
          ++tally_.cache_hits;
        }
      }
      if (deepest > covered) {
        values.reserve(deepest + 1);
        LaneTask task = walk_from(rho, covered, values.back(), &values);
        task.remaining = static_cast<std::size_t>(deepest - covered);
        tasks.push_back(task);
        owners.push_back({g, &load});
        continue;
      }
      for (const std::uint32_t i : group) {
        out[i] = values[queries[i].servers];
      }
      continue;
    }
    if (deepest == load.index) {
      for (const std::uint32_t i : group) {
        if (queries[i].servers > 0) {
          out[i] = load.value;
          ++tally_.cache_hits;
        }
      }
      continue;
    }
    // One depth: continue from the resume point if it lies behind the
    // depth, else walk again from E_0.
    LaneTask task = deepest > load.index
                        ? walk_from(rho, load.index, load.value)
                        : walk_from(rho, 0, 1.0);
    task.remaining = static_cast<std::size_t>(
        deepest - static_cast<std::uint64_t>(task.start_index));
    tasks.push_back(task);
    owners.push_back({g, &load});
  }

  run_lane_tasks(tasks);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const LaneTask& task = tasks[t];
    Load& load = *owners[t].load;
    tally_.steps += task.grown;
    if (end_index(task) > load.index) {
      load.index = end_index(task);
      load.value = task.last;
    }
    for (const std::uint32_t i : by_load[owners[t].group]) {
      const std::uint64_t servers = queries[i].servers;
      if (servers > 0) {
        out[i] = task.keep != nullptr ? (*task.keep)[servers] : task.last;
      }
    }
  }
}

// --- ErlangKernel -----------------------------------------------------------

namespace {

/// Runs `call` on a walk of its own and records the walk's tally on
/// `kernel`, also when the call throws.
template <typename Call>
void walk_counted(ErlangKernel& kernel, Call&& call) {
  ErlangWalk walk;
  try {
    call(walk);
  } catch (...) {
    kernel.record(walk.tally());
    throw;
  }
  kernel.record(walk.tally());
}

}  // namespace

double ErlangKernel::erlang_b(std::uint64_t servers, double rho) {
  double value = 0.0;
  const BlockingQuery query{servers, rho};
  walk_counted(*this, [&](ErlangWalk& walk) {
    walk.eval_many(std::span<const BlockingQuery>(&query, 1),
                   std::span<double>(&value, 1));
  });
  return value;
}

double ErlangKernel::log_erlang_b(std::uint64_t servers, double rho) {
  VMCONS_REQUIRE(rho >= 0.0, "offered load must be >= 0");
  if (rho == 0.0) {
    return servers == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  ErlangTally tally;
  ++tally.evaluations;
  const double result = log_erlang_b_plain(servers, rho, tally.steps);
  record(tally);
  return result;
}

std::uint64_t ErlangKernel::erlang_b_servers(double rho,
                                             double target_blocking) {
  std::uint64_t servers = 0;
  const StaffingQuery query{rho, target_blocking};
  walk_counted(*this, [&](ErlangWalk& walk) {
    walk.servers_for_many(std::span<const StaffingQuery>(&query, 1),
                          std::span<std::uint64_t>(&servers, 1));
  });
  return servers;
}

double ErlangKernel::erlang_b_capacity(std::uint64_t servers,
                                       double target_blocking) {
  VMCONS_REQUIRE(servers >= 1, "capacity inverse needs at least one server");
  VMCONS_REQUIRE(target_blocking > 0.0 && target_blocking < 1.0,
                 "target blocking must be in (0, 1)");
  const double log_target = std::log(target_blocking);
  const double n = static_cast<double>(servers);
  ErlangTally tally;

  // Bracket exactly like the bisection version, but in the log domain.
  double lo = 0.0;
  double hi = n;
  ++tally.evaluations;
  while (log_erlang_b_plain(servers, hi, tally.steps) < log_target) {
    hi *= 2.0;
    ++tally.evaluations;
    if (hi > 1e12) {
      record(tally);
      throw NumericError("erlang_b_capacity failed to bracket");
    }
  }

  // Safeguarded Newton on f(rho) = log E_n(rho) - log B, using the closed
  // form dE/drho = E * (n/rho - 1 + E) => f'(rho) = n/rho - 1 + E. Any step
  // leaving the bracket falls back to bisection, so worst case matches the
  // plain bisection; typical case converges in < 10 evaluations.
  double rho = hi;
  for (int iteration = 0; iteration < 200; ++iteration) {
    const double log_e = log_erlang_b_plain(servers, rho, tally.steps);
    ++tally.evaluations;
    const double f = log_e - log_target;
    if (std::abs(f) < 1e-14) {
      break;
    }
    if (f < 0.0) {
      lo = rho;
    } else {
      hi = rho;
    }
    if (hi - lo < 1e-13 * (1.0 + hi)) {
      rho = 0.5 * (lo + hi);
      break;
    }
    const double derivative = n / rho - 1.0 + std::exp(log_e);
    double next = rho - f / derivative;
    if (!std::isfinite(next) || next <= lo || next >= hi) {
      next = 0.5 * (lo + hi);
    }
    rho = next;
  }

  record(tally);
  return rho;
}

void ErlangKernel::record(const ErlangTally& tally) {
  evaluations_.fetch_add(tally.evaluations, std::memory_order_relaxed);
  cache_hits_.fetch_add(tally.cache_hits, std::memory_order_relaxed);
  steps_.fetch_add(tally.steps, std::memory_order_relaxed);
  tally.report();
}

ErlangKernel::Stats ErlangKernel::stats() const {
  Stats stats;
  stats.evaluations = evaluations_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.steps = steps_.load(std::memory_order_relaxed);
  return stats;
}

void ErlangKernel::clear() {
  evaluations_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  steps_.store(0, std::memory_order_relaxed);
}

}  // namespace vmcons::queueing
