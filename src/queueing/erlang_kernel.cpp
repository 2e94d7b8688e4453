#include "queueing/erlang_kernel.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace vmcons::queueing {
namespace {

// Memory bounds: one cached prefix never stores more than kMaxStatePrefix
// doubles (16 MB), and a published snapshot stays under kPrefixBudget
// doubles (32 MB) by evicting least-recently-merged states at publish time.
// Queries beyond the per-state cap still answer correctly; the tail of the
// recursion just runs uncached.
constexpr std::size_t kMaxStatePrefix = std::size_t{1} << 21;
constexpr std::size_t kPrefixBudget = std::size_t{1} << 22;

// A thread whose private arena exceeds this many extension doubles (512 KB)
// folds it into a fresh snapshot, so arenas stay small and other threads
// start hitting the published prefixes instead of re-deriving them.
constexpr std::size_t kArenaWatermark = std::size_t{1} << 16;

/// Monotonically increasing kernel-generation ids. Never reused, so a
/// thread-local arena pointer keyed by a retired serial can never collide
/// with a live kernel.
std::atomic<std::uint64_t> g_kernel_serial{1};

/// The erlang.hpp convergence guard, kept bit-for-bit identical so the
/// kernel throws exactly where the free function does.
std::uint64_t servers_limit(double rho) {
  return static_cast<std::uint64_t>(rho + 50.0 * std::sqrt(rho) + 64.0);
}

/// A staffing answer read off a cached prefix, held to the convergence
/// guard `limit` (servers_limit(rho)): queueing::erlang_b_servers throws
/// rather than return an n past it, however far an eval_many walk grew the
/// prefix.
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

/// First index whose (strictly decreasing) value is <= target, or size().
template <typename Vec>
std::size_t descending_lower_bound(const Vec& values, double target) {
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

/// Table slots for a span of `size` queries: a power of two, at least 2n.
constexpr std::size_t group_slots(std::size_t size) {
  return std::bit_ceil(std::max<std::size_t>(2 * size, 2));
}

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
/// queries (plan() and solve() stage 3 to 6) fits in inline storage and
/// allocates nothing.
class LoadGroups {
 public:
  template <typename Query>
  explicit LoadGroups(std::span<const Query> queries)
      : size_(queries.size()), slots_(group_slots(size_)) {
    std::uint64_t* keys = inline_keys_.data();
    std::uint32_t* words = inline_words_.data();
    if (size_ > kInlineSpan) {
      heap_keys_ = std::make_unique_for_overwrite<std::uint64_t[]>(size_);
      heap_words_ =
          std::make_unique_for_overwrite<std::uint32_t[]>(group_words(size_));
      keys = heap_keys_.get();
      words = heap_words_.get();
    }
    // positions (n) | group id per query (n) | bounds (n + 2) | slots;
    // keys[g] is group g's load bits.
    positions_ = words;
    std::uint32_t* const ids = positions_ + size_;
    bounds_ = ids + size_;
    // A slot holds 1 + its load's group id; 0 marks it empty.
    std::uint32_t* const slots = bounds_ + size_ + 2;
    std::fill_n(bounds_, size_ + 2 + slots_, std::uint32_t{0});

    // Fibonacci hashing: the product's top bits depend on every key bit,
    // so loads that differ only in their low mantissa bits still spread.
    const int shift = 64 - std::countr_zero(slots_);
    for (std::uint32_t i = 0; i < size_; ++i) {
      const std::uint64_t key = std::bit_cast<std::uint64_t>(queries[i].rho);
      std::size_t slot =
          static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
      while (slots[slot] != 0 && keys[slots[slot] - 1] != key) {
        slot = (slot + 1) & (slots_ - 1);
      }
      if (slots[slot] == 0) {
        keys[groups_] = key;
        slots[slot] = static_cast<std::uint32_t>(++groups_);
      }
      ids[i] = slots[slot] - 1;
      ++bounds_[ids[i] + 2];
    }
    // Prefix sums leave group g's first position in bounds[g + 1]; the
    // scatter advances it to g's end, which is where g + 1 begins.
    for (std::size_t g = 2; g < groups_ + 2; ++g) {
      bounds_[g] += bounds_[g - 1];
    }
    for (std::uint32_t i = 0; i < size_; ++i) {
      positions_[bounds_[ids[i] + 1]++] = i;
    }
  }

  LoadGroups(const LoadGroups&) = delete;
  LoadGroups& operator=(const LoadGroups&) = delete;

  std::size_t size() const noexcept { return groups_; }

  /// Positions of group g; callers may reorder them in place.
  std::span<std::uint32_t> operator[](std::size_t g) noexcept {
    return {positions_ + bounds_[g], positions_ + bounds_[g + 1]};
  }

 private:
  static constexpr std::size_t kInlineSpan = 16;

  std::size_t size_;
  std::size_t slots_;
  std::size_t groups_ = 0;
  std::uint32_t* positions_ = nullptr;
  std::uint32_t* bounds_ = nullptr;
  std::array<std::uint64_t, kInlineSpan> inline_keys_;
  std::array<std::uint32_t, group_words(kInlineSpan)> inline_words_;
  std::unique_ptr<std::uint64_t[]> heap_keys_;
  std::unique_ptr<std::uint32_t[]> heap_words_;
};

// --- Multi-lane recurrence engine ----------------------------------------
//
// The batch walks group queries by distinct rho (LoadGroups); each group
// that outruns its cached prefix becomes one LaneTask — an independent
// continuation of that rho's recurrence. run_lane_tasks advances up to
// kRecurrenceLanes tasks in lockstep: the per-step loop over lanes has no
// loop-carried dependence (each lane is its own chain), so the W
// independent divide chains run at divider throughput instead of the
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
// operations on the same operands in the same order as eval_one/staff_one —
// and lanes never mix, so every value appended to a prefix is bit-for-bit
// the value the scalar walk would have appended. Values computed past a
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
  std::vector<double>* ext = nullptr;
  double rho = 1.0;
  double start_value = 1.0;  ///< last covered prefix value
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
/// Deep prefix extensions (blocking evaluated at an N set by a different,
/// busier resource) walk E_n far past rho, where the value goes subnormal
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
  if (task.ext != nullptr) {
    std::vector<double>& ext = *task.ext;
    const std::size_t old = ext.size();
    ext.resize(old + task.remaining);  // value-initialized: the zero tail
    out = ext.data() + old;
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

void run_lane_tasks(std::vector<LaneTask>& tasks) {
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
  /// task's prefix, if it keeps one, and remember the last.
  const auto drain = [&](LaneTask& task, std::size_t lane,
                         std::size_t count) {
    const double* const col = scratch.data() + lane * kLaneBlock;
    if (task.ext != nullptr) {
      std::vector<double>& ext = *task.ext;
      const std::size_t old = ext.size();
      ext.resize(old + count);
      std::memcpy(ext.data() + old, col, count * sizeof(double));
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

}  // namespace

/// One thread's private extension tier. The owning thread mutates it only
/// under `m`; publish() reads it under `m`; the owner's own reads need no
/// lock (it is the only writer). Entries are dropped by the owner once the
/// snapshot covers them, so arenas stay transient.
struct ErlangKernel::Arena {
  /// Continuation of one rho's recurrence: values before `base->size()`
  /// live in the immutable snapshot prefix `base` (null when the rho was
  /// never published), values at index base_len + i live in ext[i].
  struct Extension {
    PrefixPtr base;
    std::vector<double> ext;
    std::size_t base_len() const noexcept { return base ? base->size() : 0; }
    std::size_t combined() const noexcept { return base_len() + ext.size(); }
    double value_at(std::uint64_t n) const {
      return n < base_len() ? (*base)[n] : ext[n - base_len()];
    }
    double last() const { return ext.empty() ? base->back() : ext.back(); }
  };

  std::mutex m;
  std::unordered_map<std::uint64_t, Extension> states;  // key: rho bits
  std::size_t doubles = 0;  ///< sum of ext sizes — the merge watermark gauge
  std::uint64_t serial = 0;  ///< kernel generation this arena belongs to
  std::atomic<bool> retired{false};  ///< orphaned by clear()

  /// The slot for rho, created from (or rebased onto) the snapshot's
  /// prefix. Requires `m` held by the owning thread.
  Extension& state_for(const Snapshot& snapshot, std::uint64_t key) {
    PrefixPtr published;
    if (const auto it = snapshot.states.find(key);
        it != snapshot.states.end()) {
      published = it->second.prefix;
    }
    auto [it, inserted] = states.try_emplace(key);
    Extension& state = it->second;
    if (inserted) {
      if (published) {
        state.base = std::move(published);
      } else {
        state.ext.push_back(1.0);  // E_0 — seeded, not a recurrence step
        ++doubles;
      }
    } else if (published && published->size() > state.combined()) {
      // A merge published a longer prefix (bit-identical to anything this
      // arena derived): adopt it and drop the now-redundant extension.
      doubles -= state.ext.size();
      state.ext.clear();
      state.base = std::move(published);
    }
    return state;
  }
};

ErlangKernel::ErlangKernel(std::size_t max_states)
    : snapshot_(std::make_shared<const Snapshot>()),
      serial_(g_kernel_serial.fetch_add(1, std::memory_order_relaxed)),
      max_states_(std::max<std::size_t>(1, max_states)),
      evaluations_metric_(
          metrics::registry().counter(metrics::names::kErlangEvaluations)),
      cache_hits_metric_(
          metrics::registry().counter(metrics::names::kErlangCacheHits)),
      steps_metric_(metrics::registry().counter(metrics::names::kErlangSteps)),
      snapshot_hits_metric_(
          metrics::registry().counter(metrics::names::kErlangSnapshotHits)),
      arena_extensions_metric_(
          metrics::registry().counter(metrics::names::kErlangArenaExtensions)),
      merges_metric_(
          metrics::registry().counter(metrics::names::kErlangMerges)) {}

// Leaves thread-map entries alone: it may run after this thread's map is
// destroyed (shared() at exit); the entries expire and are pruned instead.
ErlangKernel::~ErlangKernel() = default;

ErlangKernel::SnapshotPtr ErlangKernel::load_snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

std::unordered_map<std::uint64_t, ErlangKernel::ArenaRef>&
ErlangKernel::thread_arena_map() {
  // Keyed by kernel serial (never reused), so a stale entry can never
  // collide with a live kernel; local_arena() prunes them.
  thread_local std::unordered_map<std::uint64_t, ArenaRef> map;
  return map;
}

std::size_t ErlangKernel::thread_arena_entries() {
  return thread_arena_map().size();
}

std::size_t ErlangKernel::arena_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arenas_.size();
}

ErlangKernel::Arena& ErlangKernel::local_arena() {
  auto& map = thread_arena_map();
  if (const auto it = map.find(serial_.load(std::memory_order_acquire));
      it != map.end()) {
    return *it->second.arena;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-read under the lock: a concurrent clear() may have bumped the
  // generation between the fast-path lookup and here.
  const std::uint64_t serial = serial_.load(std::memory_order_relaxed);
  if (const auto it = map.find(serial); it != map.end()) {
    return *it->second.arena;
  }
  // Registration is rare (once per thread per kernel generation), so it
  // pays for dropping the entries of destroyed or cleared kernels. An arena
  // kept alive by the lock() below is never freed under us.
  std::erase_if(map, [](const auto& entry) {
    const std::shared_ptr<Arena> arena = entry.second.alive.lock();
    return arena == nullptr || arena->retired.load(std::memory_order_relaxed);
  });
  arenas_.push_back(std::make_shared<Arena>());
  const std::shared_ptr<Arena>& arena = arenas_.back();
  arena->serial = serial;
  map.emplace(serial, ArenaRef{arena.get(), arena});
  return *arena;
}

ErlangKernel::Arena* ErlangKernel::registered_local_arena() const {
  auto& map = thread_arena_map();
  const auto it = map.find(serial_.load(std::memory_order_acquire));
  return it != map.end() ? it->second.arena : nullptr;
}

double ErlangKernel::eval_one(const Snapshot& snapshot, std::uint64_t servers,
                              double rho, Tally& tally) {
  ++tally.evaluations;
  const std::uint64_t key = std::bit_cast<std::uint64_t>(rho);
  if (const auto it = snapshot.states.find(key);
      it != snapshot.states.end() && it->second.prefix->size() > servers) {
    ++tally.cache_hits;
    ++tally.snapshot_hits;
    return (*it->second.prefix)[servers];
  }
  Arena& arena = local_arena();
  std::lock_guard<std::mutex> lock(arena.m);
  Arena::Extension& state = arena.state_for(snapshot, key);
  std::size_t covered = state.combined();
  if (servers < covered) {
    ++tally.cache_hits;
    return state.value_at(servers);
  }
  // Resume the recurrence privately where the covered prefix ends.
  double blocking = state.last();
  const std::uint64_t cap =
      std::min<std::uint64_t>(servers, kMaxStatePrefix - 1);
  std::uint64_t grown = 0;
  for (std::uint64_t n = covered; n <= cap; ++n) {
    blocking = rho * blocking / (static_cast<double>(n) + rho * blocking);
    state.ext.push_back(blocking);
    ++grown;
  }
  if (grown > 0) {
    tally.steps += grown;
    arena.doubles += grown;
    ++tally.arena_extensions;
  }
  covered += grown;
  if (servers < covered) {
    return state.value_at(servers);
  }
  // Beyond the per-state cache cap: finish the recursion uncached.
  std::uint64_t uncached = 0;
  for (std::uint64_t n = covered; n <= servers; ++n) {
    blocking = rho * blocking / (static_cast<double>(n) + rho * blocking);
    ++uncached;
  }
  tally.steps += uncached;
  return blocking;
}

std::uint64_t ErlangKernel::staff_one(const Snapshot& snapshot, double rho,
                                      double target_blocking, Tally& tally) {
  ++tally.evaluations;
  const std::uint64_t key = std::bit_cast<std::uint64_t>(rho);
  const std::uint64_t limit = servers_limit(rho);
  if (const auto it = snapshot.states.find(key); it != snapshot.states.end()) {
    // E_n is strictly decreasing in n for rho > 0, so the prefix is sorted
    // descending: the answer is in it iff its last entry is <= target.
    const Prefix& prefix = *it->second.prefix;
    if (prefix.back() <= target_blocking) {
      ++tally.cache_hits;
      ++tally.snapshot_hits;
      return guarded_servers(descending_lower_bound(prefix, target_blocking),
                             limit);
    }
  }
  Arena& arena = local_arena();
  std::lock_guard<std::mutex> lock(arena.m);
  Arena::Extension& state = arena.state_for(snapshot, key);
  if (state.base && state.base->back() <= target_blocking) {
    ++tally.cache_hits;
    return guarded_servers(
        descending_lower_bound(*state.base, target_blocking), limit);
  }
  if (!state.ext.empty() && state.ext.back() <= target_blocking) {
    ++tally.cache_hits;
    return guarded_servers(
        state.base_len() + descending_lower_bound(state.ext, target_blocking),
        limit);
  }
  // Resume the recursion where the covered prefix ends instead of from E_0.
  double blocking = state.last();
  std::uint64_t n = state.combined() - 1;
  std::uint64_t grown = 0;
  std::uint64_t uncached = 0;
  const auto settle = [&] {
    tally.steps += grown + uncached;
    arena.doubles += grown;
    if (grown > 0) {
      ++tally.arena_extensions;
    }
  };
  while (blocking > target_blocking) {
    ++n;
    blocking = rho * blocking / (static_cast<double>(n) + rho * blocking);
    if (n < kMaxStatePrefix) {
      state.ext.push_back(blocking);
      ++grown;
    } else {
      ++uncached;
    }
    if (n > limit) {
      settle();
      throw NumericError("erlang_b_servers failed to converge");
    }
  }
  settle();
  return n;
}

void ErlangKernel::flush(const Tally& tally) {
  if (tally.evaluations > 0) {
    evaluations_.fetch_add(tally.evaluations, std::memory_order_relaxed);
    evaluations_metric_.add(tally.evaluations);
  }
  if (tally.cache_hits > 0) {
    cache_hits_.fetch_add(tally.cache_hits, std::memory_order_relaxed);
    cache_hits_metric_.add(tally.cache_hits);
  }
  if (tally.snapshot_hits > 0) {
    snapshot_hits_.fetch_add(tally.snapshot_hits, std::memory_order_relaxed);
    snapshot_hits_metric_.add(tally.snapshot_hits);
  }
  if (tally.steps > 0) {
    steps_.fetch_add(tally.steps, std::memory_order_relaxed);
    steps_metric_.add(tally.steps);
  }
  if (tally.arena_extensions > 0) {
    arena_extensions_.fetch_add(tally.arena_extensions,
                                std::memory_order_relaxed);
    arena_extensions_metric_.add(tally.arena_extensions);
  }
}

void ErlangKernel::maybe_publish() {
  Arena* arena = registered_local_arena();
  if (arena != nullptr && arena->doubles > kArenaWatermark) {
    publish();
  }
}

double ErlangKernel::erlang_b(std::uint64_t servers, double rho) {
  VMCONS_REQUIRE(rho >= 0.0, "offered load must be >= 0");
  if (rho == 0.0) {
    return servers == 0 ? 1.0 : 0.0;
  }
  const SnapshotPtr snapshot = load_snapshot();
  Tally tally;
  double result;
  try {
    result = eval_one(*snapshot, servers, rho, tally);
  } catch (...) {
    flush(tally);
    throw;
  }
  flush(tally);
  maybe_publish();
  return result;
}

double ErlangKernel::log_erlang_b(std::uint64_t servers, double rho) {
  VMCONS_REQUIRE(rho >= 0.0, "offered load must be >= 0");
  if (rho == 0.0) {
    return servers == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  Tally tally;
  ++tally.evaluations;
  const double result = log_erlang_b_plain(servers, rho, tally.steps);
  flush(tally);
  return result;
}

std::uint64_t ErlangKernel::erlang_b_servers(double rho,
                                             double target_blocking) {
  VMCONS_REQUIRE(rho >= 0.0, "offered load must be >= 0");
  VMCONS_REQUIRE(target_blocking > 0.0 && target_blocking <= 1.0,
                 "target blocking must be in (0, 1]");
  if (rho == 0.0) {
    return 0;
  }
  const SnapshotPtr snapshot = load_snapshot();
  Tally tally;
  std::uint64_t result;
  try {
    result = staff_one(*snapshot, rho, target_blocking, tally);
  } catch (...) {
    flush(tally);
    throw;
  }
  flush(tally);
  maybe_publish();
  return result;
}

void ErlangKernel::eval_many(std::span<const BlockingQuery> queries,
                             std::span<double> out) {
  VMCONS_REQUIRE(queries.size() == out.size(),
                 "eval_many needs one output slot per query");
  validate(queries);
  // Each caller groups its own span, so concurrent walks proceed
  // independently against one shared snapshot load.
  LoadGroups by_load(queries);
  const SnapshotPtr snapshot = load_snapshot();
  Tally tally;

  // Plan → extend → answer. Each distinct rho becomes one group; groups
  // whose largest query outruns the cached prefix contribute one LaneTask,
  // and run_lane_tasks grows all of them together so independent rho
  // chains fill the divider pipeline. Every value appended is bit-identical
  // to the scalar walk (see the lane-engine comment above), so the answer
  // phase reads exactly the prefixes eval_one would have built.
  struct Group {
    std::span<const std::uint32_t> positions;  ///< queries of this rho
    const Prefix* snap = nullptr;       ///< published prefix for this rho
    Arena::Extension* state = nullptr;  ///< arena continuation, if needed
    std::size_t covered_before = 0;     ///< prefix length before growth
  };
  std::vector<Group> groups;
  std::vector<LaneTask> tasks;
  Arena* arena = nullptr;
  std::unique_lock<std::mutex> arena_lock;
  try {
    for (std::size_t g = 0; g < by_load.size(); ++g) {
      Group group;
      group.positions = by_load[g];
      const double rho = queries[group.positions.front()].rho;
      if (rho == 0.0) {
        for (const std::uint32_t i : group.positions) {
          out[i] = queries[i].servers == 0 ? 1.0 : 0.0;
        }
        continue;
      }
      const std::uint64_t key = std::bit_cast<std::uint64_t>(rho);
      if (const auto it = snapshot->states.find(key);
          it != snapshot->states.end()) {
        group.snap = it->second.prefix.get();
      }
      std::uint64_t max_servers = 0;
      for (const std::uint32_t i : group.positions) {
        max_servers = std::max(max_servers, queries[i].servers);
      }
      if (group.snap == nullptr || group.snap->size() <= max_servers) {
        if (arena == nullptr) {
          arena = &local_arena();
          arena_lock = std::unique_lock<std::mutex>(arena->m);
        }
        group.state = &arena->state_for(*snapshot, key);
        group.covered_before = group.state->combined();
        const std::uint64_t cap =
            std::min<std::uint64_t>(max_servers, kMaxStatePrefix - 1);
        if (cap + 1 > group.covered_before) {
          const std::uint64_t need = cap + 1 - group.covered_before;
          group.state->ext.reserve(group.state->ext.size() + need);
          LaneTask task;
          task.ext = &group.state->ext;
          task.rho = rho;
          task.start_value = group.state->last();
          task.start_index = static_cast<double>(group.covered_before - 1);
          task.remaining = static_cast<std::size_t>(need);
          tasks.push_back(task);
        }
      }
      groups.push_back(group);
    }

    run_lane_tasks(tasks);
    for (const LaneTask& task : tasks) {
      tally.steps += task.grown;
      arena->doubles += task.grown;
      if (task.grown > 0) {
        ++tally.arena_extensions;
      }
    }

    for (const Group& group : groups) {
      for (const std::uint32_t i : group.positions) {
        const BlockingQuery& query = queries[i];
        ++tally.evaluations;
        if (group.snap != nullptr && group.snap->size() > query.servers) {
          ++tally.cache_hits;
          ++tally.snapshot_hits;
          out[i] = (*group.snap)[query.servers];
          continue;
        }
        const Arena::Extension& state = *group.state;
        if (query.servers < group.covered_before) {
          ++tally.cache_hits;
        }
        if (query.servers < state.combined()) {
          out[i] = state.value_at(query.servers);
          continue;
        }
        // Beyond the per-state cache cap: finish this recursion uncached,
        // exactly as eval_one does.
        double blocking = state.last();
        std::uint64_t uncached = 0;
        for (std::uint64_t n = state.combined(); n <= query.servers; ++n) {
          blocking = query.rho * blocking /
                     (static_cast<double>(n) + query.rho * blocking);
          ++uncached;
        }
        tally.steps += uncached;
        out[i] = blocking;
      }
    }
  } catch (...) {
    flush(tally);
    throw;
  }
  if (arena_lock.owns_lock()) {
    arena_lock.unlock();
  }
  flush(tally);
  maybe_publish();
}

void ErlangKernel::servers_for_many(std::span<const StaffingQuery> queries,
                                    std::span<std::uint64_t> out) {
  VMCONS_REQUIRE(queries.size() == out.size(),
                 "servers_for_many needs one output slot per query");
  validate(queries);
  LoadGroups by_load(queries);
  const SnapshotPtr snapshot = load_snapshot();
  Tally tally;

  // Plan → extend → answer, mirroring eval_many. The tightest (smallest)
  // target in a group decides how far that rho's prefix must grow; one
  // target-driven LaneTask per group runs the predicated lane-count update
  // in run_lane_tasks, and every query is then
  // answered by binary search over the grown prefix, which lands on exactly
  // the index where the scalar walk's per-step branch would have stopped.
  struct Group {
    std::span<const std::uint32_t> positions;  ///< queries of this rho
    const Prefix* snap = nullptr;       ///< published prefix for this rho
    Arena::Extension* state = nullptr;  ///< arena continuation, if needed
    double last_before = 1.0;           ///< prefix tail before growth
    bool fallback = false;              ///< huge-rho group: use staff_one
  };
  std::vector<Group> groups;
  std::vector<LaneTask> tasks;
  Arena* arena = nullptr;
  std::unique_lock<std::mutex> arena_lock;
  bool overflowed = false;
  try {
    for (std::size_t g = 0; g < by_load.size(); ++g) {
      Group group;
      group.positions = by_load[g];
      const double rho = queries[group.positions.front()].rho;
      if (rho == 0.0) {
        for (const std::uint32_t i : group.positions) {
          out[i] = 0;
        }
        continue;
      }
      const std::uint64_t key = std::bit_cast<std::uint64_t>(rho);
      if (const auto it = snapshot->states.find(key);
          it != snapshot->states.end()) {
        group.snap = it->second.prefix.get();
      }
      double tightest = 1.0;
      for (const std::uint32_t i : group.positions) {
        tightest = std::min(tightest, queries[i].target_blocking);
      }
      if (group.snap != nullptr && group.snap->back() <= tightest) {
        groups.push_back(group);  // every answer is in the snapshot prefix
        continue;
      }
      const std::uint64_t limit = servers_limit(rho);
      if (limit + kLaneBlock + 1 >= kMaxStatePrefix) {
        // The walk could outrun the per-state cache cap, and the
        // block-granular lanes would cache past it; keep the scalar walk
        // (which switches to uncached steps at the cap) for huge rhos.
        group.fallback = true;
        groups.push_back(group);
        continue;
      }
      if (arena == nullptr) {
        arena = &local_arena();
        arena_lock = std::unique_lock<std::mutex>(arena->m);
      }
      group.state = &arena->state_for(*snapshot, key);
      group.last_before = group.state->last();
      if (group.last_before > tightest) {
        // Reserve up to the convergence guard plus one block of lane
        // overshoot so drain() never reallocates mid-walk (a realloc would
        // copy the whole grown prefix every doubling).
        const std::size_t cap_bound = limit + kLaneBlock + 2;
        const std::size_t combined = group.state->combined();
        if (cap_bound > combined) {
          group.state->ext.reserve(group.state->ext.size() +
                                   (cap_bound - combined));
        }
        LaneTask task;
        task.ext = &group.state->ext;
        task.rho = rho;
        task.start_value = group.last_before;
        task.start_index =
            static_cast<double>(group.state->combined() - 1);
        task.target = tightest;
        task.limit = limit;
        tasks.push_back(task);
      }
      groups.push_back(group);
    }

    run_lane_tasks(tasks);
    for (const LaneTask& task : tasks) {
      tally.steps += task.grown;
      arena->doubles += task.grown;
      if (task.grown > 0) {
        ++tally.arena_extensions;
      }
      overflowed = overflowed || task.overflowed;
    }
    if (overflowed) {
      throw NumericError("erlang_b_servers failed to converge");
    }

    for (const Group& group : groups) {
      if (group.fallback) {
        continue;  // answered below, after the arena lock drops
      }
      const std::uint64_t limit =
          servers_limit(queries[group.positions.front()].rho);
      for (const std::uint32_t i : group.positions) {
        const double target = queries[i].target_blocking;
        ++tally.evaluations;
        if (group.snap != nullptr && group.snap->back() <= target) {
          ++tally.cache_hits;
          ++tally.snapshot_hits;
          out[i] = guarded_servers(
              descending_lower_bound(*group.snap, target), limit);
          continue;
        }
        const Arena::Extension& state = *group.state;
        if (group.last_before <= target) {
          ++tally.cache_hits;
        }
        if (state.base && state.base->back() <= target) {
          out[i] = guarded_servers(
              descending_lower_bound(*state.base, target), limit);
        } else {
          out[i] = guarded_servers(
              state.base_len() + descending_lower_bound(state.ext, target),
              limit);
        }
      }
    }
  } catch (...) {
    flush(tally);
    throw;
  }
  if (arena_lock.owns_lock()) {
    arena_lock.unlock();
  }

  // Huge-rho fallback groups run the scalar walk; staff_one takes the
  // arena lock itself, so these must run after the batch lock is released.
  try {
    for (const Group& group : groups) {
      if (!group.fallback) {
        continue;
      }
      for (const std::uint32_t i : group.positions) {
        out[i] = staff_one(*snapshot, queries[i].rho,
                           queries[i].target_blocking, tally);
      }
    }
  } catch (...) {
    flush(tally);
    throw;
  }
  flush(tally);
  maybe_publish();
}

double ErlangKernel::erlang_b_capacity(std::uint64_t servers,
                                       double target_blocking) {
  VMCONS_REQUIRE(servers >= 1, "capacity inverse needs at least one server");
  VMCONS_REQUIRE(target_blocking > 0.0 && target_blocking < 1.0,
                 "target blocking must be in (0, 1)");
  const double log_target = std::log(target_blocking);
  const double n = static_cast<double>(servers);
  Tally tally;

  // Bracket exactly like the bisection version, but in the log domain.
  double lo = 0.0;
  double hi = n;
  ++tally.evaluations;
  while (log_erlang_b_plain(servers, hi, tally.steps) < log_target) {
    hi *= 2.0;
    ++tally.evaluations;
    if (hi > 1e12) {
      flush(tally);
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

  flush(tally);
  return rho;
}

void ErlangKernel::publish() {
  Arena* own = registered_local_arena();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t serial = serial_.load(std::memory_order_relaxed);
  const SnapshotPtr old_snapshot = load_snapshot();
  auto next = std::make_shared<Snapshot>();
  next->version = old_snapshot->version + 1;
  next->states = old_snapshot->states;  // shallow: prefixes are shared
  next->doubles = old_snapshot->doubles;

  for (const auto& arena_ptr : arenas_) {
    Arena& arena = *arena_ptr;
    if (arena.serial != serial) {
      continue;  // orphaned by clear(); excluded from new snapshots
    }
    std::lock_guard<std::mutex> arena_lock(arena.m);
    for (const auto& [key, state] : arena.states) {
      const std::size_t combined = state.combined();
      const auto it = next->states.find(key);
      const std::size_t have =
          it != next->states.end() ? it->second.prefix->size() : 0;
      if (combined <= have) {
        continue;
      }
      // The recurrence is deterministic, so every thread's extension of
      // this rho agrees bit-for-bit on shared indices: the union is simply
      // the longest prefix.
      auto merged = std::make_shared<Prefix>();
      merged->reserve(combined);
      if (state.base) {
        merged->insert(merged->end(), state.base->begin(), state.base->end());
      }
      merged->insert(merged->end(), state.ext.begin(), state.ext.end());
      next->doubles += combined - have;
      next->states[key] = SnapshotEntry{std::move(merged), next->version};
    }
    if (&arena == own) {
      // Only the owner may mutate (its lock-free read path allows no other
      // writer); foreign arenas self-clean on their owner's next query.
      arena.states.clear();
      arena.doubles = 0;
    }
  }

  // Bound the published tier: least-recently-merged states go first.
  while (next->states.size() > max_states_ ||
         (next->doubles > kPrefixBudget && !next->states.empty())) {
    auto victim = next->states.begin();
    for (auto it = next->states.begin(); it != next->states.end(); ++it) {
      if (it->second.touched < victim->second.touched) {
        victim = it;
      }
    }
    next->doubles -= victim->second.prefix->size();
    next->states.erase(victim);
  }

  snapshot_.store(std::move(next), std::memory_order_release);
  merges_.fetch_add(1, std::memory_order_relaxed);
  merges_metric_.add();
}

ErlangKernel::Stats ErlangKernel::stats() const {
  Stats stats;
  stats.evaluations = evaluations_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.steps = steps_.load(std::memory_order_relaxed);
  stats.snapshot_hits = snapshot_hits_.load(std::memory_order_relaxed);
  stats.arena_extensions = arena_extensions_.load(std::memory_order_relaxed);
  stats.merges = merges_.load(std::memory_order_relaxed);
  return stats;
}

void ErlangKernel::clear() {
  Arena* own = registered_local_arena();
  std::lock_guard<std::mutex> lock(mutex_);
  // A new generation orphans every registered arena (threads re-register on
  // their next query). Only the caller's own arena can be idle for sure —
  // its owner is here, and merges are locked out — so it is freed now;
  // other orphans are retained until destruction so a concurrent query
  // never touches freed memory, and are marked for their threads to prune.
  thread_arena_map().erase(serial_.load(std::memory_order_relaxed));
  std::erase_if(arenas_, [own](const std::shared_ptr<Arena>& arena) {
    return arena.get() == own;
  });
  for (const std::shared_ptr<Arena>& arena : arenas_) {
    arena->retired.store(true, std::memory_order_relaxed);
  }
  serial_.store(g_kernel_serial.fetch_add(1, std::memory_order_relaxed),
                std::memory_order_release);
  snapshot_.store(std::make_shared<const Snapshot>(),
                  std::memory_order_release);
  evaluations_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  snapshot_hits_.store(0, std::memory_order_relaxed);
  steps_.store(0, std::memory_order_relaxed);
  arena_extensions_.store(0, std::memory_order_relaxed);
  merges_.store(0, std::memory_order_relaxed);
}

ErlangKernel& ErlangKernel::shared() {
  static ErlangKernel kernel;
  return kernel;
}

// --- ErlangWalk: the call-local walk ---------------------------------------
//
// Each entry point plans one lane task per distinct (rho, target) or
// (rho, servers) of its span and runs them all in one lane pass. A task
// starts at the resume point its rho had when the call began if its answer
// lies past that point, else at E_0, and keeps no values. Each rho's
// resume point then moves to the farthest point its tasks reached. Every
// task is the lane engine's exact scalar sequence, so answers are
// bit-identical to the free functions.

namespace {

/// A lane task continuing rho's recurrence from E_{index} = value.
LaneTask walk_from(double rho, std::uint64_t index, double value) {
  LaneTask task;
  task.rho = rho;
  task.start_index = static_cast<double>(index);
  task.start_value = value;
  task.last = value;
  return task;
}

/// Moves each task's rho to the point the task ended at, if farther.
template <typename ResumePoints>
void advance(ResumePoints& points, const std::vector<LaneTask>& tasks) {
  for (const LaneTask& task : tasks) {
    auto& point = points[std::bit_cast<std::uint64_t>(task.rho)];
    const std::uint64_t end =
        static_cast<std::uint64_t>(task.start_index) + task.grown;
    if (end > point.index) {
      point.index = end;
      point.value = task.last;
    }
  }
}

}  // namespace

void ErlangWalk::servers_for_many(std::span<const StaffingQuery> queries,
                                  std::span<std::uint64_t> out) {
  VMCONS_REQUIRE(queries.size() == out.size(),
                 "servers_for_many needs one output slot per query");
  validate(queries);
  LoadGroups by_load(queries);
  std::vector<LaneTask> tasks;
  std::vector<std::pair<std::uint32_t, std::size_t>> answers;  // query, task
  for (std::size_t g = 0; g < by_load.size(); ++g) {
    const std::span<std::uint32_t> group = by_load[g];
    const double rho = queries[group.front()].rho;
    if (rho == 0.0) {
      for (const std::uint32_t i : group) {
        out[i] = 0;
      }
      continue;
    }
    // Equal targets adjacent, so each distinct target plans one task.
    std::sort(group.begin(), group.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return queries[a].target_blocking > queries[b].target_blocking;
              });
    const ResumePoint from = resume_[std::bit_cast<std::uint64_t>(rho)];
    double planned = 1.0;  // no task yet: a target of 1.0 never plans one
    for (const std::uint32_t i : group) {
      const double target = queries[i].target_blocking;
      if (target >= 1.0) {
        out[i] = 0;  // E_0 = 1 already meets the target
        continue;
      }
      if (target != planned) {
        // E_n is decreasing in n: a target above the resume value is met
        // only at or behind it.
        LaneTask task = from.value > target
                            ? walk_from(rho, from.index, from.value)
                            : walk_from(rho, 0, 1.0);
        task.target = target;
        task.limit = servers_limit(rho);
        tasks.push_back(task);
        planned = target;
      }
      answers.emplace_back(i, tasks.size() - 1);
    }
  }
  run_lane_tasks(tasks);
  for (const LaneTask& task : tasks) {
    if (task.overflowed) {
      throw NumericError("erlang_b_servers failed to converge");
    }
  }
  advance(resume_, tasks);
  for (const auto& [i, t] : answers) {
    out[i] = static_cast<std::uint64_t>(tasks[t].start_index) + tasks[t].grown;
  }
}

void ErlangWalk::eval_many(std::span<const BlockingQuery> queries,
                           std::span<double> out) {
  VMCONS_REQUIRE(queries.size() == out.size(),
                 "eval_many needs one output slot per query");
  validate(queries);
  LoadGroups by_load(queries);
  std::vector<LaneTask> tasks;
  std::vector<std::pair<std::uint32_t, std::size_t>> answers;  // query, task
  for (std::size_t g = 0; g < by_load.size(); ++g) {
    const std::span<std::uint32_t> group = by_load[g];
    const double rho = queries[group.front()].rho;
    if (rho == 0.0) {
      for (const std::uint32_t i : group) {
        out[i] = queries[i].servers == 0 ? 1.0 : 0.0;
      }
      continue;
    }
    // Equal server counts adjacent, so each distinct count plans one task.
    std::sort(group.begin(), group.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return queries[a].servers < queries[b].servers;
              });
    const ResumePoint from = resume_[std::bit_cast<std::uint64_t>(rho)];
    std::uint64_t planned = 0;  // no task yet: n = 0 never plans one
    for (const std::uint32_t i : group) {
      const std::uint64_t servers = queries[i].servers;
      if (servers == 0 || servers == from.index) {
        out[i] = servers == 0 ? 1.0 : from.value;
        continue;
      }
      if (servers != planned) {
        LaneTask task = servers > from.index
                            ? walk_from(rho, from.index, from.value)
                            : walk_from(rho, 0, 1.0);
        task.remaining = static_cast<std::size_t>(
            servers - static_cast<std::uint64_t>(task.start_index));
        tasks.push_back(task);
        planned = servers;
      }
      answers.emplace_back(i, tasks.size() - 1);
    }
  }
  run_lane_tasks(tasks);
  advance(resume_, tasks);
  for (const auto& [i, t] : answers) {
    out[i] = tasks[t].last;
  }
}

}  // namespace vmcons::queueing
