// Shared pieces of the vmcons benchmark: run configuration, the result
// record printed as the last output line, the in-memory span tracer, sample
// statistics, and the seeded input generators every workload draws from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/planner.hpp"
#include "core/sweep.hpp"
#include "queueing/erlang_kernel.hpp"

namespace vmbench {

/// Milliseconds on the system-wide monotonic clock. steady_clock is
/// CLOCK_MONOTONIC on Linux, so stamps taken in forked workers line up with
/// the parent's.
double now_ms();

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    ///< scratch directory for stores and ledgers
  std::string trace_out;  ///< Chrome trace-event JSON written by --trace 1
  std::string git_rev = "unknown";
  std::string src_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports. `attempted`/`failed` count
/// scenarios: a scenario fails when it was quarantined, its result did not
/// match the reference, or it belonged to a shard whose lease was reclaimed,
/// a worker that exited non-zero, or a merge that was refused.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< "# key: value" header lines

  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line);
  /// Records `scenarios` failed scenarios and why; marks the run incorrect.
  void fail(std::uint64_t scenarios, const std::string& why);
};

// --- statistics -----------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);
std::vector<double> to_us(const std::vector<double>& ms);
/// Adds the end-to-end metrics from one run's timed requests, each of
/// `scenarios` scenarios: plans_per_s and cpu_us_per_plan (medians over
/// requests), setup_s (median set-up), latency_p50_us of `latency_us`
/// (one unit of answer, `latency_what`) and peak_rss_mb. The latency tail
/// goes into a note: the highest percentile with at least ten samples
/// beyond it, with the sample count. It is reported, not gated: on a shared
/// host it measures neighbours' interference more than this program.
void add_end_to_end(RunResult& result, double scenarios,
                    const std::vector<double>& request_ms,
                    const std::vector<double>& request_cpu_ms,
                    const std::vector<double>& setup_ms,
                    const std::string& latency_what,
                    const std::vector<double>& latency_us);

/// queueing.* per-layer metrics: medians of per-request kernel counters.
void add_queueing(RunResult& result,
                  const std::vector<vmcons::queueing::ErlangKernel::Stats>& stats);

// --- tracing --------------------------------------------------------------

/// One completed span. Times are now_ms() stamps; `parent` indexes the
/// span list (-1 = root); `id` is the request, shard or scenario the span
/// worked on (-1 = none); `pid` is the process that ran it.
struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::int64_t id = -1;
  long pid = 0;
  double ms() const { return end_ms - start_ms; }
};

/// Keeps spans in memory (bounded by `capacity`) and writes them once, as
/// Chrome trace-event JSON, when the run ends. A disabled tracer records
/// nothing and costs one branch per call, which is how the benchmark runs
/// the same request untraced to measure the tracing overhead.
class Tracer {
 public:
  Tracer(bool enabled, std::size_t capacity);

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  /// True once the span budget is spent; workloads stop issuing requests.
  bool full() const noexcept { return spans_.size() >= capacity_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when disabled or full (close(-1) is a no-op).
  int open(const char* name, std::int64_t id = -1);
  void close(int index);
  /// Adds an already-timed span (sink gaps, forked workers' spans) under
  /// `parent`, bypassing the open-span stack.
  int add(const char* name, double start_ms, double end_ms, int parent,
          std::int64_t id, long pid);
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Duration of span `index`; 0 for the -1 a disabled tracer hands out.
  double ms(int index) const {
    return index < 0 ? 0.0 : spans_[static_cast<std::size_t>(index)].ms();
  }

  /// Durations (ms) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Share (percent) of the root spans named `root` not covered by any of
  /// their direct children, summed over all such roots.
  double unaccounted_pct(const std::string& root) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome_json(const std::string& path) const;

  /// Adds trace.overhead_pct (median traced over median untraced request
  /// wall time) and trace.unaccounted_pct (of the "request" spans), then
  /// writes the spans to `path`.
  void finish(RunResult& result, const std::vector<double>& traced_ms,
              const std::vector<double>& untraced_ms,
              const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t id = -1)
        : tracer_(tracer), index_(tracer.open(name, id)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_;
  };

 private:
  int innermost() const { return stack_.empty() ? -1 : stack_.back(); }

  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  long pid_;
};

// --- seeded inputs --------------------------------------------------------

/// splitmix64 stream: the only randomness source, so a seed fixes inputs
/// bit for bit on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)

 private:
  std::uint64_t state_;
};

/// Value drawn uniformly in stratum `i` of `n` log-spaced strata over
/// [lo, hi].
double stratified_log(Rng& rng, std::size_t i, std::size_t n, double lo,
                      double hi);

/// Shape of a what-if grid: axis lengths plus the dedicated-server range
/// the workload-scale axis spans (so the Erlang work per cell is known).
struct GridShape {
  std::size_t losses = 1;
  std::size_t vms = 1;
  std::size_t scales = 1;
  std::size_t mixes = 1;
  double min_servers = 10.0;   ///< dedicated servers per service, low end
  double max_servers = 100.0;  ///< ... high end
  std::size_t size() const { return losses * vms * scales * mixes; }
  /// "8 losses x 3 VMs/server x ... = N scenarios, lo..hi servers per service"
  std::string describe() const;
};

/// The case-study web + DB services with a 3-class fleet. Arrival rates are
/// set so that workload scale 1.0 needs ~1 dedicated server per service.
vmcons::core::ConsolidationPlanner grid_planner();

struct GridInputs {
  vmcons::core::SweepGrid grid;
  /// FNV-1a digest of every axis value: the "same inputs" witness.
  std::uint64_t digest = 0;
};

/// Stratified-jitter grid: every axis value is drawn uniformly inside its
/// own stratum of a log-spaced range, so two seeds give different inputs
/// with the same spread of work. Loss B in [1e-4, 0.05]; VMs per server
/// 2, 3, 4, ...; scale over [min_servers, max_servers]; fleet mixes with
/// seeded mid/new-generation counts.
GridInputs make_grid(const GridShape& shape, std::uint64_t seed);

/// Digest of one result, as checksum_model_results computes for a shard.
std::uint64_t result_digest(const vmcons::core::ModelResult& result);
/// Order-sensitive digest of per-cell digests.
std::uint64_t combine_digests(std::span<const std::uint64_t> digests);

/// CPU time (user + system, ms) of this process plus its waited-for
/// children. Unlike wall time it excludes time the hypervisor stole from
/// the VM, the largest source of run-to-run noise on shared hosts.
double cpu_ms();

/// Peak resident set (MB) of this process and of its largest waited-for
/// child (RUSAGE_CHILDREN), whichever is larger.
double peak_rss_mb();

/// Bytes of every regular file under `path` (a file or a directory tree).
std::uint64_t disk_bytes(const std::string& path);

/// Environment header: git rev, source digest, nproc, CPU model, compiler
/// and flags, lane widths, the scratch filesystem and the fsync policy.
void environment_notes(const Config& config, RunResult& result);

// --- workloads --------------------------------------------------------------

RunResult run_grid_batch(const Config& config);
RunResult run_single_plan(const Config& config);
RunResult run_stream_ckpt(const Config& config);
RunResult run_sharded_2w(const Config& config);

/// The benchmark's own tests: seed determinism, seed sensitivity, and that a
/// corrupted digest is caught. Returns the number of failed checks.
int selftest(const std::string& workdir);

// Input and output digests of small instances, for the self-test.
struct PlanDigests {
  std::uint64_t inputs = 0;
  std::vector<std::uint64_t> plans;  ///< one per plan() call
};
/// Builds a single_plan stream of `count` scenarios and plans each one.
PlanDigests small_plan_digests(std::size_t count, std::uint64_t seed);

struct StoreDigests {
  std::uint64_t store_checksum = 0;
  std::vector<std::uint64_t> shards;  ///< per-shard result digests
};
/// Writes a store for (shape, seed) under `dir` at `shard_size` and returns
/// its checksum plus the fresh-kernel reference digest of every shard.
StoreDigests small_store_digests(const GridShape& shape, std::uint64_t seed,
                                 std::size_t shard_size,
                                 const std::string& dir);
/// Counts shards whose digest differs between `got` and `want`; each
/// missing or extra digest counts once.
std::size_t digest_mismatches(std::span<const std::uint64_t> got,
                              std::span<const std::uint64_t> want);

}  // namespace vmbench
