#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/scenario_store.hpp"
#include "core/streaming_sweep.hpp"
#include "datacenter/server_class.hpp"
#include "util/simd.hpp"

#ifndef VMBENCH_CXX_FLAGS
#define VMBENCH_CXX_FLAGS "unknown"
#endif

namespace vmbench {

using namespace vmcons;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunResult::add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void RunResult::note(const std::string& line) { notes.push_back(line); }

void RunResult::fail(std::uint64_t scenarios, const std::string& why) {
  correct = false;
  failed += scenarios;
  note("FAILED: " + why);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

std::vector<double> to_us(const std::vector<double>& ms) {
  std::vector<double> us;
  us.reserve(ms.size());
  for (const double value : ms) {
    us.push_back(value * 1000.0);
  }
  return us;
}

void add_end_to_end(RunResult& result, double scenarios,
                    const std::vector<double>& request_ms,
                    const std::vector<double>& request_cpu_ms,
                    const std::vector<double>& setup_ms,
                    const std::string& latency_what,
                    const std::vector<double>& latency_us) {
  std::vector<double> throughput;
  for (const double ms : request_ms) {
    throughput.push_back(scenarios / ms * 1000.0);
  }
  std::vector<double> cpu_us;
  for (const double ms : request_cpu_ms) {
    cpu_us.push_back(ms * 1000.0 / scenarios);
  }
  result.add("plans_per_s", median(throughput), "1/s");
  result.add("setup_s", median(setup_ms) / 1000.0, "s");
  result.add("latency_p50_us", median(latency_us), "us");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("cpu_us_per_plan", median(cpu_us), "us");

  const double n = static_cast<double>(latency_us.size());
  double tail = 50.0;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      tail = p;
      break;
    }
  }
  std::ostringstream line;
  line << "latency of " << latency_what << ": p50 " << median(latency_us)
       << " us, p" << tail << " " << percentile(latency_us, tail) << " us, "
       << latency_us.size() << " samples";
  result.note(line.str());
  result.note("closed loop: 1 client, " + std::to_string(request_ms.size()) +
              " requests of " + std::to_string(static_cast<long long>(scenarios)) +
              " scenarios");
}

void add_queueing(RunResult& result,
                  const std::vector<queueing::ErlangKernel::Stats>& stats) {
  std::vector<double> steps, ratio, snapshot, arena, merges;
  for (const auto& s : stats) {
    steps.push_back(static_cast<double>(s.steps));
    ratio.push_back(s.hit_rate());
    snapshot.push_back(static_cast<double>(s.snapshot_hits));
    arena.push_back(static_cast<double>(s.arena_extensions));
    merges.push_back(static_cast<double>(s.merges));
  }
  result.add("queueing.erlang_steps", median(steps), "count");
  result.add("queueing.memo_hit_ratio", median(ratio), "ratio");
  result.add("queueing.snapshot_hits", median(snapshot), "count");
  result.add("queueing.arena_extensions", median(arena), "count");
  result.add("queueing.merges", median(merges), "count");
}

// --- Tracer ---------------------------------------------------------------

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity), pid_(::getpid()) {
  if (enabled_) {
    spans_.reserve(capacity_);
  }
}

int Tracer::open(const char* name, std::int64_t id) {
  if (!enabled_ || full()) {
    return -1;
  }
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({name, now_ms(), 0.0, innermost(), id, pid_});
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
  // Spans close in LIFO order; tolerate an out-of-order close by popping
  // down to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) {
      break;
    }
  }
}

int Tracer::add(const char* name, double start_ms, double end_ms, int parent,
                std::int64_t id, long pid) {
  if (!enabled_ || full()) {
    return -1;
  }
  spans_.push_back({name, start_ms, end_ms, parent, id, pid});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(span.ms());
    }
  }
  return out;
}

double Tracer::unaccounted_pct(const std::string& root) const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ms, span.end_ms);
    }
  }
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent != -1 || root != span.name) {
      continue;
    }
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start_ms;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end_ms);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    total += span.ms();
    uncovered += span.ms() - covered;
  }
  return total > 0.0 ? uncovered / total * 100.0 : 0.0;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": %ld, \"tid\": %ld, \"args\": "
                  "{\"span\": %zu, \"parent\": %d, \"id\": %lld}}\n",
                  i == 0 ? "" : ",", span.name, span.start_ms * 1000.0,
                  span.ms() * 1000.0, span.pid, span.pid, i, span.parent,
                  static_cast<long long>(span.id));
    out << line;
  }
  out << "]}\n";
}

void Tracer::finish(RunResult& result, const std::vector<double>& traced_ms,
                    const std::vector<double>& untraced_ms,
                    const std::string& path) const {
  result.add("trace.overhead_pct",
             (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%");
  result.add("trace.unaccounted_pct", unaccounted_pct("request"), "%");
  result.note("traced: " + std::to_string(traced_ms.size()) + " traced and " +
              std::to_string(untraced_ms.size()) + " untraced requests; " +
              std::to_string(spans_.size()) + " spans written to " + path);
  write_chrome_json(path);
}

// --- seeded inputs --------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

core::ConsolidationPlanner grid_planner() {
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  // One server's worth of load at scale 1: the web service's bottleneck is
  // disk I/O (420 req/s per server), the DB's is CPU (100 req/s).
  web.arrival_rate = 420.0;
  db.arrival_rate = 100.0;

  dc::Fleet fleet;
  fleet.add(dc::ServerClass::reference("old-gen"));
  dc::ServerClass mid;
  mid.name = "mid-gen";
  for (const dc::Resource resource : dc::all_resources()) {
    mid.capacity[resource] = 1.5;
  }
  mid.power = dc::PowerModel{280.0, 340.0};
  fleet.add(mid);
  dc::ServerClass fast;
  fast.name = "new-gen";
  for (const dc::Resource resource : dc::all_resources()) {
    fast.capacity[resource] = 2.0;
  }
  fast.power = dc::PowerModel{310.0, 390.0};
  fleet.add(fast);

  core::ConsolidationPlanner planner;
  planner.set_target_loss(0.01).add_service(web).add_service(db);
  planner.set_fleet(std::move(fleet));
  return planner;
}

double stratified_log(Rng& rng, std::size_t i, std::size_t n, double lo,
                      double hi) {
  const double t = (static_cast<double>(i) + rng.uniform()) /
                   static_cast<double>(n);
  return std::exp(std::log(lo) + t * (std::log(hi) - std::log(lo)));
}


std::string GridShape::describe() const {
  std::ostringstream text;
  text << losses << " losses x " << vms << " VMs/server x " << scales
       << " scales x " << mixes << " fleet mixes = " << size()
       << " scenarios, " << min_servers << ".." << max_servers
       << " dedicated servers per service";
  return text.str();
}

GridInputs make_grid(const GridShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> losses(shape.losses);
  for (std::size_t i = 0; i < shape.losses; ++i) {
    losses[i] = stratified_log(rng, i, shape.losses, 1e-4, 0.05);
  }
  std::vector<unsigned> vms(shape.vms);
  for (std::size_t i = 0; i < shape.vms; ++i) {
    vms[i] = static_cast<unsigned>(2 + i);
  }
  std::vector<double> scales(shape.scales);
  for (std::size_t i = 0; i < shape.scales; ++i) {
    scales[i] = stratified_log(rng, i, shape.scales, shape.min_servers,
                               shape.max_servers);
  }
  std::vector<std::vector<std::uint64_t>> mixes(shape.mixes);
  for (std::size_t i = 0; i < shape.mixes; ++i) {
    const auto mid = static_cast<std::uint64_t>(
        std::llround(stratified_log(rng, i, shape.mixes, 4.0, 4096.0)));
    const auto fast =
        static_cast<std::uint64_t>(std::llround(4.0 + 60.0 * rng.uniform()));
    mixes[i] = {dc::ServerClass::kUnbounded, mid, fast};
  }

  std::uint64_t digest = core::fnv1a64(losses.data(),
                                       losses.size() * sizeof(double));
  digest = core::fnv1a64(vms.data(), vms.size() * sizeof(unsigned), digest);
  digest =
      core::fnv1a64(scales.data(), scales.size() * sizeof(double), digest);
  for (const auto& mix : mixes) {
    digest = core::fnv1a64(mix.data(), mix.size() * sizeof(std::uint64_t),
                           digest);
  }

  GridInputs inputs;
  inputs.grid.target_losses(std::move(losses))
      .vms_per_server(std::move(vms))
      .workload_scales(std::move(scales))
      .fleet_mixes(std::move(mixes));
  inputs.digest = digest;
  return inputs;
}

std::uint64_t result_digest(const core::ModelResult& result) {
  const std::uint8_t evaluated = 1;
  return core::checksum_model_results(std::span(&result, 1),
                                      std::span(&evaluated, 1));
}

std::uint64_t combine_digests(std::span<const std::uint64_t> digests) {
  return core::fnv1a64(digests.data(), digests.size_bytes());
}

double cpu_ms() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1000.0 +
           static_cast<double>(t.tv_usec) / 1000.0;
  };
  return ms(self.ru_utime) + ms(self.ru_stime) + ms(children.ru_utime) +
         ms(children.ru_stime);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::uint64_t disk_bytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) {
    return fs::file_size(path, ec);
  }
  std::uint64_t total = 0;
  for (fs::recursive_directory_iterator it(path, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace

void environment_notes(const Config& config, RunResult& result) {
  result.note("workload: " + config.workload + ", seed " +
              std::to_string(config.seed) + ", " +
              std::to_string(config.seconds) + " s, trace " +
              (config.trace ? "on" : "off"));
  result.note("git rev: " + config.git_rev + ", src digest " +
              config.src_digest);
  result.note("nproc: " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
              ", cpu: " + cpu_model());
  result.note(std::string("compiler: ") + __VERSION__ +
              ", flags: " + VMBENCH_CXX_FLAGS);
  result.note("lanes: kRecurrenceLanes " +
              std::to_string(util::simd::kRecurrenceLanes) +
              ", native double lanes " +
              std::to_string(util::simd::kNativeDoubleLanes));
  result.note("scratch filesystem: " + filesystem_type(config.workdir) +
              " (fsync costs nothing on tmpfs and real device time on "
              "ext4/xfs)");
  result.note("fsync policy: the library's default (on); the benchmark sets "
              "no fsync option, so both sides of a comparison run it the "
              "same way");
  result.note("page cache: warm, each store is read right after this "
              "process wrote it");
}

std::size_t digest_mismatches(std::span<const std::uint64_t> got,
                              std::span<const std::uint64_t> want) {
  std::size_t bad = got.size() > want.size() ? got.size() - want.size()
                                             : want.size() - got.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    bad += got[i] != want[i] ? 1 : 0;
  }
  return bad;
}

}  // namespace vmbench
