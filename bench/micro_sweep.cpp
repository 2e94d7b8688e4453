// Microbenchmark for the SweepGrid planner: the sweep on the calling
// thread vs the same sweep fanned out over the shared thread pool, run
// twice. Both configurations answer their Erlang-B queries the same way (a
// call-local walk per staffing pass), so the ratio measures the pool alone;
// the bench verifies the reports are identical before printing timings.
// Not a paper figure; performance hygiene for the what-if sweep path.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/metrics.hpp"

namespace vmcons::bench {
namespace {

using Clock = std::chrono::steady_clock;

double run_millis(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Case-study services under heavy load: `dedicated` dedicated servers per
/// service pushes the offered loads into the tens of thousands of Erlangs,
/// where each cold staffing search walks a long recurrence prefix.
core::ConsolidationPlanner heavy_planner(std::uint64_t dedicated,
                                         double target_loss) {
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = core::intensive_workload(web, dedicated, target_loss);
  db.arrival_rate = core::intensive_workload(db, dedicated, target_loss);
  core::ConsolidationPlanner planner;
  planner.set_target_loss(target_loss).add_service(web).add_service(db);
  return planner;
}

bool same_reports(const std::vector<core::SweepCell>& a,
                  const std::vector<core::SweepCell>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ma = a[i].report.model;
    const auto& mb = b[i].report.model;
    if (ma.dedicated_servers != mb.dedicated_servers ||
        ma.consolidated_servers != mb.consolidated_servers ||
        ma.consolidated_blocking != mb.consolidated_blocking ||
        ma.power_saving != mb.power_saving) {
      return false;
    }
  }
  return true;
}

int run(int argc, const char** argv) {
  Flags flags(argc, argv);
  const auto losses_n = static_cast<std::size_t>(flags.get_int("losses", 10));
  const auto scales_n = static_cast<std::size_t>(flags.get_int("scales", 10));
  const auto dedicated =
      static_cast<std::uint64_t>(flags.get_int("servers", 20000));
  // Optional gate on the parallel/serial ratio. Off by default: the ratio
  // is pool scaling, which micro_batch --min-parallel-speedup gates on
  // machines with enough hardware threads to show it.
  const double min_speedup = flags.get_double("min-speedup", 0.0);
  finish_flags(flags);

  banner("micro_sweep: serial vs thread-pool SweepGrid",
         "library performance hygiene (no paper figure)");
  metrics::registry().reset();

  const core::ConsolidationPlanner planner = heavy_planner(dedicated, 0.01);

  // Loss axis log-spaced 0.05 -> 1e-4, scale axis linear 0.5 -> 2.0.
  std::vector<double> losses;
  for (std::size_t i = 0; i < losses_n; ++i) {
    const double t = losses_n == 1
                         ? 0.0
                         : static_cast<double>(i) /
                               static_cast<double>(losses_n - 1);
    losses.push_back(0.05 * std::pow(1e-4 / 0.05, t));
  }
  std::vector<double> scales;
  for (std::size_t i = 0; i < scales_n; ++i) {
    const double t = scales_n == 1
                         ? 0.0
                         : static_cast<double>(i) /
                               static_cast<double>(scales_n - 1);
    scales.push_back(0.5 + t * 1.5);
  }
  core::SweepGrid grid;
  grid.target_losses(losses).workload_scales(scales);
  std::cout << "grid: " << losses.size() << " losses x " << scales.size()
            << " scales = " << grid.size() << " plans, offered load ~"
            << static_cast<long long>(dedicated) << " Erlangs/service\n\n";

  core::SweepOptions serial;
  serial.parallel = false;

  queueing::ErlangKernel kernel;  // counter sink for the parallel runs
  core::SweepOptions parallel;
  parallel.kernel = &kernel;

  std::vector<core::SweepCell> baseline;
  std::vector<core::SweepCell> first;
  std::vector<core::SweepCell> second;
  const double serial_ms =
      run_millis([&] { baseline = planner.sweep(grid, serial); });
  const double first_ms =
      run_millis([&] { first = planner.sweep(grid, parallel); });
  const double second_ms =
      run_millis([&] { second = planner.sweep(grid, parallel); });

  if (!same_reports(baseline, first) || !same_reports(baseline, second)) {
    std::cerr << "FAIL: parallel sweep diverged from the serial sweep\n";
    return EXIT_FAILURE;
  }
  std::cout << "all " << grid.size()
            << " reports identical across configurations\n\n";

  AsciiTable table;
  table.set_header({"configuration", "wall ms", "speedup"});
  table.add_row({"serial (calling thread)", AsciiTable::format(serial_ms, 1),
                 "1.0x"});
  table.add_row({"parallel (thread pool), first run",
                 AsciiTable::format(first_ms, 1),
                 AsciiTable::format(serial_ms / first_ms, 1) + "x"});
  table.add_row({"parallel (thread pool), second run",
                 AsciiTable::format(second_ms, 1),
                 AsciiTable::format(serial_ms / second_ms, 1) + "x"});
  table.print(std::cout,
              std::to_string(grid.size()) + "-point sweep wall time");

  const auto stats = kernel.stats();
  std::cout << "\nparallel runs: " << stats.evaluations
            << " Erlang evaluations, "
            << stats.cache_hits << " cache hits ("
            << AsciiTable::format(stats.hit_rate() * 100.0, 1)
            << "% hit rate), " << stats.steps << " recurrence steps\n\n";
  core::print_metrics(std::cout);

  const double speedup = serial_ms / first_ms;
  std::cout << "\nfirst parallel run's speedup over the serial sweep: "
            << AsciiTable::format(speedup, 1) << "x (target >= "
            << AsciiTable::format(min_speedup, 1) << "x)\n";
  return speedup >= min_speedup ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace
}  // namespace vmcons::bench

int main(int argc, const char** argv) {
  try {
    return vmcons::bench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return EXIT_FAILURE;
  }
}
