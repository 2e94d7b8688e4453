// In-memory workloads: grid_batch (one sweep_all over a what-if grid per
// request) and single_plan (one plan() call per request).
#include <optional>
#include <utility>

#include "bench.hpp"
#include "core/batch_eval.hpp"
#include "core/scenario_batch.hpp"
#include "core/scenario_store.hpp"
#include "datacenter/server_class.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace vmbench {

using namespace vmcons;

namespace {

// grid_batch: 8 losses x 3 densities x 96 scales x 3 fleet mixes = 6912
// cells, workload scale spanning 50..5000 dedicated servers per service (so
// M peaks near 10^4). 96 scales x 2 services x 3 densities give far more
// distinct offered loads than the kernel's 64-state snapshot memo holds.
constexpr GridShape kGridShape{8, 3, 96, 3, 50.0, 5000.0};
// single_plan: the client cycles through this many seeded scenarios.
constexpr std::size_t kPlanStream = 16384;
constexpr int kGridSetupBlock = 10;
constexpr std::size_t kSpanCapacity = 200000;
// single_plan records 4 spans per plan; room for two traced passes.
constexpr std::size_t kPlanSpanCapacity = 8 * kPlanStream + 64;
constexpr std::size_t kMinRequests = 3;

/// Digest of a sweep outcome, cell by cell; unevaluated cells digest as 0.
std::uint64_t outcome_digest(const core::SweepOutcome& outcome) {
  std::vector<std::uint64_t> cells(outcome.cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = outcome.cells[i].evaluated
                   ? result_digest(outcome.cells[i].report.model)
                   : 0;
  }
  return combine_digests(cells);
}

std::uint64_t results_digest(const std::vector<core::ModelResult>& results) {
  std::vector<std::uint64_t> cells(results.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = result_digest(results[i]);
  }
  return combine_digests(cells);
}

core::ScenarioBatch grid_batch_inputs(const core::ConsolidationPlanner& planner,
                                      const core::SweepGrid& grid) {
  core::ScenarioBatch batch;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    batch.append(planner.point_inputs(grid.point(i)));
  }
  return batch;
}

/// Per-layer figures of one traced grid_batch request.
struct GridLayers {
  double inputs_ms = 0.0;
  double eval_2t_ms = 0.0;
  double eval_1t_ms = 0.0;
  double kernels_ms = 0.0;
  double lock_wait_ms = 0.0;
  queueing::ErlangKernel::Stats stats;
};

}  // namespace

// --- grid_batch -------------------------------------------------------------

RunResult run_grid_batch(const Config& config) {
  RunResult result;
  environment_notes(config, result);
  Tracer tracer(config.trace, kSpanCapacity);

  // Set-up: what a user pays before a sweep, the planner and the grid. One
  // build takes a few microseconds, so each sample times a block of builds.
  // A sample is taken before every request rather than in one burst at
  // start-up: a burst lands in whatever scheduling and cache state the
  // process starts in, which on a shared host differs by ~30% from process
  // to process. setup_s is the median sample. The 2-thread pool is a
  // process-wide resource, created once and not counted.
  ThreadPool pool(2);
  std::optional<core::ConsolidationPlanner> planner;
  GridInputs inputs;
  std::vector<double> setup_ms;
  const auto set_up = [&](int builds) {
    const Tracer::Scope setup(tracer, "setup");
    const double t0 = now_ms();
    for (int i = 0; i < builds; ++i) {
      {
        const Tracer::Scope span(tracer, "planner.build");
        planner = grid_planner();
      }
      const Tracer::Scope span(tracer, "planner.grid");
      inputs = make_grid(kGridShape, config.seed);
    }
    setup_ms.push_back((now_ms() - t0) / builds);
  };
  set_up(config.trace ? 1 : kGridSetupBlock);
  const core::SweepGrid& grid = inputs.grid;
  const std::size_t cells = grid.size();
  result.note("inputs: " + kGridShape.describe() +
              "; 2-thread pool; fresh ErlangKernel per request; input digest " +
              std::to_string(inputs.digest));

  // Reference (off the clock): a 1-thread fresh-kernel evaluation of the
  // same cells, plus a seeded sample re-solved by the stateless free
  // functions (UtilityAnalyticModel without a kernel).
  const core::ScenarioBatch reference_batch = grid_batch_inputs(*planner, grid);
  std::uint64_t reference = 0;
  {
    queueing::ErlangKernel kernel;
    core::BatchOptions options;
    options.parallel = false;
    options.kernel = &kernel;
    options.pool = &pool;
    options.policy = core::FailurePolicy::kQuarantine;
    const core::BatchOutcome outcome =
        core::BatchEvaluator(options).evaluate_all(reference_batch);
    reference = results_digest(outcome.results);
    if (!outcome.complete()) {
      result.fail(outcome.failures.size(), "reference evaluation quarantined cells");
    }
    Rng rng(config.seed ^ 0x5a5a5a5aULL);
    std::size_t mismatched = 0;
    constexpr std::size_t kSample = 64;
    for (std::size_t s = 0; s < kSample; ++s) {
      const std::size_t cell = rng.next() % cells;
      const core::ModelResult free_path =
          core::UtilityAnalyticModel(planner->point_inputs(grid.point(cell)))
              .solve();
      mismatched += result_digest(free_path) !=
                            result_digest(outcome.results[cell])
                        ? 1
                        : 0;
    }
    result.attempted += kSample;
    if (mismatched > 0) {
      result.fail(mismatched, std::to_string(mismatched) + " of " +
                                  std::to_string(kSample) +
                                  " sampled cells differ from the free-function path");
    }
  }

  core::SweepOptions options;
  options.pool = &pool;
  options.policy = core::FailurePolicy::kQuarantine;

  std::vector<double> request_ms;
  std::vector<double> request_cpu_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<GridLayers> layers;
  const double start = now_ms();
  for (std::size_t id = 0;
       request_ms.size() < kMinRequests ||
       (now_ms() - start < config.seconds * 1000.0 && !tracer.full());
       ++id) {
    if (!config.trace) {
      set_up(kGridSetupBlock);
      queueing::ErlangKernel kernel;
      options.kernel = &kernel;
      const double c0 = cpu_ms();
      const double t0 = now_ms();
      const core::SweepOutcome outcome = planner->sweep_all(grid, options);
      request_ms.push_back(now_ms() - t0);
      request_cpu_ms.push_back(cpu_ms() - c0);
      result.attempted += cells;
      if (!outcome.complete()) {
        result.fail(outcome.failures.size(), "sweep quarantined cells");
      }
      if (outcome_digest(outcome) != reference) {
        result.fail(cells, "sweep outcome digest differs from the reference");
      }
      continue;
    }

    // Traced request: the same sweep decomposed into the public calls
    // sweep_all makes (inputs, then the 2-thread evaluation), followed by a
    // 1-thread evaluation and the five batch kernels called by hand, each
    // with its own fresh kernel. Every second request runs untraced so the
    // tracing overhead is measured on identical work.
    tracer.set_enabled(id % 2 == 0);
    GridLayers layer;
    bool complete = true;
    std::vector<core::ModelResult> outputs[3];
    // Each layer span covers its kernel's whole lifetime, so the request's
    // wall time is the sum of its layers plus the span bookkeeping.
    const auto evaluate = [&](bool parallel, const core::ScenarioBatch& batch) {
      queueing::ErlangKernel kernel;
      core::BatchOptions batch_options;
      batch_options.parallel = parallel;
      batch_options.kernel = &kernel;
      batch_options.pool = &pool;
      batch_options.policy = core::FailurePolicy::kQuarantine;
      core::BatchOutcome outcome =
          core::BatchEvaluator(batch_options).evaluate_all(batch);
      complete = complete && outcome.complete();
      if (parallel) {
        layer.stats = kernel.stats();
      }
      return std::move(outcome.results);
    };
    auto& lock_wait = metrics::registry().timer(metrics::names::kBatchLockWait);
    const double t0 = now_ms();
    const int root = tracer.open("request", static_cast<std::int64_t>(id));
    int span = tracer.open("planner.inputs");
    const core::ScenarioBatch batch = grid_batch_inputs(*planner, grid);
    tracer.close(span);
    layer.inputs_ms = tracer.ms(span);
    const std::uint64_t lock_before = lock_wait.total_nanos();
    span = tracer.open("batch_eval.evaluate_all_2t");
    outputs[0] = evaluate(true, batch);
    tracer.close(span);
    layer.eval_2t_ms = tracer.ms(span);
    layer.lock_wait_ms =
        static_cast<double>(lock_wait.total_nanos() - lock_before) / 1e6;
    span = tracer.open("batch_eval.evaluate_all_1t");
    outputs[1] = evaluate(false, batch);
    tracer.close(span);
    layer.eval_1t_ms = tracer.ms(span);
    span = tracer.open("batch_eval.kernels");
    {
      namespace bk = core::batch_kernels;
      const std::size_t n = batch.size();
      queueing::ErlangKernel kernel;
      std::vector<core::ModelResult>& results = outputs[2];
      results.resize(n);
      int k = tracer.open("batch_eval.staff_dedicated");
      bk::staff_dedicated(batch, 0, n, &kernel, results);
      tracer.close(k);
      k = tracer.open("batch_eval.staff_consolidated");
      bk::staff_consolidated(batch, 0, n, &kernel, results);
      tracer.close(k);
      k = tracer.open("batch_eval.staff_fleet");
      bk::staff_fleet(batch, 0, n, results);
      tracer.close(k);
      k = tracer.open("batch_eval.derive_utility");
      bk::derive_utility(batch, 0, n, results);
      tracer.close(k);
      k = tracer.open("batch_eval.derive_power");
      bk::derive_power(batch, 0, n, results);
      tracer.close(k);
    }
    tracer.close(span);
    layer.kernels_ms = tracer.ms(span);
    tracer.close(root);
    const double wall = now_ms() - t0;
    if (tracer.enabled()) {
      traced_ms.push_back(wall);
      layers.push_back(layer);
    } else {
      untraced_ms.push_back(wall);
    }
    result.attempted += 3 * cells;
    if (!complete) {
      result.fail(cells, "traced evaluation quarantined cells");
    }
    for (const auto& output : outputs) {
      if (results_digest(output) != reference) {
        result.fail(cells, "traced evaluation digest differs from the reference");
      }
    }
    request_ms.push_back(wall);
  }

  if (!config.trace) {
    add_end_to_end(result, static_cast<double>(cells), request_ms,
                   request_cpu_ms, setup_ms, "one sweep_all request",
                   to_us(request_ms));
    result.note("disk_bytes_per_plan: 0 (in memory)");
    return result;
  }

  std::vector<double> inputs_ms, overhead_ms, speedup, lock_ms;
  std::vector<queueing::ErlangKernel::Stats> stats;
  for (const GridLayers& layer : layers) {
    inputs_ms.push_back(layer.inputs_ms);
    overhead_ms.push_back(layer.eval_1t_ms - layer.kernels_ms);
    speedup.push_back(layer.eval_1t_ms / layer.eval_2t_ms);
    lock_ms.push_back(layer.lock_wait_ms);
    stats.push_back(layer.stats);
  }
  result.add("planner.inputs_ms", median(inputs_ms), "ms");
  add_queueing(result, stats);
  for (const char* name :
       {"batch_eval.staff_dedicated", "batch_eval.staff_consolidated",
        "batch_eval.staff_fleet", "batch_eval.derive_utility",
        "batch_eval.derive_power"}) {
    result.add(std::string(name) + "_ms", median(tracer.durations(name)), "ms");
  }
  result.add("batch_eval.overhead_ms", median(overhead_ms), "ms");
  result.add("batch_eval.pool_speedup", median(speedup), "ratio");
  result.add("batch_eval.lock_wait_ms", median(lock_ms), "ms");
  result.note("overhead_ms = 1-thread evaluate_all - sum of the five kernels "
              "called by hand (staging, sorting, publish)");
  tracer.finish(result, traced_ms, untraced_ms, config.trace_out);
  return result;
}

// --- single_plan ------------------------------------------------------------

namespace {

struct PlanStream {
  std::vector<core::ConsolidationPlanner> planners;
  std::uint64_t digest = 0;
};

/// `count` planners whose dedicated-server needs are stratified over
/// 10..10^4 (log scale) and then shuffled, with a seeded web/DB split,
/// target loss, density and fleet mix each.
PlanStream make_plan_stream(std::size_t count, std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> servers(count);
  for (std::size_t k = 0; k < count; ++k) {
    servers[k] = stratified_log(rng, k, count, 10.0, 1e4);
  }
  for (std::size_t k = count; k > 1; --k) {
    std::swap(servers[k - 1], servers[rng.next() % k]);
  }
  const core::ConsolidationPlanner base = grid_planner();
  PlanStream stream;
  stream.planners.reserve(count);
  std::vector<double> params;
  params.reserve(count * 6);
  for (std::size_t k = 0; k < count; ++k) {
    const double web_share = 0.2 + 0.6 * rng.uniform();
    const double loss = stratified_log(rng, 0, 1, 1e-4, 0.05);
    const auto vms = static_cast<unsigned>(2 + rng.next() % 4);
    const auto mid = static_cast<std::uint64_t>(4 + rng.next() % 4093);
    const auto fast = static_cast<std::uint64_t>(4 + rng.next() % 61);
    dc::ServiceSpec web = base.services()[0];
    dc::ServiceSpec db = base.services()[1];
    web.arrival_rate *= servers[k] * web_share;
    db.arrival_rate *= servers[k] * (1.0 - web_share);
    core::ConsolidationPlanner planner;
    planner.set_target_loss(loss).set_vms_per_server(vms);
    planner.add_service(std::move(web)).add_service(std::move(db));
    planner.set_fleet(
        base.fleet().with_counts({dc::ServerClass::kUnbounded, mid, fast}));
    stream.planners.push_back(std::move(planner));
    params.insert(params.end(), {servers[k], web_share, loss,
                                 static_cast<double>(vms),
                                 static_cast<double>(mid),
                                 static_cast<double>(fast)});
  }
  stream.digest = core::fnv1a64(params.data(), params.size() * sizeof(double));
  return stream;
}

}  // namespace

RunResult run_single_plan(const Config& config) {
  RunResult result;
  environment_notes(config, result);
  Tracer tracer(config.trace, kPlanSpanCapacity);

  // Set-up: generating the scenario stream and constructing its planners,
  // repeated before every pass for the reason given in run_grid_batch.
  PlanStream stream;
  std::vector<double> setup_ms;
  const auto set_up = [&] {
    stream = PlanStream{};
    const double t0 = now_ms();
    const int span = tracer.open("planner.build");
    stream = make_plan_stream(kPlanStream, config.seed);
    tracer.close(span);
    setup_ms.push_back(now_ms() - t0);
  };
  set_up();
  const std::size_t count = stream.planners.size();
  result.note("inputs: stream of " + std::to_string(count) +
              " scenarios, 10..10^4 dedicated servers (log-stratified, "
              "shuffled), 2 services, 3-class fleet; input digest " +
              std::to_string(stream.digest));

  // Reference (off the clock): the stateless free-function path,
  // UtilityAnalyticModel::solve() without a kernel, on the same inputs.
  std::vector<std::uint64_t> reference(count);
  for (std::size_t k = 0; k < count; ++k) {
    reference[k] = result_digest(
        core::UtilityAnalyticModel(stream.planners[k].point_inputs({}))
            .solve());
  }

  std::vector<core::PlanReport> reports(count);
  std::vector<core::ModelResult> solves(count);
  std::vector<double> latency_us;
  std::vector<double> round_ms;
  std::vector<double> round_cpu_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> overhead_us;
  std::vector<double> solve_us;
  const double start = now_ms();
  for (std::size_t round = 0;
       round_ms.size() < kMinRequests ||
       (now_ms() - start < config.seconds * 1000.0 &&
        tracer.spans().size() + 4 * count <= kPlanSpanCapacity);
       ++round) {
    if (!config.trace && round > 0) {
      set_up();
    }
    const double c_round = cpu_ms();
    const double t_round = now_ms();
    if (!config.trace) {
      for (std::size_t k = 0; k < count; ++k) {
        const double t0 = now_ms();
        reports[k] = stream.planners[k].plan();
        latency_us.push_back((now_ms() - t0) * 1000.0);
      }
    } else {
      // Traced request: plan(), then the solve() it wraps on the same
      // inputs, so plan() - solve() isolates the planner's fixed cost.
      // Rounds alternate traced and untraced for the overhead figure.
      tracer.set_enabled(round % 2 == 0);
      for (std::size_t k = 0; k < count; ++k) {
        const auto id = static_cast<std::int64_t>(k);
        const int root = tracer.open("request", id);
        const int plan = tracer.open("planner.plan", id);
        reports[k] = stream.planners[k].plan();
        tracer.close(plan);
        int span = tracer.open("planner.point_inputs", id);
        const core::ModelInputs inputs = stream.planners[k].point_inputs({});
        tracer.close(span);
        span = tracer.open("model.solve", id);
        solves[k] = core::UtilityAnalyticModel(inputs).solve();
        tracer.close(span);
        tracer.close(root);
        if (tracer.enabled()) {
          const auto& spans = tracer.spans();
          const double solve = spans[static_cast<std::size_t>(span)].ms();
          overhead_us.push_back(
              (spans[static_cast<std::size_t>(plan)].ms() - solve) * 1000.0);
          solve_us.push_back(solve * 1000.0);
        }
      }
    }
    const double wall = now_ms() - t_round;
    round_ms.push_back(wall);
    round_cpu_ms.push_back(cpu_ms() - c_round);
    if (config.trace) {
      (tracer.enabled() ? traced_ms : untraced_ms).push_back(wall);
    }
    std::size_t mismatched = 0;
    for (std::size_t k = 0; k < count; ++k) {
      mismatched += result_digest(reports[k].model) != reference[k] ? 1 : 0;
      if (config.trace) {
        mismatched += result_digest(solves[k]) != reference[k] ? 1 : 0;
      }
    }
    result.attempted += config.trace ? 2 * count : count;
    if (mismatched > 0) {
      result.fail(mismatched, std::to_string(mismatched) +
                                  " plans differ from the free-function path");
    }
  }
  if (!config.trace) {
    add_end_to_end(result, static_cast<double>(count), round_ms, round_cpu_ms,
                   setup_ms, "one plan() call", latency_us);
    result.note("a request is one pass over the stream; disk_bytes_per_plan: "
                "0 (in memory)");
    return result;
  }

  result.add("planner.plan_overhead_us", median(overhead_us), "us");
  result.add("model.solve_us_p50", median(solve_us), "us");
  result.add("model.solve_us_p99", percentile(solve_us, 99.0), "us");
  tracer.finish(result, traced_ms, untraced_ms, config.trace_out);
  return result;
}

PlanDigests small_plan_digests(std::size_t count, std::uint64_t seed) {
  const PlanStream stream = make_plan_stream(count, seed);
  PlanDigests digests;
  digests.inputs = stream.digest;
  for (const auto& planner : stream.planners) {
    digests.plans.push_back(result_digest(planner.plan().model));
  }
  return digests;
}

}  // namespace vmbench
