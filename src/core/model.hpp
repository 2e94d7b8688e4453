// The utility analytic model (Section III) — the paper's contribution.
//
// Given the average arrival rate of each service, the per-resource native
// serving rates, the virtualization impact factors, and a target request
// loss probability B, the model computes — before running any service —
//
//   M   servers needed by the dedicated deployment (per service, per
//       resource Erlang-B staffing; max over resources; sum over services),
//   N   servers needed by the consolidated deployment (merged Poisson
//       stream per resource with the Eq. (4) effective service rate;
//       Erlang-B staffing; max over resources),
//   U_M, U_N      average server utilizations (Eq. 8-11),
//   P_M, P_N      power draws under the linear model (Eq. 12-14),
//
// all at the same loss probability. Fig. 4's iterative algorithm is
// queueing::erlang_b_servers; solve() runs it in lanes, bit-identically.
//
// Resource-demand convention: a service with mu_ij = 0 places no demand on
// resource j and is excluded from that resource's merged stream (the paper
// treats the DB service's disk demand this way: "close to zero").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "datacenter/power.hpp"
#include "datacenter/resource.hpp"
#include "datacenter/server_class.hpp"
#include "datacenter/service_spec.hpp"

namespace vmcons::queueing {
class ErlangKernel;
}  // namespace vmcons::queueing

namespace vmcons::core {

struct ModelInputs {
  /// Target loss probability B (loss calculated by requests), in (0, 1).
  double target_loss = 0.01;
  /// The concurrent services to host.
  std::vector<dc::ServiceSpec> services;
  /// Number of co-resident VMs per consolidated server, used to evaluate
  /// the impact curves a_ij(v). Defaults to one VM per service.
  std::optional<unsigned> vms_per_server;
  /// Power model parameters for the two platforms.
  dc::PowerModel dedicated_power = dc::PowerModel::paper_default(dc::Platform::kNativeLinux);
  dc::PowerModel consolidated_power = dc::PowerModel::paper_default(dc::Platform::kXen);
  /// Heterogeneous server classes to staff from. Empty (the default) keeps
  /// the classic homogeneous reference-server model; non-empty adds a
  /// fleet-aware allocation pass mapping M and N onto per-class counts (see
  /// ModelResult::fleet) and derives power from per-class wattages.
  dc::Fleet fleet;
};

/// Per-service staffing of the dedicated deployment.
struct ServicePlan {
  std::string name;
  dc::ResourceVector offered_load;            ///< rho_ij = lambda_i / mu_ij
  std::array<std::uint64_t, dc::kResourceCount> servers_per_resource{};
  std::uint64_t servers = 0;                  ///< max over resources
  double blocking = 0.0;                      ///< E_n at the bottleneck
};

/// Per-resource staffing of the consolidated deployment.
struct ConsolidatedResourcePlan {
  dc::Resource resource = dc::Resource::kCpu;
  double merged_arrival_rate = 0.0;   ///< sum of lambda_i over demanders
  double effective_service_rate = 0.0;///< Eq. (4)
  double offered_load = 0.0;          ///< Eq. (5)
  std::uint64_t servers = 0;
  bool demanded = false;              ///< any service demands this resource
};

/// One server class's share of a fleet staffing allocation.
struct ClassAllocation {
  std::string name;
  /// Reference-equivalents per server (ServerClass::speed()).
  double speed = 0.0;
  /// Owned count (ServerClass::kUnbounded when unconstrained).
  std::uint64_t available = 0;
  std::uint64_t dedicated_servers = 0;     ///< M_c: physical servers for M
  std::uint64_t consolidated_servers = 0;  ///< N_c: physical servers for N
  double dedicated_power_watts = 0.0;      ///< M_c x native-Linux watts
  double consolidated_power_watts = 0.0;   ///< N_c x Xen watts
};

/// How a fleet covers the reference-unit staffing answers M and N: classes
/// are filled fastest first (per-watt cheapest among equal speeds; see
/// batch_kernels::staff_fleet for the deterministic tie-break), so the
/// physical server count is minimal and never grows when a class is added.
struct FleetPlan {
  /// True iff the inputs carried a fleet; everything below is meaningful
  /// only when set (the homogeneous model leaves the plan empty).
  bool planned = false;
  std::vector<ClassAllocation> classes;  ///< fleet declaration order
  bool dedicated_feasible = true;        ///< counts covered all of M
  bool consolidated_feasible = true;     ///< counts covered all of N
  double dedicated_shortfall = 0.0;      ///< uncovered reference-equivalents
  double consolidated_shortfall = 0.0;

  std::uint64_t dedicated_total() const;     ///< sum of M_c
  std::uint64_t consolidated_total() const;  ///< sum of N_c
};

struct ModelResult {
  // --- The number of servers (Section III-B3 part 1) --------------------
  std::vector<ServicePlan> dedicated;
  std::uint64_t dedicated_servers = 0;  ///< M
  std::array<ConsolidatedResourcePlan, dc::kResourceCount> consolidated;
  std::uint64_t consolidated_servers = 0;  ///< N
  double consolidated_blocking = 0.0;      ///< max_j E_N(rho'_j)

  // --- The utilization of servers (part 2) ------------------------------
  double dedicated_utilization = 0.0;     ///< U_M
  double consolidated_utilization = 0.0;  ///< U_N
  /// U_N / U_M: how much better consolidated servers are utilized
  /// (the paper reports 1.5x predicted, 1.7x measured for group 2).
  double utilization_improvement = 0.0;

  // --- The power consumption of servers (part 3) ------------------------
  double dedicated_power_watts = 0.0;     ///< P_M
  double consolidated_power_watts = 0.0;  ///< P_N
  double power_ratio = 0.0;               ///< P_N / P_M
  double power_saving = 0.0;              ///< 1 - P_N / P_M

  double infrastructure_saving = 0.0;     ///< 1 - N / M

  // --- Heterogeneous fleet allocation (empty unless inputs had a fleet) --
  FleetPlan fleet;
};

class UtilityAnalyticModel {
 public:
  explicit UtilityAnalyticModel(ModelInputs inputs);

  /// Routes every Erlang-B evaluation through `kernel` (so sweeps over many
  /// points share one incremental recursion cache); nullptr restores the
  /// default: solve() answers through a call-local queueing::ErlangWalk,
  /// dedicated_loss()/consolidated_loss() through the erlang.hpp free
  /// functions. Results are bit-identical either way.
  UtilityAnalyticModel& use_kernel(queueing::ErlangKernel* kernel) {
    kernel_ = kernel;
    return *this;
  }

  /// Runs the Fig. 4 algorithm plus the utilization and power derivations.
  /// Implemented as the batch_kernels span kernels over a ScenarioBatch of
  /// one, so results are bit-identical to BatchEvaluator on any batch
  /// containing these inputs.
  ModelResult solve() const;

  /// Overall request-loss probability of the dedicated deployment when
  /// service i gets servers_per_service[i] servers: the lambda-weighted
  /// mean of per-service bottleneck blocking (loss by requests).
  double dedicated_loss(const std::vector<std::uint64_t>& servers_per_service) const;

  /// Overall request-loss probability of the consolidated deployment with
  /// `servers` shared servers: the worst per-resource Erlang-B blocking.
  double consolidated_loss(std::uint64_t servers) const;

  /// Offered load rho_ij of one service on one resource (Eq. 3).
  double dedicated_offered_load(std::size_t service, dc::Resource resource) const;

  /// Merged offered load rho'_j of one resource (Eq. 5), 0 if undemanded.
  double consolidated_offered_load(dc::Resource resource) const;

  const ModelInputs& inputs() const { return inputs_; }

  /// Number of co-resident VMs used to evaluate impact curves.
  unsigned vm_count() const;

 private:
  double clamped_impact(std::size_t service, dc::Resource resource) const;
  /// Erlang-B for the loss queries via kernel_ when set, else the free
  /// functions (solve() goes through the batch kernels instead).
  double eval_erlang_b(std::uint64_t servers, double rho) const;
  std::uint64_t eval_erlang_b_servers(double rho, double target) const;

  ModelInputs inputs_;
  queueing::ErlangKernel* kernel_ = nullptr;
};

/// Picks the "intensive workload" for a service, mirroring the paper's
/// workload-selection rule (Fig. 9): the arrival rate lambda such that the
/// service needs exactly `dedicated_servers` dedicated servers at loss B,
/// positioned `fraction` of the way through the feasible interval
/// (fraction 0 = barely needs that many, 1 = barely fits).
double intensive_workload(const dc::ServiceSpec& service,
                          std::uint64_t dedicated_servers, double target_loss,
                          double fraction = 0.5);

}  // namespace vmcons::core
