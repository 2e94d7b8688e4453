// Columnar (structure-of-arrays) storage for many model scenarios.
//
// The analytic model is cheap per point; the system's value at scale is
// answering *many* points at once — what-if grids, robustness envelopes,
// placement searches over thousands of services. Object-at-a-time
// evaluation re-materializes a vector<ServiceSpec> per grid cell and
// hammers the Erlang kernel with scalar queries. ScenarioBatch instead
// stores every scenario's inputs as contiguous columns:
//
//   per scenario   target loss B, resolved VM count v, the two PowerModels,
//                  the half-open row range of its services, and the
//                  half-open row range of its fleet classes;
//   per service    arrival rate lambda_i, native rate mu_ij per resource,
//   row            the clamped impact factor a_ij(v) per resource (evaluated
//                  at append time), the bottleneck native rate, and the
//                  effective consolidated rate mu_i'(v) — all flattened
//                  across scenarios;
//   per class      name, per-resource capacity multiplier, S_base/S_max
//   row            watts, the owned count, and the derived speed (worst
//                  resource capacity) — flattened across scenarios with
//                  class_begin offsets, mirroring the service-row scheme.
//                  Scenarios without a fleet own zero class rows.
//
// BatchEvaluator (batch_eval.hpp) runs the Fig. 4 staffing algorithm and
// the Eq. 8-14 derivations over whole batches of these columns; the
// single-scenario UtilityAnalyticModel::solve() is a thin view over a
// batch of one, so the two paths are bit-identical by construction.
//
// Derived columns follow the exact arithmetic of the scalar accessors they
// replace (same operand order, same clamping), which is what makes batch
// results interchangeable with scalar ones.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "datacenter/power.hpp"
#include "datacenter/resource.hpp"
#include "datacenter/server_class.hpp"

namespace vmcons::core {

class ScenarioBatch {
 public:
  /// Number of scenarios appended so far.
  std::size_t size() const noexcept { return target_loss_.size(); }
  bool empty() const noexcept { return target_loss_.empty(); }

  /// Total service rows across all scenarios (the length of the flat
  /// service-level columns).
  std::size_t service_rows() const noexcept { return arrival_rate_.size(); }

  /// Total fleet-class rows across all scenarios (the length of the flat
  /// class-level columns; scenarios without a fleet contribute none).
  std::size_t class_rows() const noexcept { return class_name_.size(); }

  /// Validates and appends one scenario (same preconditions as the
  /// UtilityAnalyticModel constructor), returning its index. Impact curves
  /// are evaluated at the scenario's resolved VM count here, so evaluation
  /// never touches virt code.
  std::size_t append(const ModelInputs& inputs);

  /// Reserves room for `scenarios` more scenarios owning `services` service
  /// rows and `classes` class rows in total.
  void reserve(std::size_t scenarios, std::size_t services,
               std::size_t classes);

  /// Drops every scenario, keeping the columns' capacity for reuse.
  void clear();

  /// Builds a batch from a span of inputs (append in order).
  static ScenarioBatch from_inputs(std::span<const ModelInputs> inputs);

  /// Everything append() writes for a scenario except its target loss,
  /// arrival rates and class counts: service names, native rates, clamped
  /// impact factors, bottleneck and effective rates at one resolved VM
  /// count, the power pair, and the fleet's class rows with their speeds.
  /// A what-if grid has one per distinct VM count, so
  /// ConsolidationPlanner::sweep_batch derives each once and stamps it into
  /// every cell of that VM count. The target loss and arrival rates of
  /// `shape` are ignored.
  class Prototype;

  /// Appends one scenario stamped from `prototype`, with the same
  /// validation, in the same order, and the same columns as append() of the
  /// ModelInputs the prototype was built from with `target_loss`, `arrival`
  /// (one rate per service) and, when non-empty, `class_counts` (one count
  /// per fleet class, replacing the fleet's) applied. Returns its index.
  std::size_t append(const Prototype& prototype, double target_loss,
                     std::span<const double> arrival,
                     std::span<const std::uint64_t> class_counts = {});

  /// Raw column contents of a batch, mirroring the private members exactly.
  /// This is the serialization face used by core::ScenarioStore: a batch
  /// round-tripped through Columns is bit-identical to the original,
  /// including the derived columns (which are stored, not recomputed).
  struct Columns {
    std::vector<double> target_loss;
    std::vector<unsigned> vm_count;
    std::vector<dc::PowerModel> dedicated_power;
    std::vector<dc::PowerModel> consolidated_power;
    std::vector<std::size_t> row_begin;  ///< size()+1 offsets, row_begin[0]==0
    std::vector<double> arrival_rate;
    std::array<std::vector<double>, dc::kResourceCount> native_rate;
    std::array<std::vector<double>, dc::kResourceCount> impact;
    std::vector<double> bottleneck_rate;
    std::vector<double> effective_rate;
    std::vector<std::string> service_name;
    std::vector<std::size_t> class_begin;  ///< size()+1, class_begin[0]==0
    std::vector<std::string> class_name;
    std::array<std::vector<double>, dc::kResourceCount> class_capacity;
    std::vector<double> class_base_watts;
    std::vector<double> class_max_watts;
    std::vector<std::uint64_t> class_count;
    std::vector<double> class_speed;
  };

  /// Rebuilds a batch from raw columns (the deserialization path). Validates
  /// the structural invariants (offset monotonicity and column lengths), the
  /// same per-scenario value preconditions append() enforces, the values
  /// append() can write (native rates finite and >= 0 with one positive,
  /// impact factors in [Impact::kMinFactor, 1], fleet classes as Fleet::add
  /// checks them), and that each stored bottleneck and effective rate is
  /// bit for bit the one its row's native rates and impact factors derive;
  /// throws InvalidArgument naming the violated invariant. Derived columns
  /// are adopted as stored so the round trip stays bit-identical.
  static ScenarioBatch from_columns(Columns&& columns);

  // --- per-scenario columns ----------------------------------------------
  double target_loss(std::size_t scenario) const {
    return target_loss_[scenario];
  }
  /// Resolved VM count: vms_per_server if set, else the service count.
  unsigned vm_count(std::size_t scenario) const { return vm_count_[scenario]; }
  std::span<const dc::PowerModel> dedicated_power() const {
    return dedicated_power_;
  }
  std::span<const dc::PowerModel> consolidated_power() const {
    return consolidated_power_;
  }

  /// Half-open row range [services_begin(s), services_end(s)) of scenario s
  /// in the flat service-level columns.
  std::size_t services_begin(std::size_t scenario) const {
    return row_begin_[scenario];
  }
  std::size_t services_end(std::size_t scenario) const {
    return row_begin_[scenario + 1];
  }
  std::size_t service_count(std::size_t scenario) const {
    return services_end(scenario) - services_begin(scenario);
  }

  // --- flat service-row columns ------------------------------------------
  std::span<const double> arrival_rate() const { return arrival_rate_; }
  std::span<const double> native_rate(dc::Resource resource) const {
    return native_rate_[static_cast<std::size_t>(resource)];
  }
  /// Clamped planning factor a_ij(v) of the owning scenario's VM count.
  std::span<const double> impact(dc::Resource resource) const {
    return impact_[static_cast<std::size_t>(resource)];
  }
  /// Smallest positive mu_ij (the dedicated bottleneck rate).
  std::span<const double> bottleneck_rate() const { return bottleneck_rate_; }
  /// min over demanded resources of mu_ij * a_ij(v) (Eq. 4 per service).
  std::span<const double> effective_rate() const { return effective_rate_; }
  const std::string& service_name(std::size_t row) const {
    return service_name_[row];
  }

  // --- flat fleet-class columns ------------------------------------------
  /// Half-open class-row range [classes_begin(s), classes_end(s)) of
  /// scenario s in the flat class-level columns (empty = no fleet).
  std::size_t classes_begin(std::size_t scenario) const {
    return class_begin_[scenario];
  }
  std::size_t classes_end(std::size_t scenario) const {
    return class_begin_[scenario + 1];
  }
  const std::string& class_name(std::size_t row) const {
    return class_name_[row];
  }
  /// Per-resource capacity multiplier relative to the reference server.
  std::span<const double> class_capacity(dc::Resource resource) const {
    return class_capacity_[static_cast<std::size_t>(resource)];
  }
  std::span<const double> class_base_watts() const { return class_base_watts_; }
  std::span<const double> class_max_watts() const { return class_max_watts_; }
  /// Owned count per class row (ServerClass::kUnbounded = unconstrained).
  std::span<const std::uint64_t> class_available() const {
    return class_count_;
  }
  /// Derived reference-equivalents per server: min capacity over resources
  /// (ServerClass::speed(), stored at append so evaluation never recomputes).
  std::span<const double> class_speed() const { return class_speed_; }

 private:
  /// The one writer of the derived row columns: appends `services`' rows at
  /// VM count `v` (names, native rates, impact factors, and the bottleneck
  /// and effective rates of ServiceSpec's scalar accessors: resources in
  /// all_resources() order, zero rates skipped, min-accumulation) and
  /// `fleet`'s class rows (with ServerClass::speed()). Writes no offsets and
  /// no arrival rates.
  void write_rows(std::span<const dc::ServiceSpec> services, unsigned v,
                  const dc::Fleet& fleet);

  /// Calls `scenario` on every per-scenario column, `row` on every flat
  /// service-row column and `cls` on every flat class-row column (the two
  /// offset columns excluded).
  template <typename S, typename R, typename C>
  void for_each_column(S&& scenario, R&& row, C&& cls);

  std::vector<double> target_loss_;
  std::vector<unsigned> vm_count_;
  std::vector<dc::PowerModel> dedicated_power_;
  std::vector<dc::PowerModel> consolidated_power_;
  std::vector<std::size_t> row_begin_{0};  ///< size() + 1 offsets

  std::vector<double> arrival_rate_;
  std::array<std::vector<double>, dc::kResourceCount> native_rate_;
  std::array<std::vector<double>, dc::kResourceCount> impact_;
  std::vector<double> bottleneck_rate_;
  std::vector<double> effective_rate_;
  std::vector<std::string> service_name_;

  std::vector<std::size_t> class_begin_{0};  ///< size() + 1 offsets
  std::vector<std::string> class_name_;
  std::array<std::vector<double>, dc::kResourceCount> class_capacity_;
  std::vector<double> class_base_watts_;
  std::vector<double> class_max_watts_;
  std::vector<std::uint64_t> class_count_;
  std::vector<double> class_speed_;
};

class ScenarioBatch::Prototype {
 public:
  explicit Prototype(const ModelInputs& shape);

 private:
  friend class ScenarioBatch;
  ScenarioBatch rows_;  ///< the derived rows; holds no scenario
  unsigned vm_count_ = 0;
  dc::PowerModel dedicated_power_;
  dc::PowerModel consolidated_power_;
  std::vector<std::uint8_t> demands_;  ///< per service: any positive rate
};

}  // namespace vmcons::core
