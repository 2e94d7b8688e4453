// Heterogeneous server classes — lifting the one-machine-type assumption.
//
// The paper's model (Section III-B1 assumption 1) normalizes every physical
// server to one reference machine: a single set of native rates mu_ij and
// one S_base/S_max wattage pair. Real fleets mix generations. A ServerClass
// describes one machine type relative to that reference server:
//
//   * per-resource capacity multipliers (a class with cpu capacity 2.0
//     serves CPU-bound work twice as fast as the reference machine);
//   * its own wattage pair (S_base/S_max); the deployment decides the
//     platform — dedicated plans evaluate it as native Linux, consolidated
//     plans as Xen, exactly like the scenario-level PowerModel columns;
//   * how many the operator owns (or kUnbounded for "buy as needed").
//
// A Fleet is the validated list of classes a scenario may staff from. The
// model still solves M and N in reference-server units (so the staffing,
// blocking, and utilization answers are bit-identical with or without a
// fleet); a fleet-aware allocation pass then maps those reference counts
// onto per-class physical counts (see batch_kernels::staff_fleet). A
// class's *speed* — its worst-resource capacity multiplier — is how many
// reference-equivalents one of its servers safely covers: capacity has to
// hold on every resource the merged stream may bottleneck on, so the min
// is the only sound scalarization.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "datacenter/power.hpp"
#include "datacenter/resource.hpp"

namespace vmcons::dc {

/// One machine type of a heterogeneous fleet.
struct ServerClass {
  /// Count sentinel: the operator can rack as many of these as needed.
  static constexpr std::uint64_t kUnbounded =
      std::numeric_limits<std::uint64_t>::max();

  std::string name;
  /// Per-resource native capacity relative to the reference server; every
  /// entry must be finite and > 0 (1.0 everywhere = the reference machine).
  ResourceVector capacity = unit_capacity();
  /// This class's S_base/S_max pair. The platform field is ignored: the
  /// dedicated deployment evaluates the pair as native Linux and the
  /// consolidated deployment as Xen, mirroring the [power] INI convention.
  PowerModel power;
  /// How many of these exist (0 = owned but none available), or kUnbounded.
  std::uint64_t count = kUnbounded;

  /// Reference-equivalents one server of this class covers: the minimum
  /// capacity multiplier over all resources (the class is only as fast as
  /// its slowest resource lets the merged stream run).
  double speed() const;

  /// All-ones capacity vector (the reference machine).
  static ResourceVector unit_capacity();

  /// The reference machine itself: unit capacity, the given wattage pair.
  static ServerClass reference(std::string name, PowerModel power = {},
                               std::uint64_t count = kUnbounded);
};

/// Throws InvalidArgument naming the offending class and field if these
/// field values describe a malformed class (empty name, non-positive or
/// non-finite capacity, bad watts). Fleet::add checks a ServerClass with it,
/// and ScenarioBatch::from_columns checks stored class rows with it straight
/// from the columns. The valid path builds no string.
void validate_server_class(std::string_view name,
                           const ResourceVector& capacity, double base_watts,
                           double max_watts);

/// A validated, ordered list of server classes. The only mutator is add(),
/// which validates loudly — so any Fleet reachable by client code is valid
/// and downstream layers (batch columns, kernels) never re-check.
class Fleet {
 public:
  Fleet() = default;

  /// Validates and appends one class; throws InvalidArgument on a malformed
  /// class or a duplicate name.
  Fleet& add(ServerClass server_class);

  bool empty() const noexcept { return classes_.empty(); }
  std::size_t size() const noexcept { return classes_.size(); }
  const std::vector<ServerClass>& classes() const noexcept { return classes_; }
  const ServerClass& at(std::size_t index) const { return classes_[index]; }

  /// This fleet with every class's count replaced (declaration order); the
  /// counts span must match size(). The sweep fleet_mix axis applies here.
  Fleet with_counts(const std::vector<std::uint64_t>& counts) const;

 private:
  std::vector<ServerClass> classes_;
};

}  // namespace vmcons::dc
