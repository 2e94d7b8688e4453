// Virtualization impact-factor models.
//
// The paper's model consumes a scalar a_ij in (0, 1] per (resource, service):
// "the ratio of the QoS provided by VMs to that provided by the native
// Linux" (Section III). Empirically (Section IV-C1) the factor depends on
// how many VMs share the physical server, and the paper fits:
//
//   Web service, disk I/O:   a(v) = 1.082 - 0.102 v     (Fig. 5b)
//   Web service, CPU:        a(v) = 0.658 - 0.039 v     (Fig. 6b)
//   DB service, CPU&software a(v) = 1.85 v^2/(v^2+0.85) (Fig. 8b)
//
// The DB curve exceeds 1 for v >= 2 because a single OS instance caps MySQL
// throughput ("OS software limits the performance improvement"); multiple
// VMs bypass that ceiling. The model clamps factors used for planning to
// (0, 1] per its own definition, but the raw curves are exposed for the
// calibration benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace vmcons::virt {

/// Value-semantic handle to an impact-factor curve a(v), v = number of VMs
/// co-resident on one physical server.
class Impact {
 public:
  class Model {
   public:
    virtual ~Model() = default;
    virtual double raw_factor(unsigned vm_count) const = 0;
    virtual std::string describe() const = 0;
  };

  /// Default-constructs the identity curve a(v) = 1 (no virtualization).
  Impact();

  /// Wraps a model implementation (used by the factories below).
  explicit Impact(std::shared_ptr<const Model> model);

  /// Raw curve value (may exceed 1, e.g. the DB software-ceiling effect).
  double raw_factor(unsigned vm_count) const;

  /// Planning factor: raw value clamped to (kMinFactor, 1], matching the
  /// model's definition 0 < a <= 1.
  double factor(unsigned vm_count) const;

  /// Human-readable formula, e.g. "a(v) = 1.082 - 0.102 v".
  std::string describe() const;

  static constexpr double kMinFactor = 0.01;

  /// a(v) = value, independent of v. value must be positive.
  static Impact constant(double value);

  /// a(v) = intercept + slope * v.
  static Impact linear(double intercept, double slope);

  /// a(v) = amplitude * v^2 / (v^2 + half_point).
  static Impact rational_saturating(double amplitude, double half_point);

  /// Piecewise-linear interpolation through (v, a) points; clamps outside.
  static Impact table(std::vector<std::pair<unsigned, double>> points);

  // --- Paper presets (Section IV-C1) -------------------------------------
  static Impact paper_web_disk_io();  ///< Fig. 5(b)
  static Impact paper_web_cpu();      ///< Fig. 6(b)
  static Impact paper_db_cpu();       ///< Fig. 8(b)
  static Impact none();               ///< a(v) = 1: native (no virtualization)

 private:
  std::shared_ptr<const Model> model_;
};

}  // namespace vmcons::virt
