// Physical resource kinds and per-resource vectors.
//
// The paper considers R resource types per server (CPU, disk I/O, ...),
// assumed independent (Section III-B1 assumption 3). A ResourceVector holds
// one double per kind; rates of 0 mean "this service does not demand this
// resource" (e.g. the DB service's disk demand, mu_di ~ 0 in the case study,
// which the model treats as 'no constraint from this resource').
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <string_view>

namespace vmcons::dc {

enum class Resource : std::size_t {
  kCpu = 0,
  kDiskIo = 1,
  kMemory = 2,
  kNetwork = 3,
};

inline constexpr std::size_t kResourceCount = 4;

constexpr std::string_view resource_name(Resource resource) {
  switch (resource) {
    case Resource::kCpu: return "cpu";
    case Resource::kDiskIo: return "disk_io";
    case Resource::kMemory: return "memory";
    case Resource::kNetwork: return "network";
  }
  return "unknown";
}

constexpr std::array<Resource, kResourceCount> all_resources() {
  return {Resource::kCpu, Resource::kDiskIo, Resource::kMemory,
          Resource::kNetwork};
}

/// Per-resource doubles (service rates, capacities, utilizations).
class ResourceVector {
 public:
  constexpr ResourceVector() : values_{} {}

  constexpr double& operator[](Resource resource) {
    return values_[static_cast<std::size_t>(resource)];
  }
  constexpr double operator[](Resource resource) const {
    return values_[static_cast<std::size_t>(resource)];
  }

  /// Smallest strictly-positive entry, or `fallback` if all entries are 0.
  /// Used to find a service's bottleneck service rate.
  double min_positive(double fallback) const {
    double best = fallback;
    bool found = false;
    for (const double value : values_) {
      if (value > 0.0 && (!found || value < best)) {
        best = value;
        found = true;
      }
    }
    return found ? best : fallback;
  }

  constexpr bool any_positive() const {
    for (const double value : values_) {
      if (value > 0.0) {
        return true;
      }
    }
    return false;
  }

  /// Every entry finite and >= 0 (false if any is NaN): the domain of
  /// native rates a model, a batch or a scenario store accepts.
  constexpr bool all_finite_non_negative() const {
    for (const double value : values_) {
      if (!(value >= 0.0 && value <= std::numeric_limits<double>::max())) {
        return false;
      }
    }
    return true;
  }

 private:
  std::array<double, kResourceCount> values_;
};

}  // namespace vmcons::dc
