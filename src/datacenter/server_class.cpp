#include "datacenter/server_class.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace vmcons::dc {
namespace {

/// Throws "class 'legacy': cpu capacity = -1<requirement>": every validation
/// error names the class and the offending field so operators can find the
/// line. Only the failing branch formats anything.
[[noreturn]] void reject_field(std::string_view name, std::string_view field,
                               double value, std::string_view requirement) {
  std::ostringstream out;
  out.precision(17);
  out << "class '" << name << "': " << field << " = " << value << requirement;
  throw InvalidArgument(out.str());
}

}  // namespace

ResourceVector ServerClass::unit_capacity() {
  ResourceVector capacity;
  for (const Resource resource : all_resources()) {
    capacity[resource] = 1.0;
  }
  return capacity;
}

double ServerClass::speed() const {
  double slowest = std::numeric_limits<double>::infinity();
  for (const Resource resource : all_resources()) {
    slowest = std::min(slowest, capacity[resource]);
  }
  return slowest;
}

ServerClass ServerClass::reference(std::string name, PowerModel power,
                                   std::uint64_t count) {
  ServerClass server_class;
  server_class.name = std::move(name);
  server_class.power = power;
  server_class.count = count;
  return server_class;
}

void validate_server_class(std::string_view name,
                           const ResourceVector& capacity, double base_watts,
                           double max_watts) {
  VMCONS_REQUIRE(!name.empty(), "server class needs a non-empty name");
  for (const Resource resource : all_resources()) {
    const double value = capacity[resource];
    if (!std::isfinite(value)) {
      reject_field(name, std::string(resource_name(resource)) + " capacity",
                   value, " must be finite");
    }
    if (!(value > 0.0)) {
      reject_field(name, std::string(resource_name(resource)) + " capacity",
                   value, " must be > 0 (relative to the reference server)");
    }
  }
  if (!std::isfinite(base_watts)) {
    reject_field(name, "base_watts", base_watts, " must be finite");
  }
  if (!std::isfinite(max_watts)) {
    reject_field(name, "max_watts", max_watts, " must be finite");
  }
  if (!(base_watts > 0.0)) {
    reject_field(name, "base_watts", base_watts, " must be > 0");
  }
  if (!(max_watts >= base_watts)) {
    reject_field(name, "max_watts", max_watts,
                 " must be >= base_watts (a negative dynamic range would "
                 "reward utilization with phantom savings)");
  }
}

Fleet& Fleet::add(ServerClass server_class) {
  validate_server_class(server_class.name, server_class.capacity,
                        server_class.power.base_watts,
                        server_class.power.max_watts);
  for (const ServerClass& existing : classes_) {
    VMCONS_REQUIRE(existing.name != server_class.name,
                   "fleet already has a class named '" + server_class.name +
                       "'");
  }
  classes_.push_back(std::move(server_class));
  return *this;
}

Fleet Fleet::with_counts(const std::vector<std::uint64_t>& counts) const {
  VMCONS_REQUIRE(counts.size() == classes_.size(),
                 "fleet mix has " + std::to_string(counts.size()) +
                     " counts but the fleet declares " +
                     std::to_string(classes_.size()) + " classes");
  Fleet fleet;
  fleet.classes_ = classes_;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    fleet.classes_[i].count = counts[i];
  }
  return fleet;
}

}  // namespace vmcons::dc
