#include "virt/impact.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/error.hpp"

namespace vmcons::virt {
namespace {

std::string format_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

class ConstantModel final : public Impact::Model {
 public:
  explicit ConstantModel(double value) : value_(value) {}
  double raw_factor(unsigned) const override { return value_; }
  std::string describe() const override {
    return "a(v) = " + format_number(value_);
  }

 private:
  double value_;
};

class LinearModel final : public Impact::Model {
 public:
  LinearModel(double intercept, double slope)
      : intercept_(intercept), slope_(slope) {}
  double raw_factor(unsigned vm_count) const override {
    return intercept_ + slope_ * static_cast<double>(vm_count);
  }
  std::string describe() const override {
    return "a(v) = " + format_number(intercept_) +
           (slope_ < 0 ? " - " : " + ") + format_number(std::abs(slope_)) + " v";
  }

 private:
  double intercept_;
  double slope_;
};

class RationalModel final : public Impact::Model {
 public:
  RationalModel(double amplitude, double half_point)
      : amplitude_(amplitude), half_point_(half_point) {}
  double raw_factor(unsigned vm_count) const override {
    const double v2 = static_cast<double>(vm_count) * static_cast<double>(vm_count);
    return amplitude_ * v2 / (v2 + half_point_);
  }
  std::string describe() const override {
    return "a(v) = " + format_number(amplitude_) + " v^2 / (v^2 + " +
           format_number(half_point_) + ")";
  }

 private:
  double amplitude_;
  double half_point_;
};

class TableModel final : public Impact::Model {
 public:
  explicit TableModel(std::vector<std::pair<unsigned, double>> points)
      : points_(std::move(points)) {}
  double raw_factor(unsigned vm_count) const override {
    if (vm_count <= points_.front().first) {
      return points_.front().second;
    }
    if (vm_count >= points_.back().first) {
      return points_.back().second;
    }
    for (std::size_t i = 1; i < points_.size(); ++i) {
      if (vm_count <= points_[i].first) {
        const auto& [x0, y0] = points_[i - 1];
        const auto& [x1, y1] = points_[i];
        const double t = static_cast<double>(vm_count - x0) /
                         static_cast<double>(x1 - x0);
        return y0 + t * (y1 - y0);
      }
    }
    return points_.back().second;
  }
  std::string describe() const override {
    return "a(v) = table[" + std::to_string(points_.size()) + " points]";
  }

 private:
  std::vector<std::pair<unsigned, double>> points_;
};

}  // namespace

Impact::Impact() : model_(std::make_shared<ConstantModel>(1.0)) {}

Impact::Impact(std::shared_ptr<const Model> model) : model_(std::move(model)) {
  VMCONS_REQUIRE(model_ != nullptr, "impact model must not be null");
}

double Impact::raw_factor(unsigned vm_count) const {
  return model_->raw_factor(vm_count);
}

double Impact::factor(unsigned vm_count) const {
  return std::clamp(model_->raw_factor(vm_count), kMinFactor, 1.0);
}

std::string Impact::describe() const { return model_->describe(); }

Impact Impact::constant(double value) {
  VMCONS_REQUIRE(value > 0.0, "constant impact must be positive");
  return Impact(std::make_shared<ConstantModel>(value));
}

Impact Impact::linear(double intercept, double slope) {
  return Impact(std::make_shared<LinearModel>(intercept, slope));
}

Impact Impact::rational_saturating(double amplitude, double half_point) {
  VMCONS_REQUIRE(amplitude > 0.0 && half_point > 0.0,
                 "rational impact parameters must be positive");
  return Impact(std::make_shared<RationalModel>(amplitude, half_point));
}

Impact Impact::table(std::vector<std::pair<unsigned, double>> points) {
  VMCONS_REQUIRE(!points.empty(), "impact table must not be empty");
  for (std::size_t i = 1; i < points.size(); ++i) {
    VMCONS_REQUIRE(points[i].first > points[i - 1].first,
                   "impact table must be sorted by VM count");
  }
  return Impact(std::make_shared<TableModel>(std::move(points)));
}

Impact Impact::paper_web_disk_io() { return linear(1.082, -0.102); }

Impact Impact::paper_web_cpu() { return linear(0.658, -0.039); }

Impact Impact::paper_db_cpu() { return rational_saturating(1.85, 0.85); }

Impact Impact::none() { return constant(1.0); }

}  // namespace vmcons::virt
