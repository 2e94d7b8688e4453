#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/digest.hpp"
#include "util/error.hpp"

namespace vmcons {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  const std::uint64_t z = util::mix64(state);
  state += 0x9e3779b97f4a7c15ULL;
  return z;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the stream id into the seed chain so that (seed, 0) and (seed, 1)
  // produce unrelated state vectors.
  std::uint64_t chain = seed ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  for (auto& word : state_) {
    word = splitmix64(chain);
  }
  // xoshiro must not start at the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire-style rejection: unbiased and branch-cheap for n << 2^64.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::exponential(double rate) noexcept {
  // -log(1 - U) with U in [0,1) never evaluates log(0).
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    // Inversion by sequential search.
    const double l = std::exp(-mean);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= uniform();
    } while (p > l);
    return k - 1;
  }
  // Normal approximation with continuity correction is adequate for the
  // arrival-count use cases in this library (mean >= 30), and keeps the
  // generator exactly reproducible.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::gamma(double shape, double scale) noexcept {
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang section 6).
    const double u = uniform();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v * scale;
    }
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::uint64_t Rng::zipf(std::uint64_t n, double s) noexcept {
  if (n <= 1) {
    return 0;
  }
  if (s <= 0.0) {
    return uniform_index(n);
  }
  // Rejection-inversion (Hormann) over the continuous envelope.
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    if (std::abs(s - 1.0) < 1e-12) {
      return std::log(x);
    }
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    if (std::abs(s - 1.0) < 1e-12) {
      return std::exp(y);
    }
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double h_x1 = h(1.5) - std::pow(1.0, -s);
  const double h_n = h(nd + 0.5);
  for (;;) {
    const double u = h_x1 + uniform() * (h_n - h_x1);
    const double x = h_inv(u);
    const std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    const std::uint64_t clamped = k < 1 ? 1 : (k > n ? n : k);
    const double kd = static_cast<double>(clamped);
    if (u >= h(kd + 0.5) - std::pow(kd, -s)) {
      return clamped - 1;
    }
  }
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (const double w : weights) {
    total += w > 0.0 ? w : 0.0;
  }
  if (total <= 0.0) {
    return 0;
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) {
      return i;
    }
    target -= w;
  }
  return weights.size() - 1;
}

}  // namespace vmcons
